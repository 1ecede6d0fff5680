"""Sequential reference interpreter.

Executes a whole :class:`~repro.ir.program.Program` against a single
:class:`~repro.runtime.memory.MemoryImage` in sequential program order:
init section, every region segment by segment (loop iterations in
iteration order, explicit segments following their control-flow edges),
then the finale.  It is the ground truth all speculative engines are
checked against.

Two execution paths produce identical operation streams:

* the coroutine interpreter of :mod:`repro.runtime.executor`, and
* the trace replay of :mod:`repro.runtime.trace`, for loop regions
  whose control flow is input-independent: every iteration replays the
  region's one recorded trace (:func:`~repro.runtime.trace.region_trace`,
  shared with the speculative engines), bypassing AST
  re-interpretation.

A run with an ``op_budget`` walks the AST everywhere: only the
coroutine interpreter counts statement executions (the label-soundness
checker's oracles run this way).  Either way a run's stats carry the
same reads, writes and operator-weighted compute cycles, which is all
:func:`repro.timing.makespan.sequential_baseline` prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.ir.program import Program
from repro.ir.region import (
    EXIT_NODE,
    LOOP_BODY_SEGMENT,
    ExplicitRegion,
    LoopRegion,
    Region,
)
from repro.ir.stmt import Statement
from repro.ir.symbols import SymbolError
from repro.runtime.errors import (
    AddressError,
    EngineLivelockError,
    SimulationError,
)
from repro.runtime.executor import (
    ReadOp,
    SegmentCoroutine,
    WriteOp,
    evaluate_expression,
    index_range,
    segment_coroutine,
)
from repro.runtime.memory import MemoryImage
from repro.runtime.stats import ExecutionStats
from repro.runtime.trace import region_trace, replay_segment

#: Safety valve for explicit regions whose edges form a cycle.
MAX_EXPLICIT_STEPS = 100_000

#: Pseudo segment names reported to observers for the serial sections.
INIT_SEGMENT = "<init>"
FINALE_SEGMENT = "<finale>"


class ExecutionObserver:
    """Passive observer of one sequential execution.

    Subclass and override; every method is a no-op by default.  The
    interpreter reports each segment instance (loop iteration, explicit
    segment execution, or the init/finale serial sections with
    ``region=None``) and, inside it, every memory operation with its
    resolved flat ``(variable, offset)`` address.  Reads evaluated
    outside segment bodies (region loop bounds, explicit branch
    conditions) go through ``MemoryImage.read`` directly and are *not*
    reported.
    """

    def begin_segment(
        self, region: Optional[str], segment: str, instance: int
    ) -> None:
        """A segment instance is about to execute."""

    def end_segment(self) -> None:
        """The current segment instance finished."""

    def on_read(self, ref, address, value) -> None:
        """One read: static reference (or None), address, value seen."""

    def on_write(self, ref, address, old_value, new_value) -> None:
        """One write: static reference (or None), address, old and new."""


@dataclass
class SequentialResult:
    """Outcome of one sequential execution."""

    program: str
    memory: MemoryImage
    stats: ExecutionStats
    #: Region name -> ``"replayed"`` when the trace fast path served its
    #: iterations, else why it did not.
    replay_reasons: Dict[str, str] = field(default_factory=dict)

    def value_of(self, variable: str, subscripts: Sequence[int] = ()) -> float:
        """Convenience read of the final memory state."""
        return self.memory.read(variable, subscripts)


def loop_range(region: LoopRegion, memory: MemoryImage) -> range:
    """The index values of ``region``, its bounds evaluated over
    ``memory`` on entry."""
    lower, upper, step = (
        evaluate_expression(bound, memory.read)
        for bound in (region.lower, region.upper, region.step)
    )
    return index_range(lower, upper, step, f"region {region.name!r}")


def drive(
    coroutine: SegmentCoroutine,
    memory: MemoryImage,
    stats: ExecutionStats,
    observer: Optional[ExecutionObserver] = None,
) -> None:
    """Pump one segment coroutine straight against ``memory``.

    The one non-speculative op loop: the sequential interpreter runs
    every segment through it, the speculative engines their init and
    finale sections.
    """
    # This loop runs once per simulated operation; locals for every
    # attribute that would otherwise be re-looked-up per op.
    # Address translation goes straight to the symbol-table cache
    # (SymbolError is re-wrapped below to keep the AddressError
    # contract of MemoryImage.address_of).
    address_of = memory.symbols.address_of
    values = memory._values
    initial_value = memory.initial_value
    ref_counts = stats.reference_counts
    missing = object()
    send = coroutine.send
    reads = writes = cycles = 0
    try:
        op = send(None)
        while True:
            cls = type(op)
            if cls is ReadOp:
                address = address_of(op.variable, op.subscripts)
                value = values.get(address, missing)
                if value is missing:
                    value = initial_value(address[0])
                reads += 1
                ref = op.ref
                if ref is not None:
                    uid = ref.uid
                    ref_counts[uid] = ref_counts.get(uid, 0) + 1
                if observer is not None:
                    observer.on_read(ref, address, value)
                op = send(value)
            elif cls is WriteOp:
                address = address_of(op.variable, op.subscripts)
                new_value = float(op.value)
                if observer is not None:
                    old_value = values.get(address, missing)
                    if old_value is missing:
                        old_value = initial_value(address[0])
                    observer.on_write(op.ref, address, old_value, new_value)
                values[address] = new_value
                writes += 1
                ref = op.ref
                if ref is not None:
                    uid = ref.uid
                    ref_counts[uid] = ref_counts.get(uid, 0) + 1
                op = send(None)
            else:  # ComputeOp
                cycles += op.cycles
                op = send(None)
    except StopIteration:
        return
    except SymbolError as exc:
        raise AddressError(str(exc)) from exc
    finally:
        stats.reads += reads
        stats.writes += writes
        stats.cycles += cycles


class SequentialInterpreter:
    """Sequential executor for complete programs."""

    def __init__(
        self,
        program: Program,
        op_budget: Optional[int] = None,
        observer: Optional[ExecutionObserver] = None,
    ):
        self.program = program
        #: Per-segment bound on statement executions; a bounded run
        #: walks the AST in every region.
        self.op_budget = op_budget
        #: Optional :class:`ExecutionObserver` fed every segment
        #: instance and memory operation (both execution paths).
        self.observer = observer

    # ------------------------------------------------------------------
    def run(self) -> SequentialResult:
        """Execute the whole program and return the final state."""
        memory = MemoryImage(self.program.symbols)
        stats = ExecutionStats()
        result = SequentialResult(
            program=self.program.name, memory=memory, stats=stats
        )
        self._run_serial(INIT_SEGMENT, self.program.init, memory, stats)
        for region in self.program.regions:
            self._run_region(region, memory, stats, result)
        self._run_serial(FINALE_SEGMENT, self.program.finale, memory, stats)
        return result

    def _run_serial(
        self,
        name: str,
        body: Sequence[Statement],
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        """Run the init or finale section (nothing when it is empty)."""
        if body:
            coroutine = segment_coroutine(body, op_budget=self.op_budget)
            self._run_segment(None, name, 0, coroutine, memory, stats)

    def _run_segment(
        self,
        region: Optional[str],
        segment: str,
        instance: int,
        coroutine: SegmentCoroutine,
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        """Drive one segment instance, reporting it to the observer."""
        observer = self.observer
        if observer is not None:
            observer.begin_segment(region, segment, instance)
        drive(coroutine, memory, stats, observer)
        if observer is not None:
            observer.end_segment()

    # ------------------------------------------------------------------
    def _run_region(
        self,
        region: Region,
        memory: MemoryImage,
        stats: ExecutionStats,
        result: SequentialResult,
    ) -> None:
        if isinstance(region, LoopRegion):
            self._run_loop_region(region, memory, stats, result)
        elif isinstance(region, ExplicitRegion):
            self._run_explicit_region(region, memory, stats)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown region type {type(region).__name__}")

    def _run_loop_region(
        self,
        region: LoopRegion,
        memory: MemoryImage,
        stats: ExecutionStats,
        result: SequentialResult,
    ) -> None:
        values = loop_range(region, memory)
        if self.op_budget is None:
            trace, reason = region_trace(region, memory)
        else:
            trace, reason = None, "op budget set: the AST path counts executions"
        result.replay_reasons[region.name] = reason
        for value in values:
            stats.segments_started += 1
            if trace is not None:
                coroutine = replay_segment(trace, value)
            else:
                coroutine = segment_coroutine(
                    region.body,
                    locals_in_scope={region.index: value},
                    op_budget=self.op_budget,
                )
            self._run_segment(
                region.name, LOOP_BODY_SEGMENT, value, coroutine, memory, stats
            )
            stats.segments_committed += 1

    def _run_explicit_region(
        self,
        region: ExplicitRegion,
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        edges = region.segment_edges()
        current = region.entry
        steps = 0
        while current != EXIT_NODE:
            steps += 1
            if steps > MAX_EXPLICIT_STEPS:
                raise EngineLivelockError(
                    f"explicit region {region.name!r} exceeded "
                    f"{MAX_EXPLICIT_STEPS} segment executions"
                )
            segment = region.segment(current)
            stats.segments_started += 1
            coroutine = segment_coroutine(segment.body, op_budget=self.op_budget)
            self._run_segment(region.name, current, steps - 1, coroutine, memory, stats)
            stats.segments_committed += 1
            successors = edges.get(current, [])
            if not successors:
                return
            if len(successors) > 1 and segment.branch is not None:
                taken = evaluate_expression(segment.branch, memory.read)
                current = successors[0] if taken else successors[1]
            else:
                current = successors[0]


def run_program(
    program: Program,
    op_budget: Optional[int] = None,
    observer: Optional[ExecutionObserver] = None,
) -> SequentialResult:
    """One-shot sequential execution of ``program``."""
    return SequentialInterpreter(
        program, op_budget=op_budget, observer=observer
    ).run()
