"""Sequential reference interpreter.

Executes a whole :class:`~repro.ir.program.Program` against a single
:class:`~repro.runtime.memory.MemoryImage` in sequential program order:
init section, every region segment by segment (loop iterations in
iteration order, explicit segments following their control-flow edges),
then the finale.  It is the ground truth all speculative engines are
checked against and the workhorse the benchmark harness drives.

Two execution paths produce identical operation streams:

* the coroutine interpreter of :mod:`repro.runtime.executor` (always
  available), and
* the trace record-and-replay fast path of :mod:`repro.runtime.trace`,
  used for loop regions whose control flow is input-independent; the
  body schedule is recorded on entry to the region and replayed for
  every iteration, bypassing AST re-interpretation.

``use_replay=False`` forces the interpreter path everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

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
    segment_coroutine,
)
from repro.runtime.memory import MemoryImage
from repro.runtime.stats import ExecutionStats
from repro.runtime.trace import (
    SegmentTrace,
    TraceError,
    record_trace,
    replay_segment,
)

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
    #: Region name -> True when the trace fast path served its iterations.
    replayed_regions: Dict[str, bool] = field(default_factory=dict)
    #: Region name -> human-readable eligibility note.
    replay_reasons: Dict[str, str] = field(default_factory=dict)

    def value_of(self, variable: str, subscripts: Sequence[int] = ()) -> float:
        """Convenience read of the final memory state."""
        return self.memory.read(variable, subscripts)


class SequentialInterpreter:
    """Sequential executor for complete programs."""

    def __init__(
        self,
        program: Program,
        op_budget: Optional[int] = None,
        use_replay: bool = True,
        op_hook: Optional[Callable[[str, int], None]] = None,
        compute_cost: Optional[Callable] = None,
        observer: Optional[ExecutionObserver] = None,
    ):
        self.program = program
        self.op_budget = op_budget
        self.use_replay = use_replay
        #: Optional observer called once per operation as
        #: ``op_hook(kind, cycles)`` with kind "read" / "write" /
        #: "compute" -- how the timing model prices a sequential run.
        self.op_hook = op_hook
        #: Optional executor latency hook (see
        #: :class:`repro.runtime.executor.ExecContext`); replay bakes
        #: default compute costs into traces, so a custom hook forces
        #: the interpreter path.
        self.compute_cost = compute_cost
        #: Optional :class:`ExecutionObserver` fed every segment
        #: instance and memory operation (both execution paths).
        self.observer = observer
        if compute_cost is not None:
            self.use_replay = False
        self._traces: Dict[str, Optional[SegmentTrace]] = {}

    # ------------------------------------------------------------------
    def run(self) -> SequentialResult:
        """Execute the whole program and return the final state."""
        memory = MemoryImage(self.program.symbols)
        stats = ExecutionStats()
        result = SequentialResult(
            program=self.program.name, memory=memory, stats=stats
        )
        observer = self.observer
        if observer is not None and self.program.init:
            observer.begin_segment(None, INIT_SEGMENT, 0)
        self._run_body(self.program.init, memory, stats)
        if observer is not None and self.program.init:
            observer.end_segment()
        for region in self.program.regions:
            self._run_region(region, memory, stats, result)
        if observer is not None and self.program.finale:
            observer.begin_segment(None, FINALE_SEGMENT, 0)
        self._run_body(self.program.finale, memory, stats)
        if observer is not None and self.program.finale:
            observer.end_segment()
        return result

    # ------------------------------------------------------------------
    def _drive(
        self,
        coroutine: SegmentCoroutine,
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        """Pump one segment coroutine against the shared memory image."""
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
        op_hook = self.op_hook
        observer = self.observer
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
                    if op_hook is not None:
                        op_hook("read", 0)
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
                    if op_hook is not None:
                        op_hook("write", 0)
                    op = send(None)
                else:  # ComputeOp
                    cycles += op.cycles
                    if op_hook is not None:
                        op_hook("compute", op.cycles)
                    op = send(None)
        except StopIteration:
            return
        except SymbolError as exc:
            raise AddressError(str(exc)) from exc
        finally:
            stats.reads += reads
            stats.writes += writes
            stats.cycles += cycles

    def _run_body(
        self,
        body: Sequence[Statement],
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        if not body:
            return
        self._drive(
            segment_coroutine(
                body, op_budget=self.op_budget, compute_cost=self.compute_cost
            ),
            memory,
            stats,
        )

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

    def _trace_for(
        self, region: LoopRegion, memory: MemoryImage, result: SequentialResult
    ) -> Optional[SegmentTrace]:
        """Record (or fetch) the region's trace; ``None`` means interpret."""
        if region.name in self._traces:
            return self._traces[region.name]
        trace: Optional[SegmentTrace] = None
        if self.use_replay:
            # record_trace performs the eligibility check itself (one
            # body walk); an ineligible or oversized body raises.
            try:
                trace = record_trace(
                    region, resolve=lambda name: memory.read(name, ())
                )
                reason = "replayed"
            except TraceError as exc:
                trace = None
                reason = str(exc)
        else:
            reason = "fast path disabled"
        self._traces[region.name] = trace
        result.replayed_regions[region.name] = trace is not None
        result.replay_reasons[region.name] = reason
        return trace

    def _run_loop_region(
        self,
        region: LoopRegion,
        memory: MemoryImage,
        stats: ExecutionStats,
        result: SequentialResult,
    ) -> None:
        reader = memory.read
        lower = int(round(evaluate_expression(region.lower, reader)))
        upper = int(round(evaluate_expression(region.upper, reader)))
        step = int(round(evaluate_expression(region.step, reader)))
        if step == 0:
            raise SimulationError(f"region {region.name!r} has zero step")
        trace = self._trace_for(region, memory, result)
        observer = self.observer
        value = lower
        while (step > 0 and value <= upper) or (step < 0 and value >= upper):
            stats.segments_started += 1
            if trace is not None:
                coroutine = replay_segment(trace, value, op_budget=self.op_budget)
            else:
                coroutine = segment_coroutine(
                    region.body,
                    locals_in_scope={region.index: value},
                    op_budget=self.op_budget,
                    compute_cost=self.compute_cost,
                )
            if observer is not None:
                observer.begin_segment(region.name, LOOP_BODY_SEGMENT, value)
            self._drive(coroutine, memory, stats)
            if observer is not None:
                observer.end_segment()
            stats.segments_committed += 1
            value += step

    def _run_explicit_region(
        self,
        region: ExplicitRegion,
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        edges = region.segment_edges()
        observer = self.observer
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
            if observer is not None:
                observer.begin_segment(region.name, current, steps - 1)
            self._drive(
                segment_coroutine(
                    segment.body,
                    op_budget=self.op_budget,
                    compute_cost=self.compute_cost,
                ),
                memory,
                stats,
            )
            if observer is not None:
                observer.end_segment()
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
    use_replay: bool = True,
    observer: Optional[ExecutionObserver] = None,
) -> SequentialResult:
    """One-shot sequential execution of ``program``."""
    return SequentialInterpreter(
        program,
        op_budget=op_budget,
        use_replay=use_replay,
        observer=observer,
    ).run()
