"""Speculative execution engines: HOSE and CASE (Definitions 2 and 4).

Both engines execute a whole :class:`~repro.ir.program.Program` with a
window of in-flight segments per region, driving the *same* operation
streams the sequential interpreter drives (the coroutines of
:mod:`repro.runtime.executor`).  The init section, region entry code
(loop bounds) and finale run non-speculatively, exactly as in
:class:`~repro.runtime.interpreter.SequentialInterpreter`; inside a
region up to ``window`` segments execute concurrently (simulated by
age-ordered round-robin, one operation per segment per round) on top of
the :mod:`~repro.runtime.specstore` substrate:

* a speculative read is served by the segment's own buffer, then by the
  nearest older in-flight buffer (forwarding), then by conventional
  memory -- and is *tracked* so a later write by an older segment can
  detect the violation;
* a speculative write is buffered; every write (buffered or direct)
  rolls back all segments younger than the oldest violating reader;
* a buffer that would exceed its capacity stalls the segment; once the
  stalled segment is the oldest it drains its buffer to memory and
  finishes in write-through mode (it is non-speculative from then on);
* segments commit strictly in age order, which is what makes the final
  memory state bit-identical to the sequential interpreter's: the
  oldest segment always reads committed (sequential) state, and any
  younger segment that consumed a stale value is squashed and
  re-executed before it can commit.

The two engines differ only in *routing*:

:class:`HOSEEngine` (Definition 2)
    The hardware-only engine.  Every memory reference of a speculative
    segment goes through speculative storage.

:class:`CASEEngine` (Definition 4)
    The compiler-assisted engine.  References labeled ``IDEMPOTENT`` by
    Algorithm 2 (:func:`repro.idempotency.labeling.label_region`) bypass
    speculative storage: read-only, shared-dependent and
    fully-independent references access conventional memory directly
    (leaving no access information behind, per Theorems 1 and 2), and
    references to privatizable variables are served from a per-segment
    private frame that is flushed at commit.  Only the references that
    stay ``SPECULATIVE`` occupy buffer entries, which is the paper's
    headline effect: less speculative-storage pressure than HOSE for
    the same program.

Explicit regions additionally speculate on control flow (HOSE Property
5): the in-flight window follows the *predicted* path (first successor
of each segment); the actual successor is resolved when a segment
commits, and a mispredicted path squashes every younger in-flight
segment (``control_mispredictions``).

Stats semantics: ``reads`` / ``writes`` / ``cycles`` /
``reference_counts`` count **all executed work including rolled-back
attempts** (``wasted_cycles`` isolates the rolled-back share);
``speculative_accesses`` / ``idempotent_accesses`` /
``private_accesses`` split the references by route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.program import Program
from repro.ir.region import EXIT_NODE, ExplicitRegion, LoopRegion, Region
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import TRACER, _NULL_SPAN
from repro.ir.symbols import SymbolError
from repro.ir.types import IdempotencyCategory, RefLabel
from repro.runtime.errors import (
    AddressError,
    EngineLivelockError,
    FaultInjected,
    InvariantViolation,
    SimulationError,
)
from repro.runtime.executor import (
    ComputeOp,
    ReadOp,
    SegmentCoroutine,
    WriteOp,
    evaluate_expression,
    segment_coroutine,
)
from repro.runtime.interpreter import MAX_EXPLICIT_STEPS, SequentialInterpreter
from repro.runtime.memory import Address, MemoryImage
from repro.runtime.specstore import (
    SegmentBuffer,
    SpeculativeStore,
    SpecStoreError,
)
from repro.runtime.stats import ExecutionStats

#: Reference routes (how an engine serves one static reference).  The
#: canonical definition -- the timing cost model imports these (timing
#: consumes runtime, never the reverse).
ROUTE_SPECULATIVE = "speculative"
ROUTE_DIRECT = "direct"
ROUTE_PRIVATE = "private"

#: Errors that always indicate a corrupted/stuck speculative substrate
#: (never a program bug): the engine degrades to sequential execution
#: on these even without a fault injector attached.
SUBSTRATE_ERRORS = (InvariantViolation, EngineLivelockError, SpecStoreError)

#: Defaults for the graceful-degradation policy.  Both bounds are far
#: above anything a fault-free run can reach (restarts per segment are
#: bounded by the in-flight window times the writes per segment, and
#: the oldest segment commits within one round per operation), so they
#: only ever trip on genuine livelock.
DEFAULT_MAX_RESTARTS = 100_000
DEFAULT_WATCHDOG_ROUNDS = 1_000_000


@dataclass
class DegradationReport:
    """Why a speculative run fell back to the sequential interpreter."""

    #: Engine that gave up ("hose" / "case").
    engine: str
    program: str
    #: Class name of the error that triggered the fallback.
    error_type: str
    reason: str
    #: Region being executed when the engine gave up (None = outside
    #: any region, e.g. init/finale).
    region: Optional[str]
    #: Progress of the abandoned speculative attempt.
    segments_committed: int
    rollbacks: int
    fault_restarts: int
    #: Injected-fault counts per kind at the time of the fallback
    #: (empty when no injector was attached).
    fault_counts: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "engine": self.engine,
            "program": self.program,
            "error_type": self.error_type,
            "reason": self.reason,
            "region": self.region,
            "segments_committed": self.segments_committed,
            "rollbacks": self.rollbacks,
            "fault_restarts": self.fault_restarts,
            "fault_counts": dict(self.fault_counts),
        }


@dataclass
class SpeculativeResult:
    """Outcome of one speculative execution."""

    program: str
    engine: str
    memory: MemoryImage
    stats: ExecutionStats
    window: int
    capacity: Optional[int]
    #: Speculative-storage occupancy high-water marks (all buffers /
    #: one buffer) -- the HOSE vs CASE comparison quantities.
    spec_peak_entries: int = 0
    spec_peak_segment_entries: int = 0
    #: Region name -> labeling used for routing (CASE only).
    labeling: Dict[str, object] = field(default_factory=dict)
    #: True when the speculative run was abandoned and the final state
    #: came from the sequential fallback (bit-identical by construction).
    degraded: bool = False
    degradation: Optional[DegradationReport] = None
    #: Injected-fault counts per kind (runs with an injector attached).
    fault_counts: Dict[str, int] = field(default_factory=dict)

    def value_of(self, variable: str, subscripts=()) -> float:
        """Convenience read of the final memory state."""
        return self.memory.read(variable, subscripts)


class _SegmentTask:
    """One in-flight segment occurrence: coroutine + speculative state."""

    __slots__ = (
        "key",
        "segment_name",
        "age",
        "spawn",
        "coroutine",
        "current_op",
        "pending_value",
        "done",
        "stalled",
        "write_through",
        "buffer",
        "private",
        "cycles",
        "restarts",
    )

    def __init__(
        self,
        key: Tuple,
        segment_name: Optional[str],
        age: int,
        spawn: Callable[[], SegmentCoroutine],
        buffer: SegmentBuffer,
    ):
        self.key = key
        self.segment_name = segment_name
        self.age = age
        self.spawn = spawn
        self.coroutine = spawn()
        #: Operation yielded but not yet completed (overflow retry point).
        self.current_op = None
        #: Value to send into the coroutine for the next operation.
        self.pending_value: Optional[float] = None
        self.done = False
        self.stalled = False
        #: True once an overflowed segment, as the oldest, drained its
        #: buffer and continues non-speculatively.
        self.write_through = False
        self.buffer: Optional[SegmentBuffer] = buffer
        #: Private frame for references routed ROUTE_PRIVATE (CASE).
        self.private: Dict[Address, float] = {}
        #: Cycles of the current attempt (moved to wasted_cycles on squash).
        self.cycles = 0
        #: Squash-restart cycles consumed by this occurrence (bounded by
        #: the engine's ``max_restarts`` policy).
        self.restarts = 0


class SpeculativeEngine:
    """Common scheduler of the speculative engines.

    Subclasses choose the reference routing via :meth:`_routes_for`;
    this base class routes everything through speculative storage
    (i.e. behaves as HOSE).
    """

    engine_name = "speculative"

    def __init__(
        self,
        program: Program,
        window: int = 4,
        capacity: Optional[int] = 64,
        op_budget: Optional[int] = None,
        recorder=None,
        store: Optional[SpeculativeStore] = None,
        injector=None,
        auditor=None,
        max_restarts: Optional[int] = DEFAULT_MAX_RESTARTS,
        watchdog_rounds: Optional[int] = DEFAULT_WATCHDOG_ROUNDS,
        fallback: bool = True,
        batch: bool = False,
    ):
        self.program = program
        self.window = max(1, int(window))
        self.capacity = capacity
        self.op_budget = op_budget
        #: A pre-built store (e.g. a FaultySpeculativeStore) overrides
        #: the default substrate; its capacity wins.
        self.store = store if store is not None else SpeculativeStore(
            capacity=capacity
        )
        if store is not None:
            self.capacity = store.capacity
        #: Resilience policy (see docs/ROBUSTNESS.md): an optional
        #: :class:`repro.resilience.faults.FaultInjector` feeding the
        #: op/prediction fault hooks, an optional
        #: :class:`repro.resilience.auditor.InvariantAuditor` run after
        #: every scheduling round, bounded squash-restart cycles per
        #: segment occurrence, a global rounds-without-commit watchdog,
        #: and ``fallback`` selecting graceful degradation to the
        #: sequential interpreter over raising.
        self._injector = injector
        if injector is not None and auditor is None:
            # An injected substrate must always be audited, otherwise
            # structural faults (e.g. dropped commits) go undetected.
            from repro.resilience.auditor import InvariantAuditor

            auditor = InvariantAuditor()
        self.auditor = auditor
        self.max_restarts = max_restarts
        self.watchdog_rounds = watchdog_rounds
        self.fallback = fallback
        self._rounds_since_commit = 0
        self._committed_age = 0
        self._region_name: Optional[str] = None
        #: Optional :class:`repro.timing.events.TimingRecorder`; when
        #: attached, every lifecycle event and operation is emitted as a
        #: timing event (and compute costs use the recorder's cost
        #: model), without perturbing execution or final memory state.
        self._recorder = recorder
        self._compute_cost = (
            recorder.cost.compute_cost_fn() if recorder is not None else None
        )
        if recorder is not None:
            recorder.run_begin(program.name, self.engine_name, self.window)
        #: Observability hook, snapshotted once (mirrors the recorder
        #: guard): ``None`` while tracing is disabled, so every
        #: lifecycle site costs a single identity check.
        self._obs = TRACER if TRACER.enabled else None
        self._age = 0
        #: uid -> route for the region currently executing.
        self._routes: Dict[str, str] = {}
        #: Batched speculative replay (:mod:`repro.runtime.batch`): run
        #: each eligible loop region's attempts as whole-segment batches
        #: with post-hoc validation instead of op-interleaving.  Off by
        #: default -- the batched protocol is bit-identical in final
        #: memory but has different micro-dynamics (fault-free runs
        #: validate instead of violating), so dynamics-sensitive
        #: consumers opt in explicitly.
        self.batch = batch
        #: Region name -> compiled BatchProgram (None = ineligible).
        self._batch_programs: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # routing (the only thing HOSE and CASE disagree on)
    # ------------------------------------------------------------------
    def _routes_for(
        self, region: Region, result: SpeculativeResult
    ) -> Dict[str, str]:
        """Per-reference routes for ``region``; absent uid = speculative."""
        return {}

    # ------------------------------------------------------------------
    def run(self) -> SpeculativeResult:
        """Execute the whole program speculatively; final state + stats.

        When the speculative substrate fails -- an invariant violation,
        a livelock (restart budget or watchdog), a spec-store usage
        error, or any simulation error while a fault injector is
        attached -- and ``fallback`` is on, the run degrades gracefully:
        the partial speculative state is abandoned and the whole program
        re-executes through :class:`SequentialInterpreter`, so the
        returned final memory state is still bit-identical to the
        sequential ground truth.  The result carries a
        :class:`DegradationReport` describing what failed.
        """
        if self._obs is not None:
            with self._obs.span(
                "engine.run",
                category="engine",
                engine=self.engine_name,
                program=self.program.name,
                window=self.window,
                capacity=self.capacity,
            ):
                return self._run()
        return self._run()

    def _run(self) -> SpeculativeResult:
        memory = MemoryImage(self.program.symbols)
        stats = ExecutionStats()
        result = SpeculativeResult(
            program=self.program.name,
            engine=self.engine_name,
            memory=memory,
            stats=stats,
            window=self.window,
            capacity=self.capacity,
        )
        try:
            self._execute(memory, stats, result)
        except SimulationError as exc:
            if not self._should_degrade(exc):
                raise
            return self._degrade(exc, stats)
        result.spec_peak_entries = self.store.peak_entries
        result.spec_peak_segment_entries = self.store.peak_segment_entries
        if self._injector is not None:
            result.fault_counts = dict(self._injector.counts)
        return result

    def _should_degrade(self, exc: SimulationError) -> bool:
        """Degradation policy: substrate failures always degrade; with
        an injector attached *any* simulation error is suspect (the
        fault may have manifested as a program-level error, e.g. an
        injected bad subscript)."""
        if not self.fallback:
            return False
        if isinstance(exc, SUBSTRATE_ERRORS):
            return True
        return self._injector is not None

    def _degrade(self, exc: SimulationError, stats: ExecutionStats) -> SpeculativeResult:
        """Abandon speculation; re-execute sequentially from scratch."""
        report = DegradationReport(
            engine=self.engine_name,
            program=self.program.name,
            error_type=type(exc).__name__,
            reason=str(exc),
            region=self._region_name,
            segments_committed=stats.segments_committed,
            rollbacks=stats.rollbacks,
            fault_restarts=stats.fault_restarts,
            fault_counts=(
                dict(self._injector.counts) if self._injector is not None else {}
            ),
        )
        if self._obs is not None:
            self._obs.event(
                "engine.degraded",
                category="engine",
                engine=self.engine_name,
                error_type=report.error_type,
                region=report.region,
            )
        registry = obs_metrics.metrics_registry()
        if registry.collecting:
            obs_metrics.ingest_degradation(report, registry=registry)
        sequential = SequentialInterpreter(
            self.program, op_budget=self.op_budget
        ).run()
        result = SpeculativeResult(
            program=self.program.name,
            engine=self.engine_name,
            memory=sequential.memory,
            stats=sequential.stats,
            window=self.window,
            capacity=self.capacity,
            degraded=True,
            degradation=report,
        )
        result.spec_peak_entries = self.store.peak_entries
        result.spec_peak_segment_entries = self.store.peak_segment_entries
        result.fault_counts = dict(report.fault_counts)
        return result

    def _execute(
        self,
        memory: MemoryImage,
        stats: ExecutionStats,
        result: SpeculativeResult,
    ) -> None:
        recorder = self._recorder
        self._region_name = None
        self._drive_direct(
            segment_coroutine(
                self.program.init,
                op_budget=self.op_budget,
                compute_cost=self._compute_cost,
            ),
            memory,
            stats,
        )
        for region in self.program.regions:
            self._routes = self._routes_for(region, result)
            self._region_name = region.name
            self._rounds_since_commit = 0
            if recorder is not None:
                recorder.region_begin(
                    region.name,
                    "loop" if isinstance(region, LoopRegion) else "explicit",
                )
            with (
                self._obs.span(
                    "engine.region",
                    category="engine",
                    region=region.name,
                    engine=self.engine_name,
                )
                if self._obs is not None
                else _NULL_SPAN
            ):
                if isinstance(region, LoopRegion):
                    self._run_loop_region(region, memory, stats)
                elif isinstance(region, ExplicitRegion):
                    self._run_explicit_region(region, memory, stats)
                else:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"unknown region type {type(region).__name__}"
                    )
            if self.auditor is not None:
                self.auditor.audit_region_end(self.store, region.name)
            if recorder is not None:
                recorder.region_end()
        self._region_name = None
        self._drive_direct(
            segment_coroutine(
                self.program.finale,
                op_budget=self.op_budget,
                compute_cost=self._compute_cost,
            ),
            memory,
            stats,
        )

    # ------------------------------------------------------------------
    # non-speculative sections (init / finale)
    # ------------------------------------------------------------------
    def _drive_direct(
        self,
        coroutine: SegmentCoroutine,
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        """Run a coroutine straight against conventional memory."""
        recorder = self._recorder
        try:
            op = coroutine.send(None)
            while True:
                cls = type(op)
                if cls is ReadOp:
                    address = memory.address_of(op.variable, op.subscripts)
                    value = memory.load(address)
                    stats.reads += 1
                    if op.ref is not None:
                        stats.count_reference(op.ref.uid)
                    if recorder is not None:
                        recorder.direct_op("read", 0)
                    op = coroutine.send(value)
                elif cls is WriteOp:
                    address = memory.address_of(op.variable, op.subscripts)
                    memory.store(address, op.value)
                    stats.writes += 1
                    if op.ref is not None:
                        stats.count_reference(op.ref.uid)
                    if recorder is not None:
                        recorder.direct_op("write", 0)
                    op = coroutine.send(None)
                else:  # ComputeOp
                    stats.cycles += op.cycles
                    if recorder is not None:
                        recorder.direct_op("compute", op.cycles)
                    op = coroutine.send(None)
        except StopIteration:
            return
        except SymbolError as exc:
            raise AddressError(str(exc)) from exc

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def _start_task(
        self,
        key: Tuple,
        segment_name: Optional[str],
        spawn: Callable[[], SegmentCoroutine],
        stats: ExecutionStats,
    ) -> _SegmentTask:
        self._age += 1
        buffer = self.store.open_segment(key, self._age)
        task = _SegmentTask(key, segment_name, self._age, spawn, buffer)
        stats.segments_started += 1
        if self._recorder is not None:
            self._recorder.segment_started(key, self._age)
        if self._obs is not None:
            self._obs.event(
                "engine.dispatch", category="engine", age=self._age, segment=key
            )
        return task

    def _restart(
        self,
        task: _SegmentTask,
        stats: ExecutionStats,
        by_age: Optional[int] = None,
    ) -> None:
        """Roll a violated segment back and re-execute it from scratch."""
        task.restarts += 1
        if self.max_restarts is not None and task.restarts > self.max_restarts:
            raise EngineLivelockError(
                f"segment {task.key!r} exceeded the restart budget "
                f"({self.max_restarts}); the window is not making progress"
            )
        stats.rollbacks += 1
        stats.wasted_cycles += task.cycles
        task.cycles = 0
        if task.buffer is not None:
            self.store.squash(task.buffer)
        task.private.clear()
        task.coroutine.close()
        task.coroutine = task.spawn()
        task.current_op = None
        task.pending_value = None
        task.done = False
        task.stalled = False
        stats.segments_started += 1
        if self._recorder is not None:
            self._recorder.squashed(task.age, by_age)
        if self._obs is not None:
            self._obs.event(
                "engine.squash", category="engine", age=task.age, by_age=by_age
            )

    def _discard(self, task: _SegmentTask, stats: ExecutionStats) -> None:
        """Throw a wrong-path segment away (control misprediction)."""
        stats.rollbacks += 1
        stats.wasted_cycles += task.cycles
        if task.buffer is not None:
            self.store.abandon(task.buffer)
            task.buffer = None
        task.coroutine.close()
        if self._recorder is not None:
            self._recorder.discarded(task.age)
        if self._obs is not None:
            self._obs.event("engine.discard", category="engine", age=task.age)

    def _stall(self, task: _SegmentTask, stats: ExecutionStats) -> None:
        if not task.stalled:
            task.stalled = True
            stats.overflow_stalls += 1
            if self._recorder is not None:
                self._recorder.stalled(task.age)
            if self._obs is not None:
                self._obs.event(
                    "engine.stall", category="engine", age=task.age
                )

    def _unstall_oldest(
        self, task: _SegmentTask, memory: MemoryImage, stats: ExecutionStats
    ) -> None:
        """Drain the overflowed oldest segment; it finishes write-through.

        As the oldest in-flight segment it is no longer speculative, so
        its buffered values can safely become architecturally visible
        early and the rest of the segment writes through.
        """
        # Every tracked entry (write values and read access info) is
        # flushed early; only the write values reach memory.
        stats.overflow_entries += task.buffer.entries
        drained = self.store.commit(task.buffer, memory)
        stats.commit_entries += drained
        task.buffer = None
        task.write_through = True
        task.stalled = False
        if self._recorder is not None:
            self._recorder.drained(task.age, drained)
        if self._obs is not None:
            self._obs.event(
                "engine.drain", category="engine", age=task.age, entries=drained
            )

    def _commit_task(
        self, task: _SegmentTask, memory: MemoryImage, stats: ExecutionStats
    ) -> None:
        """Commit the finished oldest segment in age order."""
        entries = 0
        if task.buffer is not None:
            entries = self.store.commit(task.buffer, memory)
            stats.commit_entries += entries
            task.buffer = None
        for address, value in task.private.items():
            memory.store(address, value)
        stats.segments_committed += 1
        self._committed_age = task.age
        self._rounds_since_commit = 0
        if self._recorder is not None:
            self._recorder.committed(task.age, entries + len(task.private))
        if self._obs is not None:
            self._obs.event(
                "engine.commit",
                category="engine",
                age=task.age,
                entries=entries + len(task.private),
            )

    # ------------------------------------------------------------------
    # violation detection
    # ------------------------------------------------------------------
    def _check_violations(
        self,
        writer: _SegmentTask,
        address: Address,
        active: List[_SegmentTask],
        stats: ExecutionStats,
    ) -> None:
        """Roll back younger segments that consumed a now-stale value."""
        violators = self.store.violators(writer.age, address)
        if not violators:
            return
        stats.violations += len(violators)
        oldest_violator = min(buffer.age for buffer in violators)
        for task in active:
            # Everything younger than the oldest violator restarts: the
            # violator itself consumed the stale value, and segments
            # younger still may have consumed the violator's results
            # through forwarding.
            if task.age >= oldest_violator:
                self._restart(task, stats, by_age=writer.age)

    # ------------------------------------------------------------------
    # one simulated operation of one segment
    # ------------------------------------------------------------------
    def _charge(
        self,
        task: _SegmentTask,
        stats: ExecutionStats,
        cycles: int,
        kind: str = "compute",
        route: Optional[str] = None,
    ) -> None:
        """Charge one operation's cycles to the attempt and the totals.

        The single choke point for per-op cycle accounting -- and, when
        a timing recorder is attached, for timing event emission (the
        recorder prices the op with its own cost model; ``cycles`` here
        are executor compute cycles, 0 for memory accesses).
        """
        task.cycles += cycles
        stats.cycles += cycles
        if self._recorder is not None:
            self._recorder.op(task.age, kind, cycles, route)

    def _step(
        self,
        task: _SegmentTask,
        memory: MemoryImage,
        stats: ExecutionStats,
        active: List[_SegmentTask],
    ) -> None:
        if task.current_op is None:
            try:
                task.current_op = task.coroutine.send(task.pending_value)
            except StopIteration:
                task.done = True
                return
            task.pending_value = None
        op = task.current_op
        if self._injector is not None:
            # Perturb this attempt only: task.current_op keeps the real
            # op, so a retry after a stall or restart re-rolls cleanly.
            op = self._injector.perturb_op(op)
        cls = type(op)
        if cls is ComputeOp:
            self._charge(task, stats, op.cycles)
            task.current_op = None
            return
        try:
            address = memory.symbols.address_of(op.variable, op.subscripts)
        except SymbolError as exc:
            raise AddressError(str(exc)) from exc
        ref = op.ref
        route = (
            self._routes.get(ref.uid, ROUTE_SPECULATIVE)
            if ref is not None
            else ROUTE_SPECULATIVE
        )
        if cls is ReadOp:
            #: Storage that actually served the value (``None`` =
            #: conventional memory), which is what the cost model prices.
            served = route
            if route is ROUTE_PRIVATE:
                value = task.private.get(address)
                if value is None:
                    value = memory.load(address)
                    served = None
                stats.private_accesses += 1
            elif route is ROUTE_DIRECT:
                value = memory.load(address)
                stats.idempotent_accesses += 1
            elif task.write_through:
                value = memory.load(address)
                stats.speculative_accesses += 1
                served = None
            else:
                buffer = task.buffer
                if buffer.holds(address):
                    value = buffer.values[address]
                else:
                    if not self.store.record_read(buffer, address):
                        self._stall(task, stats)
                        return
                    value = self.store.forward(buffer, address)
                    if value is None:
                        value = memory.load(address)
                        served = None
                stats.speculative_accesses += 1
            stats.reads += 1
            if ref is not None:
                stats.count_reference(ref.uid)
            self._charge(task, stats, 0, "read", route=served)
            task.pending_value = value
            task.current_op = None
            return
        # WriteOp
        served = route
        if route is ROUTE_PRIVATE:
            task.private[address] = float(op.value)
            stats.private_accesses += 1
        elif route is ROUTE_DIRECT or task.write_through:
            memory.store(address, op.value)
            if route is ROUTE_DIRECT:
                stats.idempotent_accesses += 1
            else:
                stats.speculative_accesses += 1
                served = None
            self._check_violations(task, address, active, stats)
        else:
            buffer = task.buffer
            if not self.store.record_write(buffer, address, op.value):
                self._stall(task, stats)
                return
            stats.speculative_accesses += 1
            self._check_violations(task, address, active, stats)
        stats.writes += 1
        if ref is not None:
            stats.count_reference(ref.uid)
        self._charge(task, stats, 0, "write", route=served)
        task.pending_value = None
        task.current_op = None

    def _round(
        self,
        active: List[_SegmentTask],
        memory: MemoryImage,
        stats: ExecutionStats,
    ) -> None:
        """One scheduling round: each runnable segment executes one op.

        With the resilience layer armed the round also (1) scrubs
        poisoned buffers *before* anything can drain them to memory,
        (2) ticks the global progress watchdog, (3) converts transient
        per-op faults into bounded local restarts, and (4) audits the
        store's invariants once the round is over.
        """
        self._scrub_poisoned(active, stats)
        self._rounds_since_commit += 1
        if (
            self.watchdog_rounds is not None
            and self._rounds_since_commit > self.watchdog_rounds
        ):
            raise EngineLivelockError(
                f"no segment committed in {self.watchdog_rounds} "
                f"scheduling rounds; the engine is not making progress"
            )
        for task in list(active):
            if task.done:
                continue
            if task.stalled:
                if active and task is active[0]:
                    self._unstall_oldest(task, memory, stats)
                else:
                    stats.stall_rounds += 1
                    continue
            try:
                self._step(task, memory, stats, active)
            except (FaultInjected, AddressError):
                if self._injector is None or task.write_through:
                    # No injector: a genuine program error.  Write-
                    # through: the segment's earlier writes already
                    # reached memory, so local re-execution would
                    # double-apply them -- degrade instead.
                    raise
                self._recover_fault(task, active, stats)
        if self.auditor is not None:
            self.auditor.audit(
                self.store, self._committed_age, region=self._region_name
            )

    def _scrub_poisoned(
        self, active: List[_SegmentTask], stats: ExecutionStats
    ) -> None:
        """Squash-restart buffers whose forwarded values were corrupted.

        Detection follows a parity/ECC model: the corrupted forward
        marked the consuming buffer ``poisoned``.  Everything at or
        younger than the oldest poisoned segment restarts -- younger
        segments may have consumed the poisoned segment's derived
        values (including value-dependent scatter addresses that leave
        no violation trace), so restarting the poisoned task alone
        would be unsound.
        """
        oldest_poisoned = None
        for task in active:
            if task.buffer is not None and task.buffer.poisoned:
                oldest_poisoned = task.age
                break
        if oldest_poisoned is None:
            return
        if self._obs is not None:
            self._obs.event(
                "engine.poison_scrub", category="engine", age=oldest_poisoned
            )
        # A finished-but-uncommitted task restarts too: its buffer may
        # hold values derived from the corrupted forward.
        for task in active:
            if task.age >= oldest_poisoned:
                stats.fault_restarts += 1
                self._restart(task, stats)

    def _recover_fault(
        self,
        task: _SegmentTask,
        active: List[_SegmentTask],
        stats: ExecutionStats,
    ) -> None:
        """Transient in-segment fault: restart the task and all younger.

        Younger segments may have forwarded from the faulted one, so
        the recovery footprint mirrors a data-dependence violation.
        Persistent faults exhaust the restart budget and degrade.
        """
        if self._obs is not None:
            self._obs.event(
                "engine.fault_recovery", category="engine", age=task.age
            )
        for other in active:
            if other.age >= task.age:
                stats.fault_restarts += 1
                self._restart(other, stats)

    # ------------------------------------------------------------------
    # loop regions
    # ------------------------------------------------------------------
    def _run_loop_region(
        self, region: LoopRegion, memory: MemoryImage, stats: ExecutionStats
    ) -> None:
        reader = memory.read
        lower = int(round(evaluate_expression(region.lower, reader)))
        upper = int(round(evaluate_expression(region.upper, reader)))
        step = int(round(evaluate_expression(region.step, reader)))
        if step == 0:
            raise SimulationError(f"region {region.name!r} has zero step")

        if self.batch and self.op_budget is None:
            from repro.runtime.batch import try_run_batched

            if try_run_batched(self, region, memory, stats, lower, upper, step):
                return

        def iteration_values():
            value = lower
            while (step > 0 and value <= upper) or (step < 0 and value >= upper):
                yield value
                value += step

        values = iteration_values()
        body = region.body
        index = region.index
        op_budget = self.op_budget

        compute_cost = self._compute_cost

        def spawn_for(value: int) -> Callable[[], SegmentCoroutine]:
            return lambda: segment_coroutine(
                body,
                locals_in_scope={index: value},
                op_budget=op_budget,
                compute_cost=compute_cost,
            )

        active: List[_SegmentTask] = []

        def refill() -> None:
            while len(active) < self.window:
                value = next(values, None)
                if value is None:
                    return
                active.append(
                    self._start_task(
                        (region.name, value), None, spawn_for(value), stats
                    )
                )

        refill()
        while active:
            self._round(active, memory, stats)
            while active and active[0].done:
                # A poison detected on the round's last step must not
                # slip into this commit window.
                self._scrub_poisoned(active, stats)
                if not active[0].done:
                    break
                self._commit_task(active.pop(0), memory, stats)
                refill()

    # ------------------------------------------------------------------
    # explicit regions (control speculation)
    # ------------------------------------------------------------------
    def _run_explicit_region(
        self, region: ExplicitRegion, memory: MemoryImage, stats: ExecutionStats
    ) -> None:
        edges = region.segment_edges()
        op_budget = self.op_budget

        compute_cost = self._compute_cost

        def spawn_for(segment_name: str) -> Callable[[], SegmentCoroutine]:
            body = region.segment(segment_name).body
            return lambda: segment_coroutine(
                body, op_budget=op_budget, compute_cost=compute_cost
            )

        injector = self._injector

        def predicted_successor(segment_name: str) -> Optional[str]:
            """First-successor prediction; None when the path exits."""
            successors = edges.get(segment_name, [])
            if not successors or successors[0] == EXIT_NODE:
                predicted: Optional[str] = None
            else:
                predicted = successors[0]
            if injector is not None:
                # An injected mispredict steers the fill path down a
                # wrong (but structurally valid) successor; the normal
                # resolve-against-committed-state machinery discards it.
                predicted = injector.perturb_prediction(
                    [s for s in successors if s != EXIT_NODE], predicted
                )
            return predicted

        active: List[_SegmentTask] = []
        occurrence = 0
        #: Next segment on the predicted path (None = predicted exit).
        fill_from: Optional[str] = region.entry
        committed = 0

        def refill() -> None:
            nonlocal fill_from, occurrence
            while len(active) < self.window and fill_from is not None:
                name = fill_from
                occurrence += 1
                active.append(
                    self._start_task(
                        (region.name, name, occurrence),
                        name,
                        spawn_for(name),
                        stats,
                    )
                )
                fill_from = predicted_successor(name)

        refill()
        while active:
            self._round(active, memory, stats)
            while active and active[0].done:
                # A poison detected on the round's last step must not
                # slip into this commit window.
                self._scrub_poisoned(active, stats)
                if not active[0].done:
                    break
                task = active.pop(0)
                self._commit_task(task, memory, stats)
                committed += 1
                if committed > MAX_EXPLICIT_STEPS:
                    raise EngineLivelockError(
                        f"explicit region {region.name!r} exceeded "
                        f"{MAX_EXPLICIT_STEPS} segment executions"
                    )
                # Resolve the actual successor against committed state,
                # exactly as the sequential interpreter does.
                successors = edges.get(task.segment_name, [])
                if not successors:
                    actual: Optional[str] = None
                else:
                    segment = region.segment(task.segment_name)
                    if len(successors) > 1 and segment.branch is not None:
                        taken = evaluate_expression(segment.branch, memory.read)
                        actual = successors[0] if taken else successors[1]
                    else:
                        actual = successors[0]
                    if actual == EXIT_NODE:
                        actual = None
                # The predicted next segment is the head of the remaining
                # in-flight window, or -- when the window drained -- the
                # segment the prediction would spawn next.
                predicted = active[0].segment_name if active else fill_from
                if actual == predicted:
                    refill()
                    continue
                # Control misprediction: the speculated path is wrong.
                # (An empty window means nothing was executed down the
                # wrong path, so nothing counts as mispredicted.)
                if active:
                    stats.control_mispredictions += 1
                    for wrong in active:
                        self._discard(wrong, stats)
                    active.clear()
                fill_from = actual
                refill()


def _has_cycle(region: ExplicitRegion) -> bool:
    """True when the region's segment graph contains a cycle."""
    from repro.analysis.cfg import SegmentGraph

    graph = SegmentGraph.from_region(region)
    return any(
        node in graph.reachable_from(node) for node in graph.real_nodes()
    )


class HOSEEngine(SpeculativeEngine):
    """Hardware-only speculative engine (Definition 2).

    Every memory reference of a speculative segment is tracked in
    speculative storage -- the baseline the paper's CASE is measured
    against.
    """

    engine_name = "hose"


class CASEEngine(SpeculativeEngine):
    """Compiler-assisted speculative engine (Definition 4).

    Consumes the labels of Algorithm 2: ``IDEMPOTENT`` references
    bypass speculative storage (conventional memory for read-only /
    shared-dependent / fully-independent references, a per-segment
    private frame for privatizable variables); only ``SPECULATIVE``
    references occupy buffer entries.
    """

    engine_name = "case"

    def __init__(
        self,
        program: Program,
        labeling: Optional[Dict[str, object]] = None,
        cache=None,
        **kwargs,
    ):
        super().__init__(program, **kwargs)
        #: Region name -> LabelingResult; computed on demand when absent.
        self._labeling_in = labeling
        if cache is None:
            from repro.analysis.cache import AnalysisCache

            cache = AnalysisCache()
        self._cache = cache

    def _routes_for(
        self, region: Region, result: SpeculativeResult
    ) -> Dict[str, str]:
        if isinstance(region, ExplicitRegion) and _has_cycle(region):
            # Algorithm 2 models each explicit segment as executing at
            # most once (the paper's Figure 2/3 graphs are acyclic); a
            # cyclic graph re-executes segments and carries dependences
            # between occurrences the labeling cannot see.  Fall back to
            # fully speculative routing (HOSE behaviour) for safety.
            return {}
        labeling = None
        if self._labeling_in is not None:
            labeling = self._labeling_in.get(region.name)
        if labeling is None:
            from repro.idempotency.labeling import label_region

            labeling = label_region(
                region, program=self.program, cache=self._cache
            )
        result.labeling[region.name] = labeling
        routes: Dict[str, str] = {}
        for ref in region.references:
            if labeling.label_of(ref) is not RefLabel.IDEMPOTENT:
                continue
            if labeling.category_of(ref) is IdempotencyCategory.PRIVATE:
                routes[ref.uid] = ROUTE_PRIVATE
            else:
                routes[ref.uid] = ROUTE_DIRECT
        return routes


def run_speculative(
    program: Program,
    engine: str = "case",
    window: int = 4,
    capacity: Optional[int] = 64,
    **kwargs,
) -> SpeculativeResult:
    """One-shot speculative execution of ``program``.

    ``engine`` is ``"hose"`` or ``"case"``.
    """
    classes = {"hose": HOSEEngine, "case": CASEEngine}
    try:
        cls = classes[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; have {sorted(classes)}"
        ) from None
    return cls(program, window=window, capacity=capacity, **kwargs).run()
