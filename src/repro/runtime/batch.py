"""Batched speculative replay: whole-segment attempts as slot programs.

The op-interleaved scheduler of :mod:`repro.runtime.engines` simulates
concurrency by age-ordered round-robin -- one operation per in-flight
segment per round -- which is faithful but costs a coroutine resume, an
``isinstance`` dispatch and several dict operations *per simulated
operation*.  For the loop regions the trace machinery of
:mod:`repro.runtime.trace` can capture, the whole attempt is a known
straight-line slot program; this module executes it in one go:

1. **Run** the entire segment attempt against segment-local read/write
   logs, with no store interaction: a speculative read serves from the
   attempt's own write log, then from the nearest-older in-flight
   attempt's write log (the forwarding contract), then from memory; a
   direct (idempotent) read sees memory plus the attempt's own direct
   writes; private references use the per-attempt private frame.
   Affine subscript templates are flattened once per program to
   column-major ``base + coeff * iv`` offsets and evaluated for the
   whole attempt in a single numpy expression (plain list arithmetic
   when numpy is unavailable); gather/value-dependent subscripts use
   the compiled slot programs of the trace.
2. **Validate post-hoc**: the exposed reads and buffered writes are
   bulk-installed into the attempt's :class:`SegmentBuffer` (so
   forwarding sources stay nearest-older and violations are still
   detected by age against the transferred read set), and at commit
   time every externally-served read value is compared against
   committed memory.  The attempt is a deterministic function of its
   external read values, so equality proves the batched attempt
   bit-identical to a sequential re-execution at that point.
3. **Commit in bulk** -- one store drain plus the write log in program
   order -- or squash and fall back: a validation failure re-runs the
   attempt (now oldest, it reads committed state and must validate), a
   capacity overflow drains the partial buffer like the interleaved
   engine's write-through contract, re-executing through memory only
   when its logs turn out stale.

Fault injection (chaos runs) preserves the resilience recovery
contract: with an injector attached, attempts are driven op-by-op
through :func:`repro.runtime.trace.replay_segment` so ``perturb_op``
sees every operation, forwarded serves go through ``store.forward``
(letting ``corrupt_forward`` poison the consuming buffer for the
engine's scrub), and a mid-attempt fault restarts the attempt plus
everything younger -- exactly the interleaved footprint.  Timing is
priced in bulk through :meth:`repro.timing.cost.CostModel.batch_cost`
with one :meth:`repro.timing.events.TimingRecorder.batched` event per
attempt.

Batching is opt-in (``batch=True`` on the engines; ``repro.bench``
enables it by default with a ``--no-batch`` escape) and silently falls
back to the op-interleaved scheduler for regions the trace cannot
capture (input-dependent control flow, oversized traces, non-integral
or out-of-bounds affine templates), whenever an op budget is in force,
and for explicit regions (control speculation stays op-interleaved).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.log import get_logger

try:  # numpy accelerates affine offset vectors; everything else is pure
    import numpy as _np
except ImportError as _numpy_exc:
    # Only a genuinely absent numpy degrades to the pure-python path —
    # and it says so once, loudly: a bare ``except Exception`` here
    # used to swallow unrelated numpy-initialization failures and
    # silently slow every batched run down.  Anything other than
    # ImportError propagates.
    _np = None
    get_logger("runtime.batch").warning(
        "numpy unavailable; batched replay falls back to pure-python "
        "offset arithmetic",
        error=str(_numpy_exc),
    )

from repro.ir.region import LoopRegion
from repro.ir.symbols import SymbolError
from repro.runtime.errors import (
    AddressError,
    EngineLivelockError,
    FaultInjected,
    SimulationError,
)
from repro.runtime.executor import ComputeOp, ReadOp
from repro.runtime.memory import MemoryImage
from repro.runtime.stats import ExecutionStats
from repro.runtime.trace import (
    _ARITH_FALLBACK_ERRORS,
    EV_ASSIGN,
    EV_COMPUTE,
    EV_CTRL_READ,
    SegmentTrace,
    TraceError,
    _eval_arith,
    _program_subs,
    record_trace,
    replay_segment,
    trace_eligibility,
)

#: Serving-route codes (dense ints for the hot dispatch; the string
#: constants live in :mod:`repro.runtime.engines`).
R_SPEC = 0
R_DIRECT = 1
R_PRIVATE = 2

#: Flat step opcodes.
STEP_CTRL = 0    # (STEP_CTRL, addr, route_code, expected, variable)
STEP_ASSIGN = 1  # (STEP_ASSIGN, rhs_items, target_items, arith_fn,
                 #  arith_program, env, target_item)
# An item is ``(mode, payload, route_code)``:
#   mode 0 -- address resolved at build time (payload = Address);
#   mode 1 -- affine template (payload = index into the flattened
#             base/coeff arrays, offset computed once per attempt);
#   mode 2 -- slot-program subscripts (payload = (name, dims), resolved
#             per access against the attempt's read-value slots).


class _BuildError(Exception):
    """Internal: the trace cannot be compiled to a batch program."""


def _route_codes_for(routes: Dict[str, str]):
    """Mapping closure uid -> dense route code (absent = speculative)."""
    from repro.runtime.engines import ROUTE_DIRECT, ROUTE_PRIVATE

    def code(ref) -> int:
        if ref is None:
            return R_SPEC
        route = routes.get(ref.uid)
        if route is None:
            return R_SPEC
        if route == ROUTE_DIRECT:
            return R_DIRECT
        if route == ROUTE_PRIVATE:
            return R_PRIVATE
        return R_SPEC

    return code


class BatchProgram:
    """One region's recorded schedule compiled to flat batch steps."""

    __slots__ = (
        "region",
        "trace",
        "steps",
        "aff_names",
        "aff_base",
        "aff_coeff",
        "aff_base_np",
        "aff_coeff_np",
        "aff_bounds",
        "n_reads",
        "n_writes",
        "reads_by_route",
        "writes_by_route",
        "default_compute",
        "n_ctrl_computes",
        "assign_stmts",
        "ref_counts",
        "batched_ops",
        "_weighted",
    )

    def __init__(self, region: str, trace: SegmentTrace):
        self.region = region
        self.trace = trace
        self.steps: List[Tuple] = []
        self.aff_names: List[str] = []
        self.aff_base: List[int] = []
        self.aff_coeff: List[int] = []
        self.aff_base_np = None
        self.aff_coeff_np = None
        #: Per affine item: ((base, coeff, extent), ...) per dimension,
        #: validated against the actual iteration range at bind time.
        self.aff_bounds: List[Tuple] = []
        self.n_reads = 0
        self.n_writes = 0
        self.reads_by_route = [0, 0, 0]
        self.writes_by_route = [0, 0, 0]
        #: Sum of executor-level compute cycles per attempt (control
        #: computes plus each assignment's cost op).
        self.default_compute = 0
        self.n_ctrl_computes = 0
        #: Source statements of the assign steps (with unroll repeats),
        #: for recorder-weighted compute totals.
        self.assign_stmts: List[object] = []
        self.ref_counts: Dict[str, int] = {}
        self.batched_ops = 0
        self._weighted: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        self.batched_ops = (
            self.n_reads
            + self.n_writes
            + self.n_ctrl_computes
            + len(self.assign_stmts)
        )
        if _np is not None and self.aff_base:
            self.aff_base_np = _np.asarray(self.aff_base, dtype=_np.int64)
            self.aff_coeff_np = _np.asarray(self.aff_coeff, dtype=_np.int64)

    def bounds_ok(self, first_iv: int, last_iv: int) -> bool:
        """True when every affine subscript stays in bounds for the
        whole iteration range (each dimension is monotonic in ``iv``,
        so the two extreme values suffice)."""
        for bounds in self.aff_bounds:
            for base, coeff, extent in bounds:
                for iv in (first_iv, last_iv):
                    sub = base + coeff * iv
                    if sub < 1 or sub > extent:
                        return False
        return True

    def weighted_compute(self, cost) -> int:
        """Attempt compute cycles under a recorder's cost model
        (mirrors the interleaved engine's ``compute_cost`` hook, which
        prices assignment arithmetic with operator weights and control
        computes at one cycle)."""
        key = id(cost)
        cached = self._weighted.get(key)
        if cached is None:
            expression_cost = cost.expression_cost
            per_stmt: Dict[int, int] = {}
            total = self.n_ctrl_computes
            for stmt in self.assign_stmts:
                c = per_stmt.get(id(stmt))
                if c is None:
                    c = expression_cost(stmt.rhs)
                    per_stmt[id(stmt)] = c
                total += c
            self._weighted[key] = cached = total
        return cached


def build_batch_program(
    region: LoopRegion,
    trace: SegmentTrace,
    routes: Dict[str, str],
    symbols,
) -> BatchProgram:
    """Compile a recorded trace into flat batch steps.

    Raises :class:`_BuildError` when the trace uses something the flat
    executor cannot reproduce exactly (the caller falls back to the
    op-interleaved scheduler, which reproduces any failure mode of the
    original program verbatim).
    """
    bp = BatchProgram(region.name, trace)
    steps = bp.steps
    address_of = symbols.address_of
    route_code = _route_codes_for(routes)
    ref_counts = bp.ref_counts
    reads_by_route = bp.reads_by_route
    writes_by_route = bp.writes_by_route

    def count_ref(ref) -> None:
        if ref is not None:
            uid = ref.uid
            ref_counts[uid] = ref_counts.get(uid, 0) + 1

    def add_affine(name: str, dims) -> int:
        symbol = symbols.get(name)
        if symbol is None or not symbol.is_array or len(dims) != symbol.rank:
            raise _BuildError(f"affine template shape mismatch for {name!r}")
        obase = 0
        ocoeff = 0
        stride = 1
        bounds = []
        for (base, coeff), extent in zip(dims, symbol.shape):
            b = int(base)
            c = int(coeff)
            if b != base or c != coeff:
                raise _BuildError(f"non-integral affine term for {name!r}")
            obase += (b - 1) * stride
            ocoeff += c * stride
            bounds.append((b, c, int(extent)))
            stride *= int(extent)
        index = len(bp.aff_names)
        bp.aff_names.append(name)
        bp.aff_base.append(obase)
        bp.aff_coeff.append(ocoeff)
        bp.aff_bounds.append(tuple(bounds))
        return index

    def build_item(r) -> Tuple:
        bp.n_reads += 1
        if type(r) is ReadOp:
            count_ref(r.ref)
            code = route_code(r.ref)
            reads_by_route[code] += 1
            try:
                addr = address_of(r.variable, r.subscripts)
            except SymbolError as exc:
                raise _BuildError(str(exc)) from exc
            return (0, addr, code)
        name, ref = r[0], r[1]
        count_ref(ref)
        code = route_code(ref)
        reads_by_route[code] += 1
        if len(r) == 3:  # all dims affine (base, coeff)
            return (1, add_affine(name, r[2]), code)
        return (2, (name, r[2]), code)

    for event in trace.events_for(None):
        kind = event[0]
        if kind == EV_COMPUTE:
            bp.default_compute += event[1].cycles
            bp.n_ctrl_computes += 1
        elif kind == EV_CTRL_READ:
            rop = event[1]
            bp.n_reads += 1
            count_ref(rop.ref)
            code = route_code(rop.ref)
            reads_by_route[code] += 1
            try:
                addr = address_of(rop.variable, rop.subscripts)
            except SymbolError as exc:
                raise _BuildError(str(exc)) from exc
            steps.append((STEP_CTRL, addr, code, event[2], rop.variable))
        elif kind == EV_ASSIGN:
            (
                _,
                rhs_reads,
                target_reads,
                arith_fn,
                arith_program,
                env,
                cost_op,
                target,
                subs_or_dims,
                subs_affine,
                subs_const,
                wref,
                ca,
            ) = event
            rhs_items = tuple(build_item(r) for r in rhs_reads)
            target_items = tuple(build_item(r) for r in target_reads)
            bp.n_writes += 1
            count_ref(wref)
            wcode = route_code(wref)
            writes_by_route[wcode] += 1
            if subs_const:
                try:
                    taddr = address_of(target, subs_or_dims)
                except SymbolError as exc:
                    raise _BuildError(str(exc)) from exc
                tgt = (0, taddr, wcode)
            elif subs_affine:
                tgt = (1, add_affine(target, subs_or_dims), wcode)
            else:
                tgt = (2, (target, subs_or_dims), wcode)
            bp.default_compute += cost_op.cycles
            if ca is None or ca.stmt is None:  # pragma: no cover - defensive
                raise _BuildError("assign event lacks its compiled statement")
            bp.assign_stmts.append(ca.stmt)
            steps.append(
                (
                    STEP_ASSIGN,
                    rhs_items,
                    target_items,
                    arith_fn,
                    arith_program,
                    env,
                    tgt,
                )
            )
        else:  # pragma: no cover - EV_CHARGE is stripped by events_for(None)
            raise _BuildError(f"unexpected trace event kind {kind}")

    bp.finalize()
    return bp


class _BatchTask:
    """One in-flight segment attempt under the batched protocol."""

    __slots__ = (
        "key",
        "age",
        "iv",
        "buffer",
        # Final value per written address, speculative + direct routes,
        # program order (what younger attempts forward from and what the
        # bulk commit applies).
        "wlog",
        # Speculative-route write addresses in first-write order (the
        # subset of wlog that transfers into the segment buffer).
        "swlog",
        # Direct-route writes only (what the attempt's own direct reads
        # may see; memory does not have them until commit).
        "dwlog",
        # Exposed read log: address -> (value, served_speculatively).
        # First serve wins; the flag keeps repeat reads priced like the
        # interleaved engine would price them.
        "rlog",
        # Private frame (ROUTE_PRIVATE), flushed at commit.
        "plog",
        "n_spec_spec",
        "n_priv_hit",
        "cycles",
        "restarts",
        "executed",
        "stalled",
    )

    def __init__(self, key: Tuple, age: int, iv: int, buffer):
        self.key = key
        self.age = age
        self.iv = iv
        self.buffer = buffer
        self.wlog: Dict = {}
        self.swlog: Dict = {}
        self.dwlog: Dict = {}
        self.rlog: Dict = {}
        self.plog: Dict = {}
        self.n_spec_spec = 0
        self.n_priv_hit = 0
        self.cycles = 0
        self.restarts = 0
        self.executed = False
        self.stalled = False

    def clear_attempt(self) -> None:
        self.wlog.clear()
        self.swlog.clear()
        self.dwlog.clear()
        self.rlog.clear()
        self.plog.clear()
        self.n_spec_spec = 0
        self.n_priv_hit = 0
        self.executed = False
        self.stalled = False


class _BatchScheduler:
    """Windowed batched execution of one loop region."""

    def __init__(
        self,
        engine,
        bp: BatchProgram,
        region: LoopRegion,
        memory: MemoryImage,
        stats: ExecutionStats,
        lower: int,
        upper: int,
        step: int,
    ):
        self.engine = engine
        self.bp = bp
        self.region = region
        self.memory = memory
        self.stats = stats
        self.active: List[_BatchTask] = []

        def iteration_values():
            value = lower
            while (step > 0 and value <= upper) or (
                step < 0 and value >= upper
            ):
                yield value
                value += step

        self.values = iteration_values()

    # ------------------------------------------------------------------
    # lifecycle (mirrors the interleaved engine's accounting exactly)
    # ------------------------------------------------------------------
    def _start(self, iv: int) -> _BatchTask:
        engine = self.engine
        engine._age += 1
        age = engine._age
        key = (self.region.name, iv)
        buffer = engine.store.open_segment(key, age)
        task = _BatchTask(key, age, iv, buffer)
        self.stats.segments_started += 1
        if engine._recorder is not None:
            engine._recorder.segment_started(key, age)
        if engine._obs is not None:
            engine._obs.event(
                "engine.dispatch", category="engine", age=age, segment=key
            )
        return task

    def _refill(self) -> None:
        window = self.engine.window
        active = self.active
        while len(active) < window:
            iv = next(self.values, None)
            if iv is None:
                return
            active.append(self._start(iv))

    def _squash_restart(
        self,
        task: _BatchTask,
        by_age: Optional[int] = None,
        fault: bool = False,
    ) -> None:
        engine = self.engine
        stats = self.stats
        task.restarts += 1
        if (
            engine.max_restarts is not None
            and task.restarts > engine.max_restarts
        ):
            raise EngineLivelockError(
                f"segment {task.key!r} exceeded the restart budget "
                f"({engine.max_restarts}); the window is not making progress"
            )
        if fault:
            stats.fault_restarts += 1
        stats.rollbacks += 1
        stats.wasted_cycles += task.cycles
        task.cycles = 0
        if task.buffer is not None:
            engine.store.squash(task.buffer)
        task.clear_attempt()
        stats.segments_started += 1
        if engine._recorder is not None:
            engine._recorder.squashed(task.age, by_age)
        if engine._obs is not None:
            engine._obs.event(
                "engine.squash", category="engine", age=task.age, by_age=by_age
            )

    def _stall(self, task: _BatchTask) -> None:
        if not task.stalled:
            task.stalled = True
            self.stats.overflow_stalls += 1
            if self.engine._recorder is not None:
                self.engine._recorder.stalled(task.age)
            if self.engine._obs is not None:
                self.engine._obs.event(
                    "engine.stall", category="engine", age=task.age
                )

    def _scrub_poisoned(self) -> None:
        """Restart everything at or younger than the oldest poisoned
        buffer (corrupt_forward parity model; see the interleaved
        engine's ``_scrub_poisoned``)."""
        oldest = None
        for task in self.active:
            if task.buffer is not None and task.buffer.poisoned:
                oldest = task.age
                break
        if oldest is None:
            return
        if self.engine._obs is not None:
            self.engine._obs.event(
                "engine.poison_scrub", category="engine", age=oldest
            )
        for task in self.active:
            if task.age >= oldest:
                self._squash_restart(task, fault=True)

    def _fault_recover(self, task: _BatchTask) -> None:
        """Mid-attempt injected fault: restart the task and all younger."""
        if self.engine._obs is not None:
            self.engine._obs.event(
                "engine.fault_recovery", category="engine", age=task.age
            )
        for other in self.active:
            if other.age >= task.age:
                self._squash_restart(other, fault=True)

    # ------------------------------------------------------------------
    # post-hoc transfer and violation detection
    # ------------------------------------------------------------------
    def _transfer(self, task: _BatchTask) -> None:
        """Install the attempt's logs into its segment buffer.

        A refusal (capacity overflow, possibly fault-shrunk) stalls the
        task with its partial buffer kept -- the interleaved stall
        contract -- until it is oldest and resolves via the fallback.
        """
        wlog = task.wlog
        ok = self.engine.store.transfer(
            task.buffer,
            task.rlog.keys(),
            [(addr, wlog[addr]) for addr in task.swlog],
        )
        if not ok:
            self._stall(task)

    def _eager_violations(self, task: _BatchTask) -> None:
        """Age-based violation sweep over the attempt's write set.

        Only needed after restarts (younger attempts may hold values
        from the pre-restart execution) and under fault injection
        (``spurious_violation`` must keep firing); first fault-free
        executions cannot have younger readers, and commit-time
        validation catches everything else.
        """
        store = self.engine.store
        stats = self.stats
        oldest = None
        for addr in task.swlog:
            violators = store.violators(task.age, addr)
            if violators:
                stats.violations += len(violators)
                candidate = min(buffer.age for buffer in violators)
                if oldest is None or candidate < oldest:
                    oldest = candidate
        if oldest is None:
            return
        for other in self.active:
            if other.age >= oldest:
                self._squash_restart(other, by_age=task.age)

    def _validate(self, task: _BatchTask) -> bool:
        """Exact post-hoc check of every externally-served read value
        against committed memory.  The attempt is a deterministic
        function of these values (own-log serves are internal), so
        success proves its write set equals a sequential re-execution."""
        load = self.memory.load
        for addr, (value, _) in task.rlog.items():
            if load(addr) != value:
                return False
        return True

    # ------------------------------------------------------------------
    # attempt execution: flat path (no injector)
    # ------------------------------------------------------------------
    def _run_flat(self, task: _BatchTask) -> None:
        bp = self.bp
        iv = task.iv
        wlog = task.wlog
        swlog = task.swlog
        dwlog = task.dwlog
        rlog = task.rlog
        plog = task.plog
        load = self.memory.load
        address_of = self.memory.symbols.address_of
        names = bp.aff_names
        if bp.aff_base_np is not None:
            offs = (bp.aff_base_np + bp.aff_coeff_np * iv).tolist()
        elif bp.aff_base:
            offs = [b + c * iv for b, c in zip(bp.aff_base, bp.aff_coeff)]
        else:
            offs = ()
        n_spec_spec = 0
        n_priv_hit = 0
        older: List[Dict] = []
        for other in self.active:
            if other is task:
                break
            if other.executed:
                older.append(other.wlog)
        older.reverse()

        for step in bp.steps:
            if step[0] == STEP_ASSIGN:
                _, rhs_items, target_items, arith_fn, program, env, tgt = step
                values: List[float] = []
                append = values.append
                for item in rhs_items:
                    mode = item[0]
                    if mode == 1:
                        k = item[1]
                        addr = (names[k], offs[k])
                    elif mode == 0:
                        addr = item[1]
                    else:
                        name, dims = item[1]
                        try:
                            addr = address_of(
                                name, _program_subs(dims, values, iv, env)
                            )
                        except SymbolError as exc:
                            raise AddressError(str(exc)) from exc
                    code = item[2]
                    if code == 0:  # speculative
                        v = wlog.get(addr)
                        if v is not None:
                            if addr in swlog:
                                n_spec_spec += 1
                        else:
                            cached = rlog.get(addr)
                            if cached is not None:
                                v = cached[0]
                                if cached[1]:
                                    n_spec_spec += 1
                            else:
                                for owl in older:
                                    v = owl.get(addr)
                                    if v is not None:
                                        break
                                if v is not None:
                                    n_spec_spec += 1
                                    rlog[addr] = (v, True)
                                else:
                                    v = load(addr)
                                    rlog[addr] = (v, False)
                    elif code == 1:  # direct
                        v = dwlog.get(addr)
                        if v is None:
                            v = load(addr)
                    else:  # private
                        v = plog.get(addr)
                        if v is not None:
                            n_priv_hit += 1
                        else:
                            v = load(addr)
                    append(v)
                if arith_fn is not None:
                    try:
                        rhs_value = arith_fn(values, iv, env)
                    except _ARITH_FALLBACK_ERRORS:
                        rhs_value = _eval_arith(program, values, iv, env)
                else:
                    rhs_value = _eval_arith(program, values, iv, env)
                for item in target_items:
                    mode = item[0]
                    if mode == 1:
                        k = item[1]
                        addr = (names[k], offs[k])
                    elif mode == 0:
                        addr = item[1]
                    else:
                        name, dims = item[1]
                        try:
                            addr = address_of(
                                name, _program_subs(dims, values, iv, env)
                            )
                        except SymbolError as exc:
                            raise AddressError(str(exc)) from exc
                    code = item[2]
                    if code == 0:
                        v = wlog.get(addr)
                        if v is not None:
                            if addr in swlog:
                                n_spec_spec += 1
                        else:
                            cached = rlog.get(addr)
                            if cached is not None:
                                v = cached[0]
                                if cached[1]:
                                    n_spec_spec += 1
                            else:
                                for owl in older:
                                    v = owl.get(addr)
                                    if v is not None:
                                        break
                                if v is not None:
                                    n_spec_spec += 1
                                    rlog[addr] = (v, True)
                                else:
                                    v = load(addr)
                                    rlog[addr] = (v, False)
                    elif code == 1:
                        v = dwlog.get(addr)
                        if v is None:
                            v = load(addr)
                    else:
                        v = plog.get(addr)
                        if v is not None:
                            n_priv_hit += 1
                        else:
                            v = load(addr)
                    append(v)
                mode = tgt[0]
                if mode == 1:
                    k = tgt[1]
                    addr = (names[k], offs[k])
                elif mode == 0:
                    addr = tgt[1]
                else:
                    name, dims = tgt[1]
                    try:
                        addr = address_of(
                            name, _program_subs(dims, values, iv, env)
                        )
                    except SymbolError as exc:
                        raise AddressError(str(exc)) from exc
                value = float(rhs_value)
                code = tgt[2]
                if code == 0:
                    wlog[addr] = value
                    swlog[addr] = None
                elif code == 1:
                    wlog[addr] = value
                    dwlog[addr] = value
                else:
                    plog[addr] = value
            else:  # STEP_CTRL
                _, addr, code, expected, variable = step
                if code == 0:
                    v = wlog.get(addr)
                    if v is not None:
                        if addr in swlog:
                            n_spec_spec += 1
                    else:
                        cached = rlog.get(addr)
                        if cached is not None:
                            v = cached[0]
                            if cached[1]:
                                n_spec_spec += 1
                        else:
                            for owl in older:
                                v = owl.get(addr)
                                if v is not None:
                                    break
                            if v is not None:
                                n_spec_spec += 1
                                rlog[addr] = (v, True)
                            else:
                                v = load(addr)
                                rlog[addr] = (v, False)
                elif code == 1:
                    v = dwlog.get(addr)
                    if v is None:
                        v = load(addr)
                else:
                    v = plog.get(addr)
                    if v is not None:
                        n_priv_hit += 1
                    else:
                        v = load(addr)
                if v != expected:
                    raise SimulationError(
                        f"trace replay divergence in region "
                        f"{bp.trace.region!r}: control read {variable!r} "
                        f"returned {v!r}, recorded {expected!r}"
                    )

        task.n_spec_spec = n_spec_spec
        task.n_priv_hit = n_priv_hit
        self._apply_attempt_stats(task)

    def _apply_attempt_stats(self, task: _BatchTask) -> None:
        """Bulk accounting for one flat attempt (what the interleaved
        scheduler accumulates per op)."""
        bp = self.bp
        stats = self.stats
        engine = self.engine
        reads_by_route = bp.reads_by_route
        writes_by_route = bp.writes_by_route
        stats.reads += bp.n_reads
        stats.writes += bp.n_writes
        stats.speculative_accesses += reads_by_route[0] + writes_by_route[0]
        stats.idempotent_accesses += reads_by_route[1] + writes_by_route[1]
        stats.private_accesses += reads_by_route[2] + writes_by_route[2]
        counts = stats.reference_counts
        for uid, n in bp.ref_counts.items():
            counts[uid] = counts.get(uid, 0) + n
        recorder = engine._recorder
        if recorder is not None:
            compute = bp.weighted_compute(recorder.cost)
        else:
            compute = bp.default_compute
        task.cycles += compute
        stats.cycles += compute
        stats.batched_attempts += 1
        stats.batched_ops += bp.batched_ops
        stats.batch_log_entries += (
            len(task.wlog) + len(task.rlog) + len(task.plog)
        )
        if recorder is not None:
            from repro.runtime.engines import ROUTE_PRIVATE, ROUTE_SPECULATIVE

            priced = recorder.cost.batch_cost(
                compute,
                reads={
                    ROUTE_SPECULATIVE: task.n_spec_spec,
                    ROUTE_PRIVATE: task.n_priv_hit,
                    None: bp.n_reads - task.n_spec_spec - task.n_priv_hit,
                },
                writes={
                    ROUTE_SPECULATIVE: writes_by_route[0],
                    ROUTE_PRIVATE: writes_by_route[2],
                    None: writes_by_route[1],
                },
            )
            recorder.batched(task.age, priced)

    # ------------------------------------------------------------------
    # attempt execution: driver path (fault injector attached)
    # ------------------------------------------------------------------
    def _run_driver(self, task: _BatchTask) -> None:
        """Pump the replayed attempt op-by-op through the fault hooks.

        Same serving discipline as the flat path, but every operation
        passes ``injector.perturb_op`` and forwarded serves go through
        ``store.forward`` so ``corrupt_forward`` can fire and poison the
        consuming buffer.  Stats accrue per op (a faulted attempt's
        partial work must count, as in the interleaved scheduler).
        """
        engine = self.engine
        injector = engine._injector
        store = engine.store
        stats = self.stats
        recorder = engine._recorder
        memory = self.memory
        load = memory.load
        address_of = memory.symbols.address_of
        iv = task.iv
        wlog = task.wlog
        swlog = task.swlog
        dwlog = task.dwlog
        rlog = task.rlog
        plog = task.plog
        older: List[_BatchTask] = []
        for other in self.active:
            if other is task:
                break
            if other.executed:
                older.append(other)
        older.reverse()

        from repro.runtime.engines import (
            ROUTE_DIRECT,
            ROUTE_PRIVATE,
            ROUTE_SPECULATIVE,
        )

        route_of = engine._routes.get
        ops = 0
        coroutine = replay_segment(self.bp.trace, iv)
        try:
            op = coroutine.send(None)
            while True:
                op = injector.perturb_op(op)
                ops += 1
                cls = type(op)
                if cls is ComputeOp:
                    task.cycles += op.cycles
                    stats.cycles += op.cycles
                    if recorder is not None:
                        recorder.op(task.age, "compute", op.cycles, None)
                    op = coroutine.send(None)
                    continue
                try:
                    address = address_of(op.variable, op.subscripts)
                except SymbolError as exc:
                    raise AddressError(str(exc)) from exc
                ref = op.ref
                route = (
                    route_of(ref.uid, ROUTE_SPECULATIVE)
                    if ref is not None
                    else ROUTE_SPECULATIVE
                )
                if cls is ReadOp:
                    served = route
                    if route is ROUTE_PRIVATE:
                        value = plog.get(address)
                        if value is None:
                            value = load(address)
                            served = None
                        else:
                            task.n_priv_hit += 1
                        stats.private_accesses += 1
                    elif route is ROUTE_DIRECT:
                        value = dwlog.get(address)
                        if value is None:
                            value = load(address)
                        stats.idempotent_accesses += 1
                    else:
                        value = wlog.get(address)
                        if value is not None:
                            if address not in swlog:
                                served = None
                        else:
                            cached = rlog.get(address)
                            if cached is not None:
                                value = cached[0]
                                if not cached[1]:
                                    served = None
                            else:
                                holder = None
                                for other in older:
                                    value = other.wlog.get(address)
                                    if value is not None:
                                        holder = other
                                        break
                                if value is not None:
                                    if (
                                        holder.buffer is not None
                                        and holder.buffer.holds(address)
                                    ):
                                        # Route the serve through the
                                        # store so corrupt_forward can
                                        # fire (it poisons task.buffer
                                        # for the scrub).  The nearest
                                        # older value-holding buffer is
                                        # the holder, so the value only
                                        # differs when corrupted.
                                        forwarded = store.forward(
                                            task.buffer, address
                                        )
                                        if forwarded is not None:
                                            value = forwarded
                                    rlog[address] = (value, True)
                                else:
                                    value = load(address)
                                    rlog[address] = (value, False)
                                    served = None
                        if served is not None and value is not None:
                            task.n_spec_spec += 1
                        stats.speculative_accesses += 1
                    stats.reads += 1
                    if ref is not None:
                        stats.count_reference(ref.uid)
                    if recorder is not None:
                        recorder.op(task.age, "read", 0, served)
                    op = coroutine.send(value)
                else:  # WriteOp
                    value = float(op.value)
                    if route is ROUTE_PRIVATE:
                        plog[address] = value
                        stats.private_accesses += 1
                    elif route is ROUTE_DIRECT:
                        wlog[address] = value
                        dwlog[address] = value
                        stats.idempotent_accesses += 1
                    else:
                        wlog[address] = value
                        swlog[address] = None
                        stats.speculative_accesses += 1
                    stats.writes += 1
                    if ref is not None:
                        stats.count_reference(ref.uid)
                    if recorder is not None:
                        recorder.op(task.age, "write", 0, route)
                    op = coroutine.send(None)
        except StopIteration:
            pass
        stats.batched_attempts += 1
        stats.batched_ops += ops
        stats.batch_log_entries += len(wlog) + len(rlog) + len(plog)

    # ------------------------------------------------------------------
    # head fallback: overflow drain / write-through re-execution
    # ------------------------------------------------------------------
    def _resolve_stalled_head(self, head: _BatchTask) -> None:
        """The oldest attempt overflowed its buffer during transfer.

        Its logs are complete (only the transfer stalled), so when they
        still validate the buffer simply drains early -- the interleaved
        write-through contract, minus the re-execution.  Stale logs are
        squashed and the attempt re-executes in write-through mode
        against committed memory.
        """
        engine = self.engine
        stats = self.stats
        memory = self.memory
        stats.batch_fallbacks += 1
        if self._validate(head):
            stats.overflow_entries += head.buffer.entries
            drained = engine.store.commit(head.buffer, memory)
            stats.commit_entries += drained
            head.buffer = None
            head.stalled = False
            if engine._recorder is not None:
                engine._recorder.drained(head.age, drained)
            if engine._obs is not None:
                engine._obs.event(
                    "engine.drain",
                    category="engine",
                    age=head.age,
                    entries=drained,
                )
            self._commit(head, drained=True)
            return
        stats.batch_violations += 1
        stats.violations += 1
        self._squash_restart(head)
        self._run_write_through(head)
        head.executed = True
        self._commit(head, drained=True)

    def _run_write_through(self, head: _BatchTask) -> None:
        """Re-execute the oldest attempt non-speculatively.

        Reads and writes go straight to memory (private references keep
        their frame); an injected fault here raises -- earlier writes
        already reached memory, so local re-execution would double-apply
        them, exactly the interleaved engine's write-through policy.
        """
        engine = self.engine
        injector = engine._injector
        stats = self.stats
        recorder = engine._recorder
        memory = self.memory
        load = memory.load
        store_value = memory.store
        address_of = memory.symbols.address_of
        plog = head.plog

        from repro.runtime.engines import ROUTE_DIRECT, ROUTE_PRIVATE, ROUTE_SPECULATIVE

        route_of = engine._routes.get
        ops = 0
        coroutine = replay_segment(self.bp.trace, head.iv)
        try:
            op = coroutine.send(None)
            while True:
                if injector is not None:
                    op = injector.perturb_op(op)
                ops += 1
                cls = type(op)
                if cls is ComputeOp:
                    head.cycles += op.cycles
                    stats.cycles += op.cycles
                    if recorder is not None:
                        recorder.op(head.age, "compute", op.cycles, None)
                    op = coroutine.send(None)
                    continue
                try:
                    address = address_of(op.variable, op.subscripts)
                except SymbolError as exc:
                    raise AddressError(str(exc)) from exc
                ref = op.ref
                route = (
                    route_of(ref.uid, ROUTE_SPECULATIVE)
                    if ref is not None
                    else ROUTE_SPECULATIVE
                )
                if cls is ReadOp:
                    served = route
                    if route is ROUTE_PRIVATE:
                        value = plog.get(address)
                        if value is None:
                            value = load(address)
                            served = None
                        else:
                            head.n_priv_hit += 1
                        stats.private_accesses += 1
                    elif route is ROUTE_DIRECT:
                        value = load(address)
                        stats.idempotent_accesses += 1
                    else:
                        value = load(address)
                        served = None
                        stats.speculative_accesses += 1
                    stats.reads += 1
                    if ref is not None:
                        stats.count_reference(ref.uid)
                    if recorder is not None:
                        recorder.op(head.age, "read", 0, served)
                    op = coroutine.send(value)
                else:  # WriteOp
                    served = route
                    if route is ROUTE_PRIVATE:
                        plog[address] = float(op.value)
                        stats.private_accesses += 1
                    else:
                        store_value(address, op.value)
                        if route is ROUTE_DIRECT:
                            stats.idempotent_accesses += 1
                        else:
                            stats.speculative_accesses += 1
                            served = None
                    stats.writes += 1
                    if ref is not None:
                        stats.count_reference(ref.uid)
                    if recorder is not None:
                        recorder.op(head.age, "write", 0, served)
                    op = coroutine.send(None)
        except StopIteration:
            pass
        stats.batched_attempts += 1
        stats.batched_ops += ops
        stats.batch_log_entries += len(plog)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------
    def _commit(self, head: _BatchTask, drained: bool = False) -> None:
        engine = self.engine
        stats = self.stats
        memory = self.memory
        store_value = memory.store
        entries = 0
        if head.buffer is not None:
            entries = engine.store.commit(head.buffer, memory)
            stats.commit_entries += entries
            head.buffer = None
        # The write log covers direct-route writes (which only exist in
        # the log until commit) and re-covers the buffered values with
        # the same program-order final values; a write-through fallback
        # leaves the log empty, so only the private frame remains.
        for address, value in head.wlog.items():
            store_value(address, value)
        for address, value in head.plog.items():
            store_value(address, value)
        stats.segments_committed += 1
        engine._committed_age = head.age
        engine._rounds_since_commit = 0
        if engine._recorder is not None:
            engine._recorder.committed(head.age, entries + len(head.plog))
        if engine._obs is not None:
            engine._obs.event(
                "engine.commit",
                category="engine",
                age=head.age,
                entries=entries + len(head.plog),
            )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        """Execute and transfer every pending attempt, oldest first."""
        engine = self.engine
        stats = self.stats
        active = self.active
        self._scrub_poisoned()
        engine._rounds_since_commit += 1
        if (
            engine.watchdog_rounds is not None
            and engine._rounds_since_commit > engine.watchdog_rounds
        ):
            raise EngineLivelockError(
                f"no segment committed in {engine.watchdog_rounds} "
                f"scheduling rounds; the engine is not making progress"
            )
        run_driver = engine._injector is not None
        for task in list(active):
            if task.stalled:
                if active and task is not active[0]:
                    stats.stall_rounds += 1
                continue
            if task.executed:
                continue
            try:
                if run_driver:
                    self._run_driver(task)
                else:
                    self._run_flat(task)
            except (FaultInjected, AddressError):
                if engine._injector is None:
                    raise
                self._fault_recover(task)
                break
            task.executed = True
            self._transfer(task)
            if not task.stalled and (run_driver or task.restarts > 0):
                self._eager_violations(task)
        self._scrub_poisoned()
        if engine.auditor is not None:
            engine.auditor.audit(
                engine.store, engine._committed_age, region=self.region.name
            )

    def _commit_phase(self) -> None:
        active = self.active
        stats = self.stats
        while active:
            self._scrub_poisoned()
            head = active[0]
            if not head.executed:
                break  # restarted; needs another sweep
            if head.stalled:
                self._resolve_stalled_head(head)
            elif not self._validate(head):
                stats.batch_violations += 1
                stats.violations += 1
                self._squash_restart(head)
                break
            else:
                self._commit(head)
            active.pop(0)
            self._refill()

    def run(self) -> None:
        self._refill()
        while self.active:
            self._sweep()
            self._commit_phase()


# ----------------------------------------------------------------------
# engine entry point
# ----------------------------------------------------------------------
def _prepare(region: LoopRegion, routes: Dict[str, str], memory: MemoryImage):
    """Record and compile ``region`` for batching; None = ineligible."""
    eligible, _reason = trace_eligibility(region)
    if not eligible:
        return None
    try:
        trace = record_trace(region, memory.read)
    except TraceError:
        return None
    try:
        return build_batch_program(region, trace, routes, memory.symbols)
    except _BuildError:
        return None


def try_run_batched(
    engine,
    region: LoopRegion,
    memory: MemoryImage,
    stats: ExecutionStats,
    lower: int,
    upper: int,
    step: int,
) -> bool:
    """Run ``region`` under the batched protocol if it is eligible.

    Returns ``False`` when the region cannot be batched (the caller
    falls back to the op-interleaved scheduler); ``True`` means the
    region executed (or had no iterations) and its effects are in
    ``memory`` / ``stats``.
    """
    cache = engine._batch_programs
    name = region.name
    if name in cache:
        bp = cache[name]
    else:
        bp = _prepare(region, engine._routes, memory)
        cache[name] = bp
    if bp is None:
        return False
    if step > 0:
        count = 0 if lower > upper else (upper - lower) // step + 1
    else:
        count = 0 if lower < upper else (lower - upper) // (-step) + 1
    if count == 0:
        return True
    last = lower + (count - 1) * step
    if not bp.bounds_ok(lower, last):
        # Out-of-range subscripts must fail exactly like the
        # interleaved path (mid-run AddressError with partial state).
        return False
    scheduler = _BatchScheduler(
        engine, bp, region, memory, stats, lower, upper, step
    )
    obs = engine._obs
    if obs is not None:
        with obs.span(
            "engine.batch",
            category="engine",
            region=name,
            engine=engine.engine_name,
            tasks=count,
            ops_per_attempt=bp.batched_ops,
        ):
            scheduler.run()
    else:
        scheduler.run()
    return True
