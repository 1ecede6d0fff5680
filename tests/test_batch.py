"""Batched speculative replay tests (``repro.runtime.batch``).

The acceptance bar mirrors the engine suite: with ``batch=True`` the
engines must produce final memory states bit-identical to the
sequential interpreter on every workload family -- fault-free across
windows and capacities (including capacities tight enough to force the
transfer-stall / drain-or-squash fallback).  Under every fault kind
of the resilience layer a ``batch=True`` run steps every attempt
through the op-stepped executor instead.  Only the *memory* contract
is bit-identical; the batched protocol's micro-dynamics
(violation/stall counters) differ from op-interleaving.
"""

import gc
import types
import weakref

import pytest

from repro.bench.workloads import FAMILIES, generate
from repro.corpus.generator import corpus
from repro.ir.dsl import parse_program
from repro.ir.program import Program
from repro.resilience.faults import FAULT_KINDS, FaultPlan
from repro.resilience.harness import run_resilient
from repro.runtime import batch as batch_mod
from repro.runtime import trace as trace_mod
from repro.runtime.engines import (
    ROUTE_DIRECT,
    ROUTE_PRIVATE,
    ROUTE_SPECULATIVE,
    CASEEngine,
    HOSEEngine,
)
from repro.runtime.executor import ReadOp, WriteOp
from repro.runtime.interpreter import run_program
from repro.runtime.trace import replay_segment
from repro.timing.events import TimingRecorder

SIZE = 12
STATEMENTS = 2

ENGINES = (HOSEEngine, CASEEngine)


def run_batched(program, engine_cls, sequential=None, **kwargs):
    """Run with batching on, assert bit-identity, return the result."""
    if sequential is None:
        sequential = run_program(program)
    result = engine_cls(program, batch=True, **kwargs).run()
    assert not result.degraded, (
        f"{engine_cls.engine_name} degraded ({kwargs}): "
        f"{result.degradation}"
    )
    diffs = sequential.memory.differences(result.memory, tolerance=0.0)
    assert diffs == {}, (
        f"{engine_cls.engine_name} batched diverged "
        f"({kwargs}): {sorted(diffs.items())[:5]}"
    )
    return result


class TestBatchedEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("capacity", [64, None])
    def test_bit_identical_to_sequential(
        self, family, engine_cls, window, capacity
    ):
        program = generate(family, SIZE, STATEMENTS).program
        result = run_batched(
            program, engine_cls, window=window, capacity=capacity
        )
        # The batched path must actually have run, not silently fallen
        # back to op-interleaving.
        assert result.stats.batched_attempts > 0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batched_matches_interleaved_memory(self, family):
        program = generate(family, SIZE, STATEMENTS).program
        interleaved = CASEEngine(program, window=4, capacity=64).run()
        batched = run_batched(program, CASEEngine, window=4, capacity=64)
        assert interleaved.memory.differences(
            batched.memory, tolerance=0.0
        ) == {}

    def test_fault_free_batch_has_no_violations(self):
        # Batched tasks execute in age order against finalized older
        # write logs, so a fault-free run validates without violating.
        program = generate("reduction", SIZE, STATEMENTS).program
        result = run_batched(program, HOSEEngine, window=4, capacity=64)
        assert result.stats.batch_violations == 0
        assert result.stats.batch_fallbacks == 0


class TestBatchFallback:
    # CASE labels route reduction's references around the speculative
    # buffer entirely, so its capacity pressure needs a family with
    # real cross-segment speculative traffic.
    @pytest.mark.parametrize(
        "engine_cls,family",
        [(HOSEEngine, "reduction"), (CASEEngine, "stencil")],
    )
    @pytest.mark.parametrize("capacity", [1, 2, 4])
    def test_tiny_capacity_falls_back_bit_identically(
        self, engine_cls, family, capacity
    ):
        # Capacities below the attempt's footprint refuse the bulk
        # transfer: the head stalls, then drains (or squashes into the
        # write-through path).  Memory must stay bit-identical.
        program = generate(family, SIZE, STATEMENTS).program
        result = run_batched(
            program, engine_cls, window=4, capacity=capacity
        )
        assert result.stats.batch_fallbacks > 0
        assert result.stats.overflow_stalls > 0

    def test_op_budget_disables_batching(self):
        # A per-segment op budget needs op granularity, so the engine
        # must stay on the interleaved path (budget high enough that
        # nothing trips; batching alone is what is under test).
        program = generate("reduction", SIZE, STATEMENTS).program
        sequential = run_program(program)
        result = CASEEngine(
            program, window=4, capacity=64, batch=True, op_budget=100_000
        ).run()
        assert result.stats.batched_attempts == 0
        assert sequential.memory.differences(
            result.memory, tolerance=0.0
        ) == {}

    def test_batch_off_by_default(self):
        program = generate("reduction", SIZE, STATEMENTS).program
        result = CASEEngine(program, window=4, capacity=64).run()
        assert result.stats.batched_attempts == 0


class TestBatchedChaos:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_injected_runs_step_every_attempt(self, kind, engine):
        # Compiled attempts never call the store mid-attempt, so with an
        # injector attached every attempt steps through the engine's
        # op-stepped executor, ``batch=True`` or not.
        program = generate("sparse", 8, STATEMENTS).program
        sequential = run_program(program)
        result = run_resilient(
            program,
            engine=engine,
            plan=FaultPlan.single(kind, 0.2),
            seed=3,
            window=4,
            capacity=16,
            max_restarts=50,
            watchdog_rounds=5_000,
            batch=True,
        )
        # Recovered in place or degraded gracefully -- either way the
        # final state is the sequential one.
        assert sequential.memory.differences(
            result.memory, tolerance=0.0
        ) == {}
        assert result.stats.batched_attempts == 0


class TestBatchedTiming:
    def test_recorder_attached_stays_bit_identical(self):
        from repro.timing.events import TimingRecorder

        program = generate("stencil", 10, STATEMENTS).program
        recorder = TimingRecorder()
        result = run_batched(
            program, CASEEngine, window=4, capacity=64, recorder=recorder
        )
        assert result.stats.batched_attempts > 0
        summary = recorder.recording().summary()
        assert summary["committed_segments"] > 0
        assert summary["busy_cycles"] > 0


class TestBatchCounters:
    def test_counters_surface_in_stats_dict(self):
        program = generate("guarded", SIZE, STATEMENTS).program
        result = run_batched(program, CASEEngine, window=4, capacity=64)
        snapshot = result.stats.as_dict()
        for key in (
            "batched_attempts",
            "batched_ops",
            "batch_fallbacks",
            "batch_violations",
            "batch_log_entries",
        ):
            assert key in snapshot
        assert snapshot["batched_attempts"] > 0
        assert snapshot["batched_ops"] > 0
        assert snapshot["batch_log_entries"] > 0


def memoized_programs(region):
    """Route key -> memoized BatchProgram of ``region``."""
    return dict(batch_mod._MEMO[region])


#: The serve-mix stencil source (size 24, four statements).
MIX_STENCIL = """
program mix_stencil
  real a(24, 24) = 1.5
  region STENCIL do j = 2, 23
    do i = 2, 23
      a(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
      a(i, j) = 0.26 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
      a(i, j) = 0.27 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
      a(i, j) = 0.28 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
    liveout a
  end region
end program
"""

#: A region whose inner loop bound is a read-only scalar: its trace
#: records a control read of ``n``.
CONTROL_SCALAR = """
program control_scalar
  integer n = 4
  real a(8, 16)
  {init}
  region R do k = 1, 16
    do i = 1, n
      a(i, k) = a(i, k) + i * k
    end do
    liveout a
  end region
end program
"""


#: Every address mode and route of a compiled step: a private
#: temporary, a control read, gathers through non-integral values
#: (rounded), computed subscripts on both sides, a target-subscript
#: read and a plain copy (no generated arithmetic closure).
ROUTES = """
program routes
  integer n = 3
  real x(40) = 1.25, y(40), z(40), w(40) = 2.6
  real t
  region R do k = 2, 16
    t = x(k) * 2
    do i = 1, n
      y(k) = y(k) + t * i + x(w(k) + i) + x(w(k))
    end do
    z(k) = x(k)
    z(mod(k, 7) + 20) = t
    y(w(k) + 30) = t + y(k - 1)
    liveout y, z
  end region
end program
"""


#: Promotion's edge cases.  Not promoted, each with an address that
#: another form of it reaches in the same attempt: a gather write into
#: an otherwise affine variable (y), one variable under two affine
#: coefficients (u: ``2*k - 2`` is ``k`` at k = 2), fixed and affine
#: accesses to one variable (z: ``z(3)`` is ``z(k)`` at k = 3).
#: Promoted: a private read-after-write (t), writes that are both first
#: and last (w, t, e), and, with the routes :class:`_ForcedRoutes`
#: forces, a speculative read after a direct write (h) and a direct
#: read after a speculative write (g).
EDGES = """
program edges
  real x(40) = 1.5, y(40), z(40) = 0.5, u(40) = 2.0
  real h(40), g(40), f(40), m(40), e(40)
  integer w(40)
  real t
  region R do k = 2, 16
    w(k) = k
    y(w(k)) = x(k)
    y(k) = y(k) + y(k-1)
    u(k) = u(k + 1) * 0.5
    z(k) = u(2 * k - 2) + z(k)
    t = x(k) * 2
    do i = 1, 2
      h(k) = t + i
      f(k) = h(k) * 2 + f(k)
      g(k) = t - i
      m(k) = g(k) + 1
    end do
    e(k) = z(3) + t * 3
    liveout y, z, u, f, m, e
  end region
end program
"""


class _ForcedRoutes(CASEEngine):
    """CASE with h written directly and read speculatively, and g the
    other way round.  The labels are unsound, so the final memory is not
    the sequential one, but any route map is valid input for the two
    attempt executors, and they must agree on it."""

    def _routes_for(self, region, result):
        routes = super()._routes_for(region, result)
        for ref in region.references:
            if ref.variable in ("h", "g"):
                if ref.is_write == (ref.variable == "h"):
                    routes[ref.uid] = ROUTE_DIRECT
                else:
                    routes.pop(ref.uid, None)
        return routes


#: x overflows to inf, so y's exposed read of y(k-1) is NaN (inf - inf).
NAN_READ = """
program nan_read
  real x(16) = 1.0, y(16)
  region R do k = 2, 16
    x(k) = x(k-1) * 1e300
    y(k) = x(k) - x(k) + y(k-1)
    liveout x, y
  end region
end program
"""

#: The trace records a control read of a NaN scalar.
NAN_CONTROL = """
program nan_control
  real s = nan
  real a(8)
  region R do k = 1, 8
    if (s > 0) a(k) = 1
    liveout a
  end region
end program
"""


class TestNaNValues:
    """A NaN never equals itself, so every value check treats NaN as
    equal to NaN, as ``MemoryImage.differences`` does."""

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_nan_exposed_read_validates(self, engine_cls):
        # With ``!=``, validation failed every segment with a NaN read
        # until the restart budget degraded the run.
        program = parse_program(NAN_READ)
        result = run_batched(program, engine_cls, window=4, capacity=64)
        assert result.stats.batch_violations == 0
        assert result.stats.batched_attempts == 15

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_nan_control_read_replays_and_stays_memoized(
        self, engine_cls, monkeypatch
    ):
        # The replayed control check raised "returned nan, recorded nan"
        # (sequentially too), and the memo never matched again.
        recorded = []
        record = trace_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(region.name)
            return record(region, resolve, read_only)

        monkeypatch.setattr(trace_mod, "record_trace", counted)
        program = parse_program(NAN_CONTROL)
        for _ in range(2):
            result = run_batched(program, engine_cls, window=4, capacity=64)
            assert result.stats.batched_attempts == 8
        assert recorded == ["R"]

    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_simulate_answers_nan_programs(self, engine):
        # Through the daemon: a degraded answer after seconds of
        # restarts, and an internal error (-32603).
        from repro.serve.dispatch import Dispatcher
        from repro.serve.protocol import Request

        dispatcher = Dispatcher()
        for source in (NAN_READ, NAN_CONTROL):
            response = dispatcher.dispatch(
                Request(
                    method="simulate",
                    params={"dsl": source, "engine": engine},
                    id=1,
                )
            )
            result = response["result"]
            assert result["bit_identical"] is True
            assert result["degraded"] is False


class TestBatchProgramMemo:
    def test_second_run_records_no_trace(self, monkeypatch):
        program = generate("stencil", SIZE, STATEMENTS).program
        sequential = run_program(program)
        recorded = []
        record = trace_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(region.name)
            return record(region, resolve, read_only)

        monkeypatch.setattr(trace_mod, "record_trace", counted)
        # The sequential run above recorded every region's trace, and
        # the batched runs compile that shared trace: neither records.
        first = run_batched(program, CASEEngine, sequential, capacity=8)
        assert recorded == []
        second = run_batched(program, CASEEngine, sequential, capacity=8)
        assert recorded == []
        assert second.stats.batched_attempts > 0
        assert second.stats.as_dict() == first.stats.as_dict()

    def test_hose_and_case_hold_separate_programs(self):
        program = generate("reduction", SIZE, STATEMENTS).program
        run_batched(program, HOSEEngine)
        run_batched(program, CASEEngine)
        programs = memoized_programs(program.regions[0])
        assert len(programs) == 2
        hose = programs.pop(frozenset())
        (case,) = programs.values()
        assert hose is not case
        assert hose.reads_by_route[batch_mod.R_SPEC] == hose.n_reads
        assert case.reads_by_route[batch_mod.R_DIRECT] > 0

    def test_interner_eviction_frees_the_batch_program(self):
        from repro.serve.dispatch import Dispatcher
        from repro.serve.protocol import Request

        dispatcher = Dispatcher(max_programs=1)
        source = CONTROL_SCALAR.format(init="")
        response = dispatcher.dispatch(
            Request(method="simulate", params={"dsl": source}, id=1)
        )
        assert response["result"]["bit_identical"] is True
        region = dispatcher.resolve_program({"dsl": source}).regions[0]
        (bp,) = memoized_programs(region).values()
        alive = weakref.ref(bp)
        del bp, region
        gc.collect()
        assert alive() is not None  # still interned
        dispatcher.dispatch(
            Request(method="analyze", params={"dsl": MIX_STENCIL}, id=2)
        )
        gc.collect()
        assert alive() is None

    def test_changed_control_scalar_rerecords(self, monkeypatch):
        recorded = []
        record = trace_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(resolve("n"))
            return record(region, resolve, read_only)

        monkeypatch.setattr(trace_mod, "record_trace", counted)
        first = parse_program(CONTROL_SCALAR.format(init=""))
        run_batched(first, CASEEngine)
        # Same region and symbol table, but n is 6 when the region runs:
        # the memoized schedule unrolled the inner loop 4 times.
        init = parse_program(
            CONTROL_SCALAR.format(init="init\n    n = 6\n  end init")
        ).init
        second = Program(
            "control_scalar6",
            symbols=first.symbols,
            init=init,
            regions=first.regions,
        )
        result = run_batched(second, CASEEngine)
        assert result.stats.batched_attempts == 16
        assert recorded == [4.0, 6.0]
        run_batched(second, CASEEngine)
        assert recorded == [4.0, 6.0]

    def test_every_executor_shares_one_recording(self, monkeypatch):
        recorded = []
        record = trace_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(region.name)
            return record(region, resolve, read_only)

        monkeypatch.setattr(trace_mod, "record_trace", counted)
        program = generate("guarded", SIZE, STATEMENTS).program
        sequential = run_program(program)
        for engine_cls in ENGINES:
            stepped = engine_cls(program, window=4, capacity=8).run()
            assert stepped.replay_reasons == sequential.replay_reasons
        batched = run_batched(program, CASEEngine, sequential, capacity=8)
        assert batched.stats.batched_attempts > 0
        assert recorded == [region.name for region in program.regions]

    def test_op_stepped_run_rerecords_a_changed_control_scalar(
        self, monkeypatch
    ):
        first = parse_program(CONTROL_SCALAR.format(init=""))
        run_program(first)  # memoizes the schedule of n = 4
        recorded = []
        record = trace_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(resolve("n"))
            return record(region, resolve, read_only)

        monkeypatch.setattr(trace_mod, "record_trace", counted)
        init = parse_program(
            CONTROL_SCALAR.format(init="init\n    n = 6\n  end init")
        ).init
        second = Program(
            "control_scalar6",
            symbols=first.symbols,
            init=init,
            regions=first.regions,
        )
        # Replaying the n = 4 schedule would raise "trace replay
        # divergence" on the first control read.
        result = HOSEEngine(second, window=4, capacity=8, fallback=False).run()
        assert result.replay_reasons["R"] == "replayed"
        assert recorded == [6.0]
        sequential = run_program(second)
        assert sequential.memory.differences(result.memory, tolerance=0.0) == {}


class TestFallbackReasons:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_fallbacks_are_drains_plus_reexecutions(self, family, engine_cls):
        program = generate(family, SIZE, STATEMENTS).program
        stats = run_batched(program, engine_cls, window=4, capacity=8).stats
        assert stats.batch_fallbacks == (
            stats.batch_drains + stats.batch_reexecutions
        )

    def test_serve_mix_stencil_drains_every_fallback(self):
        # CASE at capacity 8 overflows on all 22 attempts; each
        # overflowed head's logs still validate against memory, so all
        # 22 fallbacks drain and none re-executes.
        program = parse_program(MIX_STENCIL)
        stats = run_batched(program, CASEEngine, window=4, capacity=8).stats
        assert stats.batched_attempts == 22
        assert stats.batch_fallbacks == 22
        assert (stats.batch_drains, stats.batch_reexecutions) == (22, 0)

    def test_stale_head_reexecutes(self, monkeypatch):
        validate = batch_mod._BatchScheduler._validate

        def stale_when_stalled(self, task):
            return False if task.stalled else validate(self, task)

        monkeypatch.setattr(
            batch_mod._BatchScheduler, "_validate", stale_when_stalled
        )
        program = parse_program(MIX_STENCIL)
        stats = run_batched(program, CASEEngine, window=4, capacity=8).stats
        assert stats.batch_fallbacks == 22
        assert (stats.batch_drains, stats.batch_reexecutions) == (0, 22)


def step_shapes(bp):
    """The distinct step shapes of a batch program's shapes."""
    return {step for shape in bp.shapes for step in shape}


def attempt_state(task):
    """Everything a batched attempt leaves behind, in log order."""
    return (
        list(task.wlog.items()),
        list(task.swlog),
        list(task.dwlog.items()),
        list(task.rlog.items()),
        list(task.plog.items()),
        task.n_spec_spec,
        task.n_priv_hit,
    )


def oracle_attempt(scheduler, task):
    """Fault-free log oracle of one compiled attempt.

    Replays the recorded trace op by op (``replay_segment``) under the
    batched serving rule and returns the state the attempt must leave
    (:func:`attempt_state`): a speculative read serves from the
    attempt's own write log, then its read log, then the nearest older
    finished attempt's write log, then memory; a direct read sees the
    attempt's direct writes, then memory; a private read its private
    frame, then memory.
    """
    memory = scheduler.memory
    address_of = memory.symbols.address_of
    route_of = scheduler.engine._routes.get
    older = []
    for other in scheduler.active:
        if other is task:
            break
        if other.done:
            older.append(other)
    older.reverse()
    wlog, swlog, dwlog, rlog, plog = {}, {}, {}, {}, {}
    n_spec_spec = n_priv_hit = 0
    coroutine = replay_segment(scheduler.bp.trace, task.key[1])
    value = None
    while True:
        try:
            op = coroutine.send(value)
        except StopIteration:
            break
        value = None
        if type(op) not in (ReadOp, WriteOp):
            continue
        address = address_of(op.variable, op.subscripts)
        route = ROUTE_SPECULATIVE
        if op.ref is not None:
            route = route_of(op.ref.uid, ROUTE_SPECULATIVE)
        if type(op) is WriteOp:
            written = float(op.value)
            if route is ROUTE_PRIVATE:
                plog[address] = written
            else:
                wlog[address] = written
                if route is ROUTE_DIRECT:
                    dwlog[address] = written
                else:
                    swlog[address] = None
        elif route is ROUTE_PRIVATE:
            value = plog.get(address)
            if value is None:
                value = memory.load(address)
            else:
                n_priv_hit += 1
        elif route is ROUTE_DIRECT:
            value = dwlog.get(address)
            if value is None:
                value = memory.load(address)
        elif address in wlog:
            value = wlog[address]
            n_spec_spec += address in swlog
        elif address in rlog:
            value, forwarded = rlog[address]
            n_spec_spec += forwarded
        else:
            for other in older:
                value = other.wlog.get(address)
                if value is not None:
                    rlog[address] = (value, True)
                    n_spec_spec += 1
                    break
            else:
                value = memory.load(address)
                rlog[address] = (value, False)
    return (
        list(wlog.items()),
        list(swlog),
        list(dwlog.items()),
        list(rlog.items()),
        list(plog.items()),
        n_spec_spec,
        n_priv_hit,
    )


@pytest.fixture
def checked_attempts(monkeypatch):
    """Require every compiled attempt to leave the state of the log
    oracle (:func:`oracle_attempt`)."""
    compiled = batch_mod._BatchScheduler._run_compiled
    checked = []

    def both(self, task):
        expected = oracle_attempt(self, task)
        compiled(self, task)
        assert attempt_state(task) == expected
        checked.append(task.key)

    monkeypatch.setattr(batch_mod._BatchScheduler, "_run_compiled", both)
    return checked


class TestCompiledAttempt:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("capacity", [8, 64])
    def test_matches_op_stepped_replay_on_families(
        self, checked_attempts, family, engine_cls, capacity
    ):
        program = generate(family, SIZE, STATEMENTS).program
        run_batched(program, engine_cls, window=4, capacity=capacity)
        assert checked_attempts

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("capacity", [4, 64])
    def test_matches_op_stepped_replay_on_every_step_shape(
        self, checked_attempts, engine_cls, capacity
    ):
        program = parse_program(ROUTES)
        result = run_batched(program, engine_cls, window=4, capacity=capacity)
        assert len(checked_attempts) == 15
        if engine_cls is CASEEngine:
            assert result.stats.private_accesses > 0

    def test_matches_op_stepped_replay_on_fuzzed_programs(
        self, checked_attempts
    ):
        for _, program in corpus(40, 20261017):
            sequential = run_program(program)
            for engine_cls in ENGINES:
                run_batched(
                    program, engine_cls, sequential, window=4, capacity=8
                )
        assert len(checked_attempts) > 100

    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("capacity", [8, 64])
    def test_promotes_the_serve_mix_stencil(
        self, checked_attempts, engine_cls, capacity
    ):
        program = parse_program(MIX_STENCIL)
        run_batched(program, engine_cls, window=4, capacity=capacity)
        assert len(checked_attempts) >= 22
        (bp,) = memoized_programs(program.regions[0]).values()
        assert bp.promoted == {"a"}
        items = [
            item
            for step in step_shapes(bp)
            for item in (*step[1], *step[3], step[4])
        ]
        # Re-reads come from registers, first touches skip the own
        # logs, and the four statements share step shapes across
        # constants; the unrolled inner loop runs as a few repeats.
        assert ("reg", "") in items
        assert any(item[0] == "first" for item in items)
        assert any(item[0] == "set" and not item[2] for item in items)
        assert len(step_shapes(bp)) < 10
        assert len(bp.runs) < 10

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("capacity", [4, 64])
    def test_matches_op_stepped_replay_on_promotion_edge_cases(
        self, checked_attempts, window, capacity
    ):
        program = parse_program(EDGES)
        result = _ForcedRoutes(
            program, window=window, capacity=capacity, batch=True
        ).run()
        assert not result.degraded
        assert len(checked_attempts) >= 15
        (bp,) = memoized_programs(program.regions[0]).values()
        assert not bp.promoted & {"y", "u", "z"}
        assert {"t", "h", "g", "f", "m", "e", "x", "w"} <= bp.promoted
        # The promoted steps read registers with every counter.
        items = {
            item for step in step_shapes(bp) for item in step[1] if len(item) == 2
        }
        assert items == {("reg", ""), ("reg", "ss"), ("reg", "ph")}
        # The engines with their own labels stay bit-identical.
        for engine_cls in ENGINES:
            run_batched(program, engine_cls, window=window, capacity=capacity)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_function_per_shape_at_any_size(self, family):
        shapes = []
        steps = []
        for size in (24, 128):
            program = generate(family, size, STATEMENTS).program
            run_batched(program, CASEEngine, window=4, capacity=64)
            (bp,) = memoized_programs(program.regions[0]).values()
            functions = [
                const
                for const in bp.attempt.__code__.co_consts
                if isinstance(const, types.CodeType)
            ]
            assert len(functions) == len(bp.shapes) == len(set(bp.shapes))
            shapes.append(len(bp.shapes))
            steps.append(bp.n_steps)
        assert shapes[0] == shapes[1]
        assert steps[0] <= steps[1]


class TestAffineAddresses:
    """Both ways of building an attempt's affine address list (numpy
    from :data:`NUMPY_MIN_AFFINE` items on, a list comprehension below)
    give the per-item ``(name, base + coeff * iv)`` of the reference.
    Without numpy every size takes the list path."""

    @pytest.mark.parametrize("family, size, numpy", [
        ("stencil", 24, True),
        ("reduction", 24, False),
    ])
    def test_matches_reference(self, family, size, numpy):
        program = generate(family, size, 4).program
        run_batched(program, CASEEngine, window=4, capacity=64)
        (bp,) = batch_mod._MEMO[program.regions[0]].values()
        assert (len(bp.aff_names) >= batch_mod.NUMPY_MIN_AFFINE) == numpy
        assert (bp.aff_base_np is not None) == (numpy and batch_mod._np is not None)
        for iv in range(-3, size + 3):
            reference = [
                (name, base + coeff * iv)
                for name, base, coeff in zip(bp.aff_names, bp.aff_base, bp.aff_coeff)
            ]
            got = bp.affine_addresses(iv)
            assert got == reference
            assert all(type(offset) is int for _, offset in got)


class TestNumpyImportGuard:
    """Regression: the numpy guard must be narrow and must not be silent.

    The module-level ``import numpy`` used to sit behind a bare
    ``except Exception``, so an unrelated numpy-initialization error
    silently degraded every batched run to the pure-python path with no
    signal.  Now only ImportError degrades -- with a one-time structured
    warning through ``repro.obs.log`` -- and anything else propagates.
    Each test reloads the module at the end, so it leaves the numpy path
    as it found it: on where numpy imports, off where it does not.
    """

    def _reload_batch(self):
        import importlib

        import repro.runtime.batch as batch_mod

        return importlib.reload(batch_mod)

    def test_missing_numpy_degrades_with_warning(self):
        import io
        import sys
        from unittest import mock

        from repro.obs.log import configure_logging, reset_logging

        had_numpy = batch_mod._np is not None
        stream = io.StringIO()
        try:
            configure_logging(stream=stream)
            # None in sys.modules makes `import numpy` raise ImportError.
            with mock.patch.dict(sys.modules, {"numpy": None}):
                assert self._reload_batch()._np is None
        finally:
            reset_logging()
            self._reload_batch()
        assert (batch_mod._np is not None) == had_numpy
        assert "numpy unavailable" in stream.getvalue()

    def test_non_import_errors_propagate(self):
        import sys

        import pytest as _pytest

        class _ExplodingFinder:
            """Simulates numpy blowing up mid-initialization."""

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise RuntimeError("simulated numpy init failure")
                return None

        had_numpy = batch_mod._np is not None
        finder = _ExplodingFinder()
        saved_numpy = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name == "numpy" or name.startswith("numpy.")
        }
        sys.meta_path.insert(0, finder)
        try:
            with _pytest.raises(RuntimeError, match="simulated numpy"):
                self._reload_batch()
        finally:
            sys.meta_path.remove(finder)
            sys.modules.update(saved_numpy)
            self._reload_batch()
        assert (batch_mod._np is not None) == had_numpy

    def test_pure_python_path_still_bit_identical(self):
        import sys
        from unittest import mock

        from repro.obs.log import configure_logging, reset_logging
        import io

        stream = io.StringIO()
        try:
            configure_logging(stream=stream)
            with mock.patch.dict(sys.modules, {"numpy": None}):
                pure = self._reload_batch()
                for family in FAMILIES:
                    program = generate(family, SIZE, STATEMENTS).program
                    result = run_batched(
                        program, CASEEngine, window=4, capacity=64
                    )
                    assert result.stats.batched_attempts > 0
                    (bp,) = pure._MEMO[program.regions[0]].values()
                    assert bp.aff_names and bp.aff_base_np is None
                    assert bp.attempt is not None
        finally:
            reset_logging()
            self._reload_batch()
