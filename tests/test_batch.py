"""Batched speculative replay tests (``repro.runtime.batch``).

The acceptance bar mirrors the engine suite: with ``batch=True`` the
engines must produce final memory states bit-identical to the
sequential interpreter on every workload family -- fault-free across
windows and capacities (including capacities tight enough to force the
transfer-stall / drain-or-squash fallback), and under every fault kind
of the resilience layer (recovered in place or by graceful
degradation).  Only the *memory* contract is bit-identical; the
batched protocol's micro-dynamics (violation/stall counters) legally
differ from op-interleaving.
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
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.runtime.interpreter import run_program
from repro.runtime.stats import ExecutionStats
from repro.timing.cost import CostModel
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
    def test_recovers_bit_identically_under_faults(self, kind, engine):
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


class TestBatchProgramMemo:
    def test_second_run_records_no_trace(self, monkeypatch):
        program = generate("stencil", SIZE, STATEMENTS).program
        sequential = run_program(program)
        recorded = []
        record = batch_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(region.name)
            return record(region, resolve, read_only)

        monkeypatch.setattr(batch_mod, "record_trace", counted)
        first = run_batched(program, CASEEngine, sequential, capacity=8)
        assert recorded == [region.name for region in program.regions]
        second = run_batched(program, CASEEngine, sequential, capacity=8)
        assert recorded == [region.name for region in program.regions]
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
        record = batch_mod.record_trace

        def counted(region, resolve, read_only=None):
            recorded.append(resolve("n"))
            return record(region, resolve, read_only)

        monkeypatch.setattr(batch_mod, "record_trace", counted)
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


class TestWeightedCompute:
    def test_pricing_survives_cost_model_id_reuse(self):
        # A memoized program outlives the cost models that priced it; a
        # cache keyed by id() hands a new model the cycles of a freed
        # one that happened to live at the same address.
        def priced(program, mul_weight):
            recorder = TimingRecorder(CostModel(mul_weight=mul_weight))
            CASEEngine(
                program, window=4, capacity=64, batch=True, recorder=recorder
            ).run()
            return recorder.recording().summary()

        program = generate("reduction", SIZE, STATEMENTS).program
        for mul_weight in range(2, 12):
            fresh = priced(generate("reduction", SIZE, STATEMENTS).program, mul_weight)
            assert priced(program, mul_weight) == fresh


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


@pytest.fixture
def checked_attempts(monkeypatch):
    """Run the op-stepped driver before every compiled attempt and
    require the compiled attempt to leave the identical state."""
    compiled = batch_mod._BatchScheduler._run_compiled
    checked = []

    def both(self, task):
        stats, cycles = self.stats, task.cycles
        self.stats = ExecutionStats()
        try:
            self._run_driver(task)
        finally:
            self.stats = stats
        expected = attempt_state(task)
        task.clear_attempt()
        task.cycles = cycles
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


class TestNumpyImportGuard:
    """Regression: the numpy guard must be narrow and must not be silent.

    The module-level ``import numpy`` used to sit behind a bare
    ``except Exception``, so an unrelated numpy-initialization error
    silently degraded every batched run to the pure-python path with no
    signal.  Now only ImportError degrades -- with a one-time structured
    warning through ``repro.obs.log`` -- and anything else propagates.
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

        stream = io.StringIO()
        try:
            configure_logging(stream=stream)
            # None in sys.modules makes `import numpy` raise ImportError.
            with mock.patch.dict(sys.modules, {"numpy": None}):
                batch_mod = self._reload_batch()
                assert batch_mod._np is None
        finally:
            reset_logging()
            batch_mod = self._reload_batch()
        assert batch_mod._np is not None
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
            batch_mod = self._reload_batch()
        assert batch_mod._np is not None

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
