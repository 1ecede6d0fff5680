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

import pytest

from repro.bench.workloads import FAMILIES, generate
from repro.resilience.faults import FAULT_KINDS, FaultPlan
from repro.resilience.harness import run_resilient
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.runtime.interpreter import run_program

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
                self._reload_batch()
                program = generate("reduction", SIZE, STATEMENTS).program
                run_batched(program, CASEEngine, window=4, capacity=64)
        finally:
            reset_logging()
            self._reload_batch()
