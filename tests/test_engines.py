"""Speculative engine tests.

The acceptance bar: HOSE and CASE produce final memory states
bit-identical to the sequential interpreter on every workload family
(across window sizes and buffer capacities, i.e. with real violations,
rollbacks and overflow stalls in play), and CASE's labels measurably
reduce speculative-storage pressure.
"""

import pytest

from repro.bench.engines import measure_engine_family, verify_engines
from repro.bench.workloads import FAMILIES, generate
from repro.ir.dsl import parse_program
from repro.runtime.engines import (
    CASEEngine,
    HOSEEngine,
    run_speculative,
)
from repro.runtime.errors import SimulationError
from repro.runtime.interpreter import run_program


def assert_equivalent(program, engine_cls, sequential=None, **kwargs):
    if sequential is None:
        sequential = run_program(program)
    result = engine_cls(program, **kwargs).run()
    # A degraded run re-executed sequentially, which would hide any
    # engine bug behind trivially-matching memory.
    assert not result.degraded, (
        f"{engine_cls.engine_name} degraded ({kwargs}): "
        f"{result.degradation}"
    )
    diffs = sequential.memory.differences(result.memory, tolerance=0.0)
    assert diffs == {}, (
        f"{engine_cls.engine_name} diverged "
        f"({kwargs}): {sorted(diffs.items())[:5]}"
    )
    return result


# ----------------------------------------------------------------------
# Bit-identity on the four bench families.
# ----------------------------------------------------------------------
class TestEquivalenceOnBenchFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine_cls", [HOSEEngine, CASEEngine])
    def test_final_state_bit_identical(self, family, engine_cls):
        workload = generate(family, 14, 3)
        sequential = run_program(workload.program)
        for window in (1, 3):
            for capacity in (4, 64, None):
                assert_equivalent(
                    workload.program,
                    engine_cls,
                    sequential=sequential,
                    window=window,
                    capacity=capacity,
                )

    def test_verify_engines_reports_no_failures(self):
        assert verify_engines(size=10, statements=2) == []


# ----------------------------------------------------------------------
# Speculation counters.
# ----------------------------------------------------------------------
class TestSpeculationStats:
    def test_violations_and_rollbacks_on_carried_dependences(self):
        # The stencil updates in place: younger iterations read
        # locations older iterations write, so a multi-segment window
        # must detect violations and roll back.
        workload = generate("stencil", 14, 3)
        result = assert_equivalent(
            workload.program, HOSEEngine, window=3, capacity=None
        )
        stats = result.stats
        assert stats.violations > 0
        assert stats.rollbacks >= stats.violations
        assert stats.wasted_cycles > 0
        assert stats.segments_started > stats.segments_committed

    def test_window_one_never_violates(self):
        workload = generate("stencil", 14, 3)
        result = assert_equivalent(
            workload.program, HOSEEngine, window=1, capacity=None
        )
        assert result.stats.violations == 0
        assert result.stats.rollbacks == 0
        assert result.stats.wasted_cycles == 0

    def test_overflow_stalls_with_tiny_capacity(self):
        workload = generate("stencil", 14, 3)
        result = assert_equivalent(
            workload.program, HOSEEngine, window=2, capacity=2
        )
        stats = result.stats
        assert stats.overflow_stalls > 0
        assert stats.overflow_entries > 0

    def test_commit_entries_and_segments(self):
        workload = generate("reduction", 12, 2)
        result = assert_equivalent(
            workload.program, HOSEEngine, window=2, capacity=None
        )
        stats = result.stats
        trip = workload.region.constant_trip_count()
        assert stats.segments_committed == trip
        assert stats.commit_entries > 0
        assert result.spec_peak_entries > 0

    def test_hose_routes_everything_speculatively(self):
        workload = generate("reduction", 12, 2)
        result = assert_equivalent(
            workload.program, HOSEEngine, window=2, capacity=None
        )
        assert result.stats.idempotent_accesses == 0
        assert result.stats.private_accesses == 0
        assert result.stats.speculative_accesses > 0


# ----------------------------------------------------------------------
# CASE consumes the labels: less speculative-storage pressure.
# ----------------------------------------------------------------------
class TestCaseReducesPressure:
    @pytest.mark.parametrize("family", ["reduction", "guarded", "sparse"])
    def test_strictly_fewer_storage_entries_than_hose(self, family):
        workload = generate(family, 14, 3)
        hose = assert_equivalent(
            workload.program, HOSEEngine, window=3, capacity=None
        )
        case = assert_equivalent(
            workload.program, CASEEngine, window=3, capacity=None
        )
        assert case.stats.idempotent_accesses > 0
        assert case.spec_peak_entries < hose.spec_peak_entries
        assert case.stats.commit_entries <= hose.stats.commit_entries
        # At least one family must show a strict commit-entry win.
        if family == "reduction":
            assert case.stats.commit_entries < hose.stats.commit_entries

    def test_fully_independent_region_needs_no_storage(self):
        workload = generate("reduction", 12, 2)
        case = assert_equivalent(
            workload.program, CASEEngine, window=3, capacity=None
        )
        assert case.stats.commit_entries == 0
        assert case.spec_peak_entries == 0
        assert case.stats.violations == 0
        labeling = case.labeling[workload.region.name]
        assert labeling.fully_independent

    def test_private_references_served_from_private_frame(self):
        src = """
program priv
  real a(16), b(16) = 1.0, s, t
  region R do k = 2, 16
    t = b(k) * 2
    a(k) = t + 1
    s = s + a(k-1)
    liveout a, s
  end region
end program
"""
        program = parse_program(src)
        case = assert_equivalent(program, CASEEngine, window=3, capacity=None)
        assert case.stats.private_accesses > 0
        # The committed private frame leaves the same final t as the
        # sequential run (checked by assert_equivalent), and t never
        # occupies speculative storage.
        labeling = case.labeling["R"]
        assert "t" in labeling.private_vars

    def test_precomputed_labeling_is_consumed(self):
        from repro.idempotency.labeling import label_program

        workload = generate("guarded", 12, 2)
        labeling = label_program(workload.program)
        case = CASEEngine(
            workload.program, labeling=labeling, window=3, capacity=None
        ).run()
        sequential = run_program(workload.program)
        assert sequential.memory.differences(case.memory, tolerance=0.0) == {}
        assert case.labeling[workload.region.name] is (
            labeling[workload.region.name]
        )


# ----------------------------------------------------------------------
# Explicit regions: control speculation.
# ----------------------------------------------------------------------
EXPLICIT_SRC = """
program fig3
  real a = {a_init}, b = 2.0, c, d, e
  region R explicit
    segment R0
      c = a + b
      branch (c > 2.5)
    end segment
    segment R1
      d = c * 2.0
    end segment
    segment R2
      d = c - 1.0
    end segment
    segment R3
      e = d + a
    end segment
    edges R0 -> R1, R2
    edges R1 -> R3
    edges R2 -> R3
    liveout d, e
  end region
end program
"""


class TestExplicitRegions:
    @pytest.mark.parametrize("engine_cls", [HOSEEngine, CASEEngine])
    def test_correct_prediction_commits_cleanly(self, engine_cls):
        program = parse_program(EXPLICIT_SRC.format(a_init=1.0))
        for window in (1, 2, 4):
            result = assert_equivalent(
                program, engine_cls, window=window, capacity=8
            )
            assert result.stats.control_mispredictions == 0
            assert result.stats.segments_committed == 3

    @pytest.mark.parametrize("engine_cls", [HOSEEngine, CASEEngine])
    def test_misprediction_squashes_wrong_path(self, engine_cls):
        # a = 0.1 makes the branch take the *second* successor; the
        # engine predicts the first, so a window > 1 must mispredict.
        program = parse_program(EXPLICIT_SRC.format(a_init=0.1))
        result = assert_equivalent(program, engine_cls, window=4, capacity=8)
        assert result.stats.control_mispredictions == 1
        assert result.stats.rollbacks > 0
        assert result.stats.segments_committed == 3

    @pytest.mark.parametrize("engine_cls", [HOSEEngine, CASEEngine])
    def test_cyclic_region_terminates_and_matches(self, engine_cls):
        src = """
program cyc
  real s, i
  region LOOP explicit
    segment BODY
      s = s + 1.0
      i = i + 1.0
      branch (i < 5)
    end segment
    edges BODY -> BODY, <exit>
    liveout s, i
  end region
end program
"""
        program = parse_program(src)
        for window in (1, 2, 4):
            result = assert_equivalent(
                program, engine_cls, window=window, capacity=8
            )
            assert result.stats.segments_committed == 5
            assert result.value_of("s") == 5.0


# ----------------------------------------------------------------------
# Engine plumbing.
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_run_speculative_dispatch(self):
        workload = generate("reduction", 10, 2)
        result = run_speculative(workload.program, engine="hose", window=2)
        assert result.engine == "hose"
        with pytest.raises(ValueError):
            run_speculative(workload.program, engine="nonsense")

    def test_op_budget_enforced(self):
        workload = generate("reduction", 12, 2)
        with pytest.raises(SimulationError):
            HOSEEngine(workload.program, window=2, op_budget=3).run()

    def test_init_and_finale_run_non_speculatively(self):
        src = """
program wrap
  real a(8), total
  init
    do i = 1, 8
      a(i) = i
    end do
  end init
  region R do k = 1, 8
    a(k) = a(k) * 2
    liveout a
  end region
  finale
    total = a(1) + a(8)
  end finale
end program
"""
        program = parse_program(src)
        for engine_cls in (HOSEEngine, CASEEngine):
            result = assert_equivalent(program, engine_cls, window=3)
            assert result.value_of("total") == 2.0 + 16.0


# ----------------------------------------------------------------------
# The bench scenario row shape.
# ----------------------------------------------------------------------
class TestEngineBenchScenario:
    def test_measure_engine_family_rows(self):
        workload = generate("reduction", 10, 2)
        entry = measure_engine_family(workload, capacities=(4, 64), window=2)
        assert set(entry["capacities"]) == {"4", "64"}
        for row in entry["capacities"].values():
            for side in ("hose", "case"):
                assert row[side]["matches_sequential"] is True
            assert (
                row["case_vs_hose_commit_entries"]
                == row["case"]["commit_entries"] - row["hose"]["commit_entries"]
            )
        full = entry["capacities"]["64"]
        assert full["case"]["commit_entries"] < full["hose"]["commit_entries"]
