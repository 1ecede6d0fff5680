"""Timing-subsystem tests: cost model, recorder, scheduler, makespans.

The acceptance bar: attaching a recorder never perturbs engine results
(final memory stays bit-identical to the sequential interpreter), the
makespan is always finite and at least the longest single-segment
critical path (including on the overflow-stall and cyclic-explicit
fallback paths), one processor never beats the sequential baseline, and
the embarrassingly-parallel family actually speeds up -- with CASE's
labels keeping it fast at capacities that serialize HOSE.
"""

import pytest

from repro.bench.speedup import (
    check_embarrassing_speedup,
    measure_speedup_family,
)
from repro.bench.workloads import FAMILIES, generate
from repro.ir.dsl import parse_program
from repro.runtime.engines import HOSEEngine
from repro.runtime.interpreter import run_program
from repro.timing import (
    CostModel,
    TimingRecorder,
    compute_makespan,
    sequential_cycles,
    speculative_makespan,
)

COST = CostModel()


def run_with_timing(program, engine, processors, **kwargs):
    """speculative_makespan + bit-identity assertion."""
    result, makespan = speculative_makespan(
        program, engine=engine, processors=processors, cost=COST, **kwargs
    )
    sequential = run_program(program)
    diffs = sequential.memory.differences(result.memory, tolerance=0.0)
    assert diffs == {}, f"{engine} with recorder diverged: {sorted(diffs)[:5]}"
    return result, makespan


def assert_consistent(makespan):
    """Breakdown invariants every schedule must satisfy."""
    assert makespan.makespan >= 0
    assert makespan.makespan >= makespan.longest_segment_cycles
    total = (
        makespan.busy_cycles
        + makespan.wasted_cycles
        + makespan.stall_cycles
        + makespan.idle_cycles
    )
    assert total == makespan.processors * makespan.makespan
    for lane in makespan.per_processor:
        assert lane["busy"] >= 0
        assert lane["wasted"] >= 0
        assert lane["stall"] >= 0
        assert lane["idle"] >= 0
        assert (
            lane["busy"] + lane["wasted"] + lane["stall"] + lane["idle"]
            == makespan.makespan
        )


# ----------------------------------------------------------------------
# Cost model.
# ----------------------------------------------------------------------
class TestCostModel:
    def test_op_cost_routes(self):
        assert COST.op_cost("compute", 5) == 5 * COST.compute_scale
        assert COST.op_cost("read", 0) == COST.memory_latency
        assert COST.op_cost("read", 0, route="speculative") == COST.specstore_latency
        assert COST.op_cost("write", 0, route="private") == COST.private_latency
        assert COST.op_cost("write", 0, route="direct") == COST.memory_latency

    def test_commit_cost_scales_with_entries(self):
        assert COST.commit_cost(0) == COST.commit_base
        assert COST.commit_cost(3) == COST.commit_base + 3 * COST.commit_per_entry

    def test_compute_cost_fn_weights_operators(self):
        from repro.ir.dsl import parse_program as parse

        program = parse(
            """
program w
  real a, b
  region R do k = 1, 2
    a = b * b
    liveout a
  end region
end program
"""
        )
        stmt = program.regions[0].body[0]
        fn = COST.compute_cost_fn()
        cost = fn(stmt, stmt.rhs)
        assert cost == 1 + COST.mul_weight
        assert fn(stmt, stmt.rhs) == cost  # memoized

    def test_compute_cost_fn_keys_per_expression(self):
        # Regression: the memo used to key by statement alone, so a
        # second, different expression priced under the same statement
        # silently got the first expression's cost.
        from repro.ir.builder import assign, var

        stmt = assign("a", var("b") * var("c"))          # cost 1 + mul
        cheap = stmt.rhs
        costly = var("b") / var("c") + var("b")          # cost 1 + div + add
        stmt.rhs = costly  # the statement owns both exprs' lifetimes
        fn = COST.compute_cost_fn()
        assert fn(stmt, cheap) == COST.expression_cost(cheap)
        assert fn(stmt, costly) == COST.expression_cost(costly)
        assert fn(stmt, cheap) != fn(stmt, costly)
        # Memoized per expression, not recomputed.
        assert fn(stmt, cheap) == COST.expression_cost(cheap)


# ----------------------------------------------------------------------
# Sequential baseline.
# ----------------------------------------------------------------------
class TestSequentialBaseline:
    def test_positive_and_deterministic(self):
        workload = generate("reduction", 10, 2)
        a = sequential_cycles(workload.program, COST)
        b = sequential_cycles(workload.program, COST)
        assert a == b > 0

    def test_memory_latency_dominates_under_expensive_memory(self):
        workload = generate("reduction", 10, 2)
        cheap = sequential_cycles(workload.program, CostModel(memory_latency=1))
        dear = sequential_cycles(workload.program, CostModel(memory_latency=50))
        assert dear > cheap


# ----------------------------------------------------------------------
# Makespans: sanity bounds.
# ----------------------------------------------------------------------
class TestMakespanBounds:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_one_processor_window_one_never_beats_sequential(
        self, family, engine
    ):
        workload = generate(family, 12, 2)
        _, makespan = run_with_timing(
            workload.program, engine, processors=1, window=1, capacity=None
        )
        assert makespan.sequential_cycles is not None
        assert makespan.makespan >= makespan.sequential_cycles
        assert_consistent(makespan)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_breakdowns_consistent_across_processors(self, family):
        workload = generate(family, 12, 2)
        previous = None
        for processors in (1, 2, 4, 8):
            _, makespan = run_with_timing(
                workload.program,
                "hose",
                processors=processors,
                window=4,
                capacity=None,
            )
            assert_consistent(makespan)
            if previous is not None:
                # More processors never lengthen the schedule.
                assert makespan.makespan <= previous
            previous = makespan.makespan

    def test_reduction_speeds_up_on_four_processors(self):
        workload = generate("reduction", 12, 3)
        _, makespan = run_with_timing(
            workload.program, "hose", processors=4, window=4, capacity=None
        )
        assert makespan.speedup is not None
        assert makespan.speedup > 1.5
        assert makespan.makespan < makespan.sequential_cycles

    def test_recorder_does_not_change_stats_or_storage(self):
        workload = generate("stencil", 12, 2)
        plain = HOSEEngine(workload.program, window=3, capacity=4).run()
        recorder = TimingRecorder(COST)
        recorded = HOSEEngine(
            workload.program, window=3, capacity=4, recorder=recorder
        ).run()
        assert recorded.stats.violations == plain.stats.violations
        assert recorded.stats.rollbacks == plain.stats.rollbacks
        assert recorded.stats.commit_entries == plain.stats.commit_entries
        assert recorded.spec_peak_entries == plain.spec_peak_entries


# ----------------------------------------------------------------------
# Overflow-stall path under the timing model (satellite coverage).
# ----------------------------------------------------------------------
class TestOverflowStallTiming:
    def test_tiny_capacity_stalls_still_bounded_and_identical(self):
        workload = generate("stencil", 12, 3)
        result, makespan = run_with_timing(
            workload.program, "hose", processors=4, window=3, capacity=2
        )
        assert result.stats.overflow_stalls > 0
        assert result.stats.stall_rounds > 0
        assert makespan.makespan >= makespan.longest_segment_cycles
        assert_consistent(makespan)

    def test_capacity_squeeze_serializes_hose_but_not_case(self):
        # Reduction at capacity 8: every HOSE segment overflows (the
        # read access info alone exceeds the buffer) and drains only as
        # the oldest -- the run serializes.  CASE's labels route the
        # same references around speculative storage and keep scaling.
        workload = generate("reduction", 12, 3)
        hose_res, hose = run_with_timing(
            workload.program, "hose", processors=4, window=4, capacity=8
        )
        case_res, case = run_with_timing(
            workload.program, "case", processors=4, window=4, capacity=8
        )
        assert hose_res.stats.overflow_stalls > 0
        assert case_res.stats.overflow_stalls == 0
        assert hose.stall_cycles > 0
        assert case.makespan < hose.makespan
        assert case.speedup > 2.0 > hose.speedup

    def test_stall_rounds_counter_only_on_overflow(self):
        workload = generate("reduction", 12, 2)
        free = HOSEEngine(workload.program, window=3, capacity=None).run()
        tight = HOSEEngine(workload.program, window=3, capacity=4).run()
        assert free.stats.stall_rounds == 0
        assert tight.stats.stall_rounds > 0


# ----------------------------------------------------------------------
# Cyclic explicit regions: the CASE fallback path, timed (satellite).
# ----------------------------------------------------------------------
CYCLIC_SRC = """
program cyc
  real s, i
  region LOOP explicit
    segment BODY
      s = s + 1.0
      i = i + 1.0
      branch (i < 6)
    end segment
    edges BODY -> BODY, <exit>
    liveout s, i
  end region
end program
"""


class TestCyclicExplicitTiming:
    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_finite_makespan_and_identity(self, engine):
        program = parse_program(CYCLIC_SRC)
        result, makespan = run_with_timing(
            program, engine, processors=2, window=3, capacity=8
        )
        assert result.stats.segments_committed == 6
        assert makespan.makespan > 0
        assert makespan.makespan >= makespan.longest_segment_cycles
        assert_consistent(makespan)

    def test_mispredicted_exit_counts_wasted_work(self):
        # First-successor prediction follows the back edge past the
        # exit, so the last in-flight segments are wrong-path discards;
        # their cycles must land in the wasted bucket.
        program = parse_program(CYCLIC_SRC)
        result, makespan = run_with_timing(
            program, "hose", processors=2, window=3, capacity=8
        )
        assert result.stats.control_mispredictions > 0
        assert makespan.wasted_cycles > 0


# ----------------------------------------------------------------------
# Recorder event-stream shape.
# ----------------------------------------------------------------------
class TestRecorderShape:
    def test_regions_and_segments_recorded_in_age_order(self):
        workload = generate("reduction", 10, 2)
        recorder = TimingRecorder(COST)
        HOSEEngine(workload.program, window=2, recorder=recorder).run()
        recording = recorder.recording()
        assert recording.engine == "hose"
        regions = recording.regions()
        assert len(regions) == 1
        ages = [seg.age for seg in regions[0].segments]
        assert ages == sorted(ages)
        trip = workload.region.constant_trip_count()
        assert len(regions[0].segments) == trip
        assert all(seg.outcome == "committed" for seg in regions[0].segments)

    def test_squashed_attempts_recorded(self):
        workload = generate("stencil", 12, 2)
        recorder = TimingRecorder(COST)
        result = HOSEEngine(
            workload.program, window=3, capacity=None, recorder=recorder
        ).run()
        assert result.stats.rollbacks > 0
        segments = recorder.recording().regions()[0].segments
        squashed = sum(
            1
            for seg in segments
            for attempt in seg.attempts
            if attempt.outcome == "squashed"
        )
        assert squashed == result.stats.rollbacks

    def test_direct_sections_capture_init_and_finale(self):
        src = """
program wrap
  real a(4), total
  init
    a(1) = 2
  end init
  region R do k = 1, 4
    a(k) = a(k) * 2
    liveout a
  end region
  finale
    total = a(1)
  end finale
end program
"""
        program = parse_program(src)
        recorder = TimingRecorder(COST)
        HOSEEngine(program, window=2, recorder=recorder).run()
        recording = recorder.recording()
        assert recording.direct_cycles() > 0
        # init section, region, finale section.
        assert len(recording.sections) == 3


# ----------------------------------------------------------------------
# The bench speedup scenario.
# ----------------------------------------------------------------------
class TestSpeedupScenario:
    def test_family_entry_shape(self):
        workload = generate("reduction", 10, 2)
        entry = measure_speedup_family(
            workload,
            processors=(1, 4),
            windows=(4,),
            capacities=(8, None),
            cost=COST,
        )
        assert entry["sequential_cycles"] > 0
        assert set(entry["configs"]) == {"w4_c8", "w4_cinf"}
        for row in entry["configs"].values():
            for side in ("hose", "case"):
                assert row[side]["matches_sequential"] is True
                assert set(row[side]["processors"]) == {"1", "4"}
                for cell in row[side]["processors"].values():
                    assert cell["makespan"] > 0
                    assert cell["speedup"] > 0
        assert entry["best_case_speedup"] > 1

    def test_check_embarrassing_speedup(self):
        workload = generate("reduction", 10, 2)
        section = {
            "families": {
                "reduction": measure_speedup_family(
                    workload,
                    processors=(4,),
                    windows=(4,),
                    capacities=(None,),
                    cost=COST,
                )
            }
        }
        assert check_embarrassing_speedup(section, processors=4) == []
        # Tamper: claim sequential was instant; the check must fail.
        section["families"]["reduction"]["sequential_cycles"] = 1
        assert check_embarrassing_speedup(section, processors=4) != []

    def test_check_refuses_to_pass_vacuously(self):
        # A run that never measured an embarrassingly-parallel family
        # must fail the check, not green-light it.
        assert check_embarrassing_speedup({"families": {}}) != []
        assert check_embarrassing_speedup({"families": {"stencil": {}}}) != []


# ----------------------------------------------------------------------
# Squash causality: restarts are gated at the violating write's time.
# ----------------------------------------------------------------------
class TestSquashCausalityGate:
    def test_restart_waits_for_the_violating_write(self):
        from repro.timing.events import (
            AttemptRecord,
            Recording,
            RegionRecording,
            SegmentRecord,
        )

        # Writer A (age 1): one attempt, 100 cycles, commits.
        # Victim B (age 2): runs 10 cycles, is squashed by A's write at
        # elapsed 80, then re-runs 200 cycles.  On two processors the
        # restart may not begin before t=80, so B finishes at 280 --
        # an ungated schedule would impossibly finish it at 220.
        zero = CostModel(
            dispatch_overhead=0,
            commit_base=0,
            commit_per_entry=0,
            squash_penalty=0,
        )
        a = SegmentRecord(key=("R", 1), age=1)
        a1 = AttemptRecord(outcome="committed")
        a1.add_run(100)
        a.attempts.append(a1)
        b = SegmentRecord(key=("R", 2), age=2)
        b1 = AttemptRecord(
            outcome="squashed",
            squashed_by=1,
            squashed_by_attempt=0,
            squashed_at_elapsed=80,
        )
        b1.add_run(10)
        b2 = AttemptRecord(outcome="committed")
        b2.add_run(200)
        b.attempts.extend([b1, b2])
        recording = Recording(
            cost=zero,
            window=4,
            engine="hose",
            sections=[RegionRecording(name="R", kind="loop", segments=[a, b])],
        )
        makespan = compute_makespan(recording, 2)
        assert makespan.makespan == 280
        victim = makespan.regions[0].segments[1]
        assert victim.stall_cycles == 70  # waited from t=10 to t=80
        assert victim.wasted_cycles == 10
        assert_consistent(makespan)

    def test_recorder_snapshots_writer_position(self):
        workload = generate("stencil", 12, 2)
        recorder = TimingRecorder(COST)
        result = HOSEEngine(
            workload.program, window=3, capacity=None, recorder=recorder
        ).run()
        assert result.stats.violations > 0
        squashed = [
            attempt
            for seg in recorder.recording().regions()[0].segments
            for attempt in seg.attempts
            if attempt.outcome == "squashed"
        ]
        assert squashed
        for attempt in squashed:
            assert attempt.squashed_by is not None
            assert attempt.squashed_by_attempt is not None


# ----------------------------------------------------------------------
# Route pricing: the storage that served the value is what is charged.
# ----------------------------------------------------------------------
class TestRoutePricing:
    def test_speculative_misses_pay_memory_latency(self):
        # Under an expensive conventional memory, a speculative read
        # that misses the buffers (cold address) must cost
        # memory_latency, not specstore_latency.
        workload = generate("reduction", 10, 2)
        cheap = CostModel(memory_latency=4, specstore_latency=4)
        dear = CostModel(memory_latency=100, specstore_latency=4)
        _, ms_cheap = speculative_makespan(
            workload.program, "hose", processors=1, window=2,
            capacity=None, cost=cheap,
        )
        _, ms_dear = speculative_makespan(
            workload.program, "hose", processors=1, window=2,
            capacity=None, cost=dear,
        )
        # Nearly every reduction read is a cold miss; if misses were
        # priced at the speculative-store latency the two makespans
        # would be almost equal.
        assert ms_dear.makespan > 3 * ms_cheap.makespan
