"""Record-and-replay equivalence: identical op streams and final memory.

The acceptance bar of the trace fast path is *bit-identity* with the
coroutine interpreter: same operation stream (including the reference
tags and compute costs) per iteration, same final memory image per
program, same op-budget error behaviour.
"""

import pytest

from conftest import drive_stream
from repro.bench.workloads import FAMILIES, generate
from repro.corpus import corpus
from repro.ir.dsl import parse_program
from repro.runtime.errors import SimulationError
from repro.runtime.executor import segment_coroutine
from repro.runtime.interpreter import SequentialInterpreter, run_program
from repro.runtime.memory import MemoryImage
from repro.runtime.trace import (
    record_trace,
    replay_segment,
    trace_eligibility,
)
from repro.timing.cost import DEFAULT_COST_MODEL
from repro.timing.makespan import sequential_baseline


def record_for(program, region):
    memory = MemoryImage(program.symbols)
    return memory, record_trace(region, resolve=lambda n: memory.read(n, ()))


class TestEquivalenceOnBenchFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_op_streams_identical(self, family):
        workload = generate(family, 16, 4)
        region = workload.region
        assert trace_eligibility(region)[0]
        _, trace = record_for(workload.program, region)
        for value in (2, 5, 9):
            m1 = MemoryImage(workload.program.symbols)
            m2 = MemoryImage(workload.program.symbols)
            interp_ops = drive_stream(
                segment_coroutine(region.body, {region.index: value}), m1
            )
            replay_ops = drive_stream(replay_segment(trace, value), m2)
            assert interp_ops == replay_ops, family
            assert m1.snapshot() == m2.snapshot(), family

    @pytest.mark.parametrize("family", FAMILIES)
    def test_final_memory_and_stats_identical(self, family):
        workload = generate(family, 20, 4)
        base = run_program(workload.program, use_replay=False)
        fast = run_program(workload.program, use_replay=True)
        assert fast.replayed_regions[workload.region.name], family
        assert base.memory.differences(fast.memory) == {}, family
        assert base.stats.as_dict() == fast.stats.as_dict(), family
        assert base.stats.reference_counts == fast.stats.reference_counts, family


class TestSequentialPathsAgree:
    """The daemon memoizes whichever sequential run comes first, so the
    replay interpreter, the coroutine interpreter and the cost-model
    baseline run must leave bit-identical memory."""

    @staticmethod
    def assert_paths_agree(program):
        replay = SequentialInterpreter(program).run()
        direct = SequentialInterpreter(program, use_replay=False).run()
        _, baseline = sequential_baseline(program, DEFAULT_COST_MODEL)
        assert replay.memory.differences(direct.memory, tolerance=0.0) == {}
        assert replay.memory.differences(baseline.memory, tolerance=0.0) == {}
        assert direct.memory.differences(baseline.memory, tolerance=0.0) == {}
        return replay

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bench_families(self, family):
        workload = generate(family, 20, 4)
        replay = self.assert_paths_agree(workload.program)
        assert replay.replayed_regions[workload.region.name], family

    def test_seeded_fuzz_batch(self):
        replayed = 0
        for _index, program in corpus(40, seed=20261017):
            replay = self.assert_paths_agree(program)
            replayed += any(replay.replayed_regions.values())
        assert replayed > 0, "no fuzz program took the replay path"


class TestScatterWrite:
    def test_scatter_write_op_order_identical(self):
        # Regression: target-subscript reads (the `idx(i)` of a scatter
        # write) must be yielded AFTER the cost ComputeOp, exactly as
        # the interpreter does — not hoisted with the rhs reads.
        src = """
program t
  real y(10), x(10) = 2.0
  integer idx(10) = 3
  region R do i = 1, 10
    y(idx(i)) = x(i) + 1.0
    liveout y
  end region
end program
"""
        program = parse_program(src)
        region = program.regions[0]
        _, trace = record_for(program, region)
        m1 = MemoryImage(program.symbols)
        m2 = MemoryImage(program.symbols)
        interp_ops = drive_stream(
            segment_coroutine(region.body, {region.index: 4}), m1
        )
        replay_ops = drive_stream(replay_segment(trace, 4), m2)
        assert interp_ops == replay_ops
        kinds = [type(op).__name__ for op in interp_ops]
        # reads of x(i), cost compute, read of idx(i), write y(...)
        assert kinds == ["ReadOp", "ComputeOp", "ReadOp", "WriteOp"]


class TestIndexShadowing:
    def test_inner_do_shadowing_region_index(self):
        # Regression: an inner DO whose index shadows the region index
        # must replay with the inner (recorded) value, not the region
        # iteration value — innermost binding wins, as in the executor.
        src = """
program t
  real a(10)
  region R do k = 2, 10
    do k = 1, 3
      a(k) = a(k) + 1.0
    end do
    liveout a
  end region
end program
"""
        program = parse_program(src)
        base = run_program(program, use_replay=False)
        fast = run_program(program, use_replay=True)
        assert fast.replayed_regions["R"]
        assert base.memory.differences(fast.memory) == {}
        assert base.stats.as_dict() == fast.stats.as_dict()
        assert fast.value_of("a", (1,)) == 9.0  # 9 region iterations
        assert fast.value_of("a", (5,)) == 0.0


class TestBudgetParity:
    def test_budget_error_at_same_point(self):
        workload = generate("stencil", 16, 4)
        region = workload.region
        _, trace = record_for(workload.program, region)
        for budget in (1, 7, 23):
            ops_interp, err_interp = self._run(
                segment_coroutine(region.body, {region.index: 3}, op_budget=budget),
                workload,
            )
            ops_replay, err_replay = self._run(
                replay_segment(trace, 3, op_budget=budget), workload
            )
            assert ops_interp == ops_replay
            assert err_interp == err_replay

    @staticmethod
    def _run(coroutine, workload):
        memory = MemoryImage(workload.program.symbols)
        try:
            return drive_stream(coroutine, memory), None
        except SimulationError as exc:
            return None, str(exc)


class TestEligibility:
    def test_memory_dependent_guard_is_ineligible(self):
        src = """
program t
  real x(10), m(10)
  region R do i = 1, 10
    if (m(i) > 0) x(i) = 1
    liveout x
  end region
end program
"""
        region = parse_program(src).regions[0]
        eligible, reason = trace_eligibility(region)
        assert not eligible
        assert "guard" in reason

    def test_region_index_bound_is_ineligible(self):
        src = """
program t
  real x(10, 10)
  region R do i = 1, 10
    do t = 1, i
      x(t, i) = 1
    end do
    liveout x
  end region
end program
"""
        region = parse_program(src).regions[0]
        assert not trace_eligibility(region)[0]

    def test_read_only_scalar_bound_is_eligible_and_validated(self):
        src = """
program t
  integer n = 6
  real x(10)
  region R do i = 1, 10
    do t = 1, n
      x(i) = x(i) + t
    end do
    liveout x
  end region
end program
"""
        program = parse_program(src)
        region = program.regions[0]
        assert trace_eligibility(region)[0]
        base = run_program(program, use_replay=False)
        fast = run_program(program, use_replay=True)
        assert fast.replayed_regions["R"]
        assert base.memory.differences(fast.memory) == {}
        assert base.stats.as_dict() == fast.stats.as_dict()

    def test_ineligible_region_falls_back_and_matches(self):
        src = """
program t
  real x(10), m(10)
  init
    m(3) = 1
  end init
  region R do i = 1, 10
    if (m(i) > 0) x(i) = 5
    liveout x
  end region
end program
"""
        program = parse_program(src)
        base = run_program(program, use_replay=False)
        fast = run_program(program, use_replay=True)
        assert not fast.replayed_regions["R"]
        assert base.memory.differences(fast.memory) == {}
        assert base.stats.as_dict() == fast.stats.as_dict()

    def test_replay_divergence_detected(self):
        src = """
program t
  integer n = 4
  real x(10)
  region R do i = 1, 10
    do t = 1, n
      x(i) = x(i) + t
    end do
    liveout x
  end region
end program
"""
        program = parse_program(src)
        region = program.regions[0]
        memory = MemoryImage(program.symbols)
        trace = record_trace(region, resolve=lambda name: memory.read(name, ()))
        # Violate the read-only contract behind the trace's back.
        memory.write("n", 7.0)
        with pytest.raises(SimulationError, match="divergence"):
            drive_stream(replay_segment(trace, 1), memory)
