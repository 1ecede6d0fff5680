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
from repro.ir.expr import power
from repro.resilience.faults import FaultPlan
from repro.resilience.harness import run_resilient
from repro.runtime import engines as engines_mod
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.runtime.errors import SimulationError
from repro.runtime.executor import segment_coroutine
from repro.runtime.interpreter import SequentialInterpreter, run_program
from repro.runtime.memory import MemoryImage
from repro.runtime.trace import (
    record_trace,
    replay_segment,
    trace_eligibility,
)
from repro.timing.events import TimingRecorder


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
        assert fast.replay_reasons[workload.region.name] == "replayed", family
        assert base.memory.differences(fast.memory) == {}, family
        assert base.stats.as_dict() == fast.stats.as_dict(), family
        assert base.stats.reference_counts == fast.stats.reference_counts, family


class TestSequentialPathsAgree:
    """The replay and coroutine interpreters must leave bit-identical
    memory and stats: the daemon's ground truth (final memory and
    baseline cycles) comes from one replayed run."""

    @staticmethod
    def assert_paths_agree(program):
        replay = SequentialInterpreter(program).run()
        direct = SequentialInterpreter(program, use_replay=False).run()
        assert replay.memory.differences(direct.memory, tolerance=0.0) == {}
        assert replay.stats.as_dict() == direct.stats.as_dict()
        return replay

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bench_families(self, family):
        workload = generate(family, 20, 4)
        replay = self.assert_paths_agree(workload.program)
        assert replay.replay_reasons[workload.region.name] == "replayed", family

    def test_non_finite_constants(self):
        # 1e400 parses to inf, whose repr is not an expression: the
        # generated arithmetic raised NameError on every replay.
        program = parse_program(
            "program big\n  real a(8)\n  region R do k = 1, 8\n"
            "    a(k) = k + 1e400 * 0\n    liveout a\n  end region\n"
            "end program"
        )
        replay = self.assert_paths_agree(program)
        assert replay.replay_reasons["R"] == "replayed"

    def test_seeded_fuzz_batch(self):
        replayed = 0
        for _index, program in corpus(40, seed=20261017):
            replay = self.assert_paths_agree(program)
            replayed += "replayed" in replay.replay_reasons.values()
        assert replayed > 0, "no fuzz program took the replay path"


#: ``y(i) = <rhs>`` programs whose ``**`` Python cannot answer with a
#: float: ``0.0 ** -1`` raises, ``(-1.0) ** 0.5`` is complex and
#: ``18 ** 400`` does not fit a float.
POWER_RHS = ["x(i) ** (0 - 1)", "(x(i) - 1) ** 0.5", "(i + 10) ** 400"]


def power_program(rhs):
    return parse_program(
        "program pow\n  real x(16) = 0.0, y(16)\n  region R do i = 1, 16\n"
        f"    y(i) = {rhs}\n    x(i) = y(i) + x(i)\n    liveout x, y\n"
        "  end region\nend program"
    )


class TestTotalPower:
    """``**`` is total: 0.0 where Python raises, returns a complex or
    overflows a float, and every executor agrees on it."""

    def test_power_values(self):
        assert power(0.0, -1) == 0.0
        assert power(-1.0, 0.5) == 0.0
        assert power(18, 400) == 0.0
        assert power(-18, 401) == 0.0
        assert power(2, 10 ** 12) == 0.0  # answered without computing
        assert power(10.0, 400) == 0.0
        for a, b in [(2, 10), (2, -1), (-2, 3), (1, 10 ** 12), (0, 0),
                     (2.5, 2), (4, 0.5), (-8.0, 3), (2, 1023)]:
            got = power(a, b)
            assert got == a ** b and type(got) is type(a ** b), (a, b)

    @pytest.mark.parametrize("rhs", POWER_RHS)
    def test_every_executor_agrees(self, rhs):
        program = power_program(rhs)
        direct = SequentialInterpreter(program, use_replay=False).run()
        replay = SequentialInterpreter(program).run()
        assert replay.replay_reasons["R"] == "replayed"
        assert replay.memory.differences(direct.memory, tolerance=0.0) == {}
        assert replay.stats.as_dict() == direct.stats.as_dict()
        assert direct.memory.read("y", (1,)) == 0.0
        for engine_cls in (HOSEEngine, CASEEngine):
            for batch in (False, True):
                result = engine_cls(program, window=4, capacity=8, batch=batch).run()
                assert not result.degraded, (engine_cls, batch)
                assert direct.memory.differences(result.memory, tolerance=0.0) == {}
                assert (result.stats.batched_attempts > 0) == batch


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
        assert fast.replay_reasons["R"] == "replayed"
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
        assert fast.replay_reasons["R"] == "replayed"
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
        assert fast.replay_reasons["R"] != "replayed"
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


class TestEngineAttemptsReplay:
    """Op-stepped engine attempts replay the region's recorded trace.
    Forcing the AST path (``region_trace`` answering "no trace") must
    change nothing the model observes."""

    @staticmethod
    def force_ast(monkeypatch):
        monkeypatch.setattr(
            engines_mod,
            "region_trace",
            lambda region, memory: (None, "forced AST path"),
        )

    @staticmethod
    def observe(program, engine_cls, **kwargs):
        recorder = TimingRecorder()
        result = engine_cls(program, recorder=recorder, **kwargs).run()
        assert not result.degraded
        return result.replay_reasons, {
            "stats": result.stats.as_dict(),
            "refs": result.stats.reference_counts,
            "peaks": (result.spec_peak_entries, result.spec_peak_segment_entries),
            "memory": result.memory.snapshot(),
            "summary": recorder.recording().summary(),
        }

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("engine_cls", [HOSEEngine, CASEEngine])
    @pytest.mark.parametrize("capacity", [2, 8, None])
    @pytest.mark.parametrize("window", [1, 4])
    def test_trace_and_ast_attempts_agree(
        self, family, engine_cls, capacity, window, monkeypatch
    ):
        program = generate(family, 12, 2).program
        region = program.regions[0].name
        reasons, replayed = self.observe(
            program, engine_cls, window=window, capacity=capacity
        )
        assert reasons[region] == "replayed"
        self.force_ast(monkeypatch)
        reasons, interpreted = self.observe(
            program, engine_cls, window=window, capacity=capacity
        )
        assert reasons[region] == "forced AST path"
        assert replayed == interpreted

    @pytest.mark.parametrize("engine", ["hose", "case"])
    def test_injected_runs_agree(self, engine, monkeypatch):
        program = generate("sparse", 8, 2).program

        def run():
            result = run_resilient(
                program,
                engine=engine,
                plan=FaultPlan.uniform(0.2),
                seed=5,
                window=4,
                capacity=16,
                max_restarts=50,
                watchdog_rounds=5_000,
            )
            return (
                result.fault_counts,
                result.stats.as_dict(),
                result.memory.snapshot(),
            )

        replayed = run()
        assert sum(replayed[0].values()) > 0
        self.force_ast(monkeypatch)
        assert run() == replayed
