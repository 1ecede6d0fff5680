"""Record-and-replay equivalence: identical op streams and final memory.

The acceptance bar of the trace fast path is *bit-identity* with the
coroutine interpreter: same operation stream (including the reference
tags and compute costs) per iteration, same final memory image per
program.  A run with an op budget walks the AST.
"""

import math

import pytest

from conftest import drive_stream
from repro.bench.workloads import FAMILIES, generate
from repro.corpus import corpus
from repro.ir.dsl import parse_program
from repro.ir.expr import _BINARY_OPS, _INTRINSICS, _UNARY_OPS, power
from repro.resilience.faults import FaultPlan
from repro.resilience.harness import run_resilient
from repro.runtime import engines as engines_mod
from repro.runtime import interpreter as interpreter_mod
from repro.runtime import trace as trace_mod
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.runtime.errors import SimulationError
from repro.runtime.executor import segment_coroutine
from repro.runtime.interpreter import (
    ExecutionObserver,
    SequentialInterpreter,
    drive,
    run_program,
)
from repro.runtime.memory import MemoryImage, same_value
from repro.runtime.stats import ExecutionStats
from repro.runtime.trace import (
    OP_BINOP,
    OP_CALL,
    OP_CONST,
    OP_LOCAL,
    OP_REGION_INDEX,
    OP_SLOT,
    OP_UNOP,
    TraceError,
    codegen_arith,
    record_trace,
    replay_segment,
    trace_eligibility,
)
from repro.timing.events import TimingRecorder


def record_for(program, region):
    memory = MemoryImage(program.symbols)
    return memory, record_trace(region, resolve=lambda n: memory.read(n, ()))


def run_ast(program):
    """A sequential run that walks the AST in every region (its trace
    lookup answers "no trace")."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            interpreter_mod,
            "region_trace",
            lambda region, memory: (None, "forced AST path"),
        )
        return run_program(program)


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
        base = run_ast(workload.program)
        fast = run_program(workload.program)
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
        direct = run_ast(program)
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
        assert_every_executor_agrees(rhs)


def assert_every_executor_agrees(rhs):
    """The AST interpreter, replay, and op-stepped and compiled HOSE and
    CASE runs of ``power_program(rhs)`` leave the same memory, without
    an exception or a degraded run; ``y(1)`` is 0.0."""
    program = power_program(rhs)
    direct = run_ast(program)
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


#: ``y(i) = <rhs>`` programs whose other operators Python cannot answer
#: with a float: an integer product past the float range (each factor
#: fits), alone, in a sum and negated, and ``int`` and ``sin`` of inf.
TOTAL_RHS = [
    "(i + 10) ** 200 * (i + 10) ** 200",
    "x(i) + (i + 10) ** 200 * (i + 10) ** 200",
    "-((i + 10) ** 200 * (i + 10) ** 200)",
    "int(1e400)",
    "sin(1e400)",
]


class TestTotalArithmetic:
    """Every operator is total, and every executor agrees on it."""

    @pytest.mark.parametrize("rhs", TOTAL_RHS)
    def test_every_executor_agrees(self, rhs):
        assert_every_executor_agrees(rhs)


#: Operand values of the table/generated-text property: zeros of both
#: signs and types, units, the largest integer and float magnitudes,
#: infinities and NaN.
GRID = [0, 1, -1, 2 ** 1023, -2 ** 1023,
        0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e308, -1e308,
        float("inf"), float("-inf"), float("nan")]


def operands(position):
    """``(instruction, value, slot value, index binding)`` of every way
    one grid value can be an operand: a read-value slot (floats only, as
    memory holds), a constant, or an induction index (integers only;
    the region index on the left, an inner index on the right)."""
    out = []
    for value in GRID:
        out.append(((OP_CONST, value), value, None, None))
        if type(value) is float:
            out.append(((OP_SLOT, None), value, value, None))
        elif position == 0:
            out.append(((OP_REGION_INDEX,), value, None, ("iv", value)))
        else:
            out.append(((OP_LOCAL, "t"), value, None, ("t", value)))
    return out


def assert_identical(got, want, where):
    assert type(got) is type(want), where
    assert same_value(got, want), where
    if type(want) is float and want == 0.0:
        assert math.copysign(1.0, got) == math.copysign(1.0, want), where


class TestArithSource:
    """The generated text of :func:`codegen_arith` answers every one-op
    program exactly as the table entry it inlines or calls, and no table
    entry raises on any grid value."""

    @staticmethod
    def run_program(operand_list, tail):
        """The program of ``operand_list`` then ``tail``, its slots
        numbered in order, run through its generated function."""
        program, values, iv, env = [], [], 0, {}
        for ins, _, slot_value, index in operand_list:
            if slot_value is not None:
                ins = (OP_SLOT, len(values))
                values.append(slot_value)
            if index is not None and index[0] == "iv":
                iv = index[1]
            elif index is not None:
                env[index[0]] = index[1]
            program.append(ins)
        return codegen_arith(tuple(program + tail))(values, iv, env)

    def check(self, table_fn, last, arity):
        combos = [[a] for a in operands(0)] if arity == 1 else [
            [a, b] for a in operands(0) for b in operands(1)
        ]
        double = [(OP_CONST, 2), (OP_BINOP, "*")]
        for combo in combos:
            args = [value for _, value, _, _ in combo]
            want = table_fn(*args)
            where = (last, [ins for ins, *_ in combo], args)
            assert_identical(self.run_program(combo, [last]), want, where)
            # Doubled, an integer result past 2 ** 1023 overflows: the
            # text must know the result may be an integer.
            doubled = _BINARY_OPS["*"](want, 2)
            assert_identical(self.run_program(combo, [last, *double]), doubled, where)

    @pytest.mark.parametrize("op", sorted(_BINARY_OPS))
    def test_binary(self, op):
        self.check(_BINARY_OPS[op], (OP_BINOP, op), 2)

    @pytest.mark.parametrize("op", sorted(_UNARY_OPS))
    def test_unary(self, op):
        self.check(_UNARY_OPS[op], (OP_UNOP, op), 1)

    @pytest.mark.parametrize("func", sorted(_INTRINSICS))
    def test_intrinsic(self, func):
        arity = 2 if func in ("min", "max", "mod") else 1
        self.check(_INTRINSICS[func], (OP_CALL, arity, func), arity)

    def test_integer_overflow_gives_zero(self):
        big = 2 ** 1023
        assert _BINARY_OPS["+"](big, big) == 0.0
        assert _BINARY_OPS["-"](-big, big) == 0.0
        assert _BINARY_OPS["*"](big, 2) == 0.0
        assert _BINARY_OPS["*"](big, -1) == -big
        assert _BINARY_OPS["+"](big, 1.0) == float(big)

    def test_single_slot_program_is_a_function(self):
        assert codegen_arith(((OP_SLOT, 0),))([2.5], 0, None) == 2.5
        assert codegen_arith(((OP_CONST, 3),))([], 0, None) == 3


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
        base = run_ast(program)
        fast = run_program(program)
        assert fast.replay_reasons["R"] == "replayed"
        assert base.memory.differences(fast.memory) == {}
        assert base.stats.as_dict() == fast.stats.as_dict()
        assert fast.value_of("a", (1,)) == 9.0  # 9 region iterations
        assert fast.value_of("a", (5,)) == 0.0


class AccessLog(ExecutionObserver):
    """The segments begun and every read and write, as
    ``(kind, address)``."""

    def __init__(self):
        self.segments = []
        self.accesses = []

    def begin_segment(self, region, segment, instance):
        self.segments.append((region, instance))

    def on_read(self, ref, address, value):
        self.accesses.append(("read", address))

    def on_write(self, ref, address, old_value, new_value):
        self.accesses.append(("write", address))


class TestBoundedRuns:
    """A run with an op budget walks the AST, the one executor that
    counts statement executions, in every region."""

    def test_budget_error_at_the_coroutines_op(self):
        workload = generate("stencil", 16, 4)
        program, region = workload.program, workload.region
        assert trace_eligibility(region)[0]
        first = region.lower.value
        for budget in (1, 7, 23):
            log = AccessLog()
            with pytest.raises(SimulationError) as bounded:
                SequentialInterpreter(program, op_budget=budget, observer=log).run()
            expected = AccessLog()
            with pytest.raises(SimulationError) as reference:
                drive(
                    segment_coroutine(
                        region.body, {region.index: first}, op_budget=budget
                    ),
                    MemoryImage(program.symbols),
                    ExecutionStats(),
                    expected,
                )
            assert str(bounded.value) == str(reference.value)
            assert f"budget of {budget} exceeded" in str(bounded.value)
            assert log.segments == [(region.name, first)]
            assert log.accesses == expected.accesses

    @pytest.mark.parametrize("family", FAMILIES)
    def test_large_budget_matches_the_replayed_run(self, family):
        program = generate(family, 16, 4).program
        region = program.regions[0].name
        bounded = SequentialInterpreter(program, op_budget=10 ** 6).run()
        replayed = SequentialInterpreter(program).run()
        assert "op budget" in bounded.replay_reasons[region]
        assert replayed.replay_reasons[region] == "replayed"
        assert bounded.memory.differences(replayed.memory, tolerance=0.0) == {}
        assert bounded.stats.as_dict() == replayed.stats.as_dict()
        assert bounded.stats.reference_counts == replayed.stats.reference_counts


class TestTraceCap:
    """``MAX_TRACE_EVENTS`` bounds the recorded events plus the
    statement executions of the unrolled body."""

    SOURCE = """
program capped
  integer n = 3
  real x(8, 4), y(8)
  region R do i = 1, 8
    do t = 1, n
      if (t > 1) x(i, t) = x(i, t - 1) + 1
      if (n > 2) then
        y(i) = y(i) + x(i, t)
      end if
    end do
    liveout x, y
  end region
end program
"""

    #: The smallest cap this body records under; each ``DO`` entry and
    #: iteration, ``IF`` and assignment counts one execution.
    CAP = 30

    @pytest.mark.parametrize("cap, records", [(CAP, True), (CAP - 1, False)])
    def test_body_trips_the_cap(self, cap, records, monkeypatch):
        program = parse_program(self.SOURCE)
        monkeypatch.setattr(trace_mod, "MAX_TRACE_EVENTS", cap)
        if records:
            record_for(program, program.regions[0])
        else:
            with pytest.raises(TraceError, match=f"exceeds {cap} events"):
                record_for(program, program.regions[0])


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
        base = run_ast(program)
        fast = run_program(program)
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
        base = run_ast(program)
        fast = run_program(program)
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
