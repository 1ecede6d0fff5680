"""Executor semantics: DO bounds, guards, op budget, cost cache."""

import gc

import pytest

from conftest import drive_stream
from repro.ir.dsl import parse_program, parse_statements
from repro.ir.expr import BinOp, Var
from repro.ir.stmt import Assign
from repro.runtime.errors import SimulationError
from repro.runtime.executor import (
    _COST_CACHE,
    _compute_cost,
    ReadOp,
    WriteOp,
    segment_coroutine,
)
from repro.runtime.interpreter import run_program
from repro.runtime.memory import MemoryImage, same_value


def _scalar_memory(*names: str) -> MemoryImage:
    from repro.ir.symbols import SymbolTable

    table = SymbolTable()
    for name in names:
        table.scalar(name)
    return MemoryImage(table)


def run_body(source_body: str, decls: str):
    src = f"program t\n{decls}\n  init\n{source_body}\n  end init\nend program"
    prog = parse_program(src)
    memory = MemoryImage(prog.symbols)
    ops = drive_stream(segment_coroutine(prog.init), memory)
    return memory, ops


class TestDoLoops:
    def test_upward_bounds_inclusive(self):
        memory, _ = run_body(
            "    do i = 1, 4\n      a(i) = i\n    end do", "  real a(4)"
        )
        assert [memory.read("a", (i,)) for i in range(1, 5)] == [1, 2, 3, 4]

    def test_negative_step_count_down(self):
        memory, ops = run_body(
            "    do i = 4, 1, -1\n      a(i) = 10 - i\n    end do", "  real a(4)"
        )
        writes = [op for op in ops if isinstance(op, WriteOp)]
        assert [w.subscripts[0] for w in writes] == [4, 3, 2, 1]

    def test_zero_trip_loop_executes_nothing(self):
        memory, ops = run_body(
            "    do i = 5, 1\n      a(i) = 1\n    end do", "  real a(5)"
        )
        assert not [op for op in ops if isinstance(op, WriteOp)]

    def test_zero_step_raises(self):
        stmts = parse_statements("do i = 1, 4, 0\n  s = 1\nend do")
        with pytest.raises(SimulationError, match="zero step"):
            drive_stream(segment_coroutine(stmts), _scalar_memory("s"))

    def test_index_shadowing_restored(self):
        body = (
            "    do i = 1, 2\n"
            "      do i = 5, 6\n"
            "        a(i) = 1\n"
            "      end do\n"
            "      b(i) = i\n"
            "    end do"
        )
        memory, _ = run_body(body, "  real a(6), b(2)")
        assert memory.read("b", (1,)) == 1
        assert memory.read("b", (2,)) == 2


class TestGuards:
    def test_guarded_assign_skips_store(self):
        memory, ops = run_body(
            "    if (0 > 1) a(1) = 5\n    if (2 > 1) a(2) = 7", "  real a(2)"
        )
        writes = [op for op in ops if isinstance(op, WriteOp)]
        assert len(writes) == 1
        assert memory.read("a", (2,)) == 7
        assert memory.read("a", (1,)) == 0.0

    def test_guard_reads_come_before_rhs_reads(self):
        memory, ops = run_body(
            "    if (g > 0) a(1) = b(1)", "  real a(1), b(1) = 3, g = 1"
        )
        reads = [op.variable for op in ops if isinstance(op, ReadOp)]
        assert reads == ["g", "b"]


class TestOpBudget:
    def test_budget_exceeded_raises(self):
        stmts = parse_statements("do i = 1, 1000\n  s = i\nend do")
        with pytest.raises(SimulationError, match="operation budget"):
            drive_stream(
                segment_coroutine(stmts, op_budget=50), _scalar_memory("s")
            )

    def test_budget_not_hit_for_small_body(self):
        ops = drive_stream(
            segment_coroutine(parse_statements("s = 1"), op_budget=10),
            _scalar_memory("s"),
        )
        assert ops  # completed without raising


class TestCostCache:
    def test_cost_counts_operators(self):
        stmt = Assign("x", BinOp("+", Var("a"), BinOp("*", Var("b"), Var("c"))))
        assert _compute_cost(stmt, stmt.rhs) == 4  # 1 + add (1) + multiply (2)

    def test_cache_entry_dies_with_statement(self):
        # Regression: the cache used to be keyed by id(stmt); a new
        # statement reusing a dead statement's address silently got the
        # old cost.  With weak keying the entry disappears instead.
        stmt = Assign("x", BinOp("+", Var("a"), Var("b")))
        _compute_cost(stmt, stmt.rhs)
        assert stmt in _COST_CACHE
        before = len(_COST_CACHE)
        del stmt
        gc.collect()
        assert len(_COST_CACHE) < before

    def test_distinct_statements_get_distinct_costs(self):
        cheap = Assign("x", Var("a"))
        costly = Assign("x", BinOp("+", Var("a"), BinOp("*", Var("b"), Var("c"))))
        assert _compute_cost(cheap, cheap.rhs) == 1
        assert _compute_cost(costly, costly.rhs) == 4


class TestSequentialInterpreter:
    def test_program_end_to_end(self):
        src = """
program t
  real a(8), total
  init
    do i = 1, 8
      a(i) = i
    end do
  end init
  region SUM do i = 1, 8
    total = total + a(i)
    liveout total
  end region
  finale
    total = total * 2
  end finale
end program
"""
        result = run_program(parse_program(src))
        assert result.value_of("total") == 2 * sum(range(1, 9))
        assert result.stats.segments_committed == 8

    def test_explicit_region_branching(self):
        src = """
program t
  real x, y
  region R explicit
    segment A
      x = 1
      branch (x > 0)
    end segment
    segment B
      y = 10
    end segment
    segment C
      y = 20
    end segment
    edges A -> B, C
    liveout y
  end region
end program
"""
        result = run_program(parse_program(src))
        assert result.value_of("y") == 10  # branch taken -> first successor


class TestMemoryDifferences:
    """``MemoryImage.differences`` returns at once when both images
    store equal values; every case must match the address-by-address
    comparison."""

    @staticmethod
    def slow_differences(a, b, variables=None, tolerance=1e-9):
        wanted = set(variables) if variables is not None else None
        diffs = {}
        for addr in set(a._values) | set(b._values):
            if wanted is not None and addr[0] not in wanted:
                continue
            x, y = a.load(addr), b.load(addr)
            if not same_value(x, y) and (
                tolerance == 0.0
                or abs(x - y) > tolerance * max(1.0, abs(x), abs(y))
            ):
                diffs[addr] = (x, y)
        return diffs

    @staticmethod
    def images(left, right):
        from repro.ir.symbols import SymbolTable

        table = SymbolTable()
        table.scalar("x", initial=2.0)
        table.scalar("y")
        table.array("v", (4,), initial=1.0)
        a, b = MemoryImage(table), MemoryImage(table)
        a._values.update(left)
        b._values.update(right)
        return a, b

    NAN = float("nan")
    CASES = {
        "same NaN object": ({("x", 0): NAN}, {("x", 0): NAN}),
        "distinct NaNs": ({("x", 0): NAN}, {("x", 0): float("nan")}),
        "signed zeros": ({("y", 0): -0.0, ("v", 1): 0.0}, {("y", 0): 0.0, ("v", 1): -0.0}),
        "one side at the initial value": ({("x", 0): 2.0, ("v", 2): 1.0}, {}),
        "one side off the initial value": ({("v", 2): 1.5}, {}),
        "near values": ({("y", 0): 1.0}, {("y", 0): 1.0 + 1e-12}),
        "far values": ({("y", 0): 1.0, ("v", 0): 3.0}, {("y", 0): 1.5, ("v", 0): 3.0}),
        "equal": ({("y", 0): 1.0, ("v", 3): NAN}, {("y", 0): 1.0, ("v", 3): NAN}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_slow_path(self, case):
        a, b = self.images(*self.CASES[case])
        for tolerance in (0.0, 1e-9, 0.5):
            for variables in (None, ["y"], ["x", "v"], []):
                for left, right in ((a, b), (b, a)):
                    got = left.differences(right, variables, tolerance)
                    expected = self.slow_differences(left, right, variables, tolerance)
                    assert got.keys() == expected.keys()
                    for addr, (x, y) in got.items():
                        assert same_value(x, expected[addr][0])
                        assert same_value(y, expected[addr][1])

    def test_exact_verdicts(self):
        a, b = self.images(*self.CASES["distinct NaNs"])
        assert a.differences(b, tolerance=0.0) == {}
        a, b = self.images(*self.CASES["one side off the initial value"])
        assert a.differences(b, tolerance=0.0) == {("v", 2): (1.5, 1.0)}
        a, b = self.images(*self.CASES["near values"])
        assert list(a.differences(b, tolerance=0.0)) == [("y", 0)]
        assert a.differences(b) == {}
