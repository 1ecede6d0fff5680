"""Programs are freed by reference counting alone.

Statements own their references, a reference never points back into the
statement tree (it names its enclosing loops by their ``LoopHeader``), and
the expression parser leaves no closure cycle behind, on the error path
too.  So a program the daemon parses and later evicts dies at once, and
its cold path leaves nothing for the cycle collector.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from conftest import perfbench_inputs
from repro.ir.builder import program_from_json
from repro.ir.dsl import DSLSyntaxError, parse_expression, parse_program
from repro.ir.region import LoopRegion
from repro.ir.stmt import Assign, Do, If
from repro.serve.dispatch import Dispatcher
from repro.serve.protocol import Request


#: The first cold-pool program of each family.
COLD = {}
for _base in perfbench_inputs().cold_pool(1):
    COLD.setdefault(_base.family, _base.source)


@contextmanager
def _collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _cyclic_garbage(build):
    """The number of objects that ``build()`` leaves to the cycle
    collector (it runs once uncounted first, so first-use caches are full)."""
    build()
    with _collector_off():
        build()
        return gc.collect()


def _stmt_json(stmt):
    if isinstance(stmt, Assign):
        node = {"target": stmt.target, "rhs": str(stmt.rhs),
                "subscripts": [str(s) for s in stmt.target_subscripts]}
        if stmt.guard is not None:
            node["guard"] = str(stmt.guard)
        return node
    if isinstance(stmt, Do):
        return {"kind": "do", "index": stmt.index, "lower": str(stmt.lower),
                "upper": str(stmt.upper), "step": str(stmt.step),
                "body": [_stmt_json(s) for s in stmt.body]}
    assert isinstance(stmt, If)
    return {"kind": "if", "cond": str(stmt.cond),
            "then": [_stmt_json(s) for s in stmt.then_body],
            "else": [_stmt_json(s) for s in stmt.else_body]}


def _program_json(program):
    """The JSON IR of a program of loop regions."""
    symbols = {
        "scalars": [{"name": s.name, "initial": s.initial} for s in program.symbols.scalars()],
        "arrays": [{"name": s.name, "shape": list(s.shape), "initial": s.initial}
                   for s in program.symbols.arrays()],
    }
    regions = []
    for region in program.regions:
        assert isinstance(region, LoopRegion)
        regions.append({
            "kind": "loop", "name": region.name, "index": region.index,
            "lower": str(region.lower), "upper": str(region.upper),
            "step": str(region.step), "body": [_stmt_json(s) for s in region.body],
            "live_out": sorted(region.live_out or ()),
            "speculative": region.speculative_hint,
        })
    return {"name": program.name, "symbols": symbols,
            "init": [_stmt_json(s) for s in program.init],
            "regions": regions,
            "finale": [_stmt_json(s) for s in program.finale]}


@pytest.mark.parametrize("family", sorted(COLD))
def test_parsed_program_leaves_no_cycle(family):
    assert _cyclic_garbage(lambda: parse_program(COLD[family])) == 0


@pytest.mark.parametrize("family", sorted(COLD))
def test_json_program_leaves_no_cycle(family):
    payload = _program_json(parse_program(COLD[family]))
    assert program_from_json(payload).regions[0].references  # a real program
    assert _cyclic_garbage(lambda: program_from_json(payload)) == 0


@pytest.mark.parametrize("line", [
    "a(i) = (a(i) + 1",       # unclosed parenthesis, deep in the parser
    "a(i) = a(i) + * 2",      # unexpected token
    "a(i) = a(i) $ 2",        # bad character
    "a(i,, j) = 1",           # subscript list falls back to the text split
    "a(i) = 1 2",             # trailing tokens
    "a(i) = b() + 1",         # array read without subscripts
])
def test_malformed_line_leaves_no_cycle(line):
    source = COLD["stencil"].replace(
        "      a(i, j) = 0.25", f"      {line}\n      a(i, j) = 0.25", 1
    )

    def build():
        try:
            parse_program(source)
        except DSLSyntaxError:
            pass
        else:  # pragma: no cover - the line must be rejected
            raise AssertionError(f"{line!r} parsed")

    assert _cyclic_garbage(build) == 0


def test_malformed_expression_leaves_no_cycle():
    def build():
        for text in ("(1 + 2", "1 +", "x(1, 2", "1 # 2", "sqrt(1, (2)"):
            try:
                parse_expression(text)
            except DSLSyntaxError:
                pass

    assert _cyclic_garbage(build) == 0


def test_evicted_program_is_freed_at_once():
    warm = {"dsl": COLD["guarded"]}
    first = {"dsl": COLD["stencil"]}
    second = {"dsl": COLD["sparse"]}
    dispatcher = Dispatcher(max_programs=1)

    def requests(params):
        for method, extra in (("analyze", {}), ("label", {}),
                              ("simulate", {"engine": "case", "capacity": 8})):
            response = dispatcher.dispatch(Request(method, dict(params, **extra), 1))
            assert "result" in response, response

    requests(warm)  # first-use imports and caches
    with _collector_off():
        requests(first)
        program = dispatcher.resolve_program(first)
        region = weakref.ref(program.regions[0])
        reference = weakref.ref(program.regions[0].references[-1])
        del program
        assert region() is not None and reference() is not None
        dispatcher.resolve_program(second)
        assert region() is None
        assert reference() is None
        # Nor did the requests or the eviction leave the collector anything.
        assert gc.collect() == 0
