"""DSL front-end contract: expression trees, error messages, keyword
statements and the printer round trip."""

import importlib.util
import os
import sys

import pytest

from repro.corpus.generator import corpus
from repro.ir.dsl import DSLSyntaxError, parse_expression, parse_program
from repro.ir.expr import BinOp, Call, Const, ExpressionError, Index, UnaryOp, Var
from repro.ir.printer import format_program
from repro.ir.region import ExplicitRegion, LoopRegion
from repro.ir.stmt import Assign, Do, If


def shape(expr):
    """``expr`` as nested tuples, with the Python type of every constant
    (``Const(1) == Const(1.0)``, so ``==`` alone would not tell them apart)."""
    if isinstance(expr, Const):
        return ("const", type(expr.value).__name__, expr.value)
    if isinstance(expr, Var):
        return ("var", expr.name)
    if isinstance(expr, Index):
        return ("index", expr.name, tuple(shape(s) for s in expr.subscripts))
    if isinstance(expr, Call):
        return ("call", expr.func, tuple(shape(a) for a in expr.args))
    if isinstance(expr, BinOp):
        return (expr.op, shape(expr.left), shape(expr.right))
    if isinstance(expr, UnaryOp):
        return ("unary" + expr.op, shape(expr.operand))
    raise TypeError(expr)


def I(value):  # noqa: E743 - short golden-table constructors
    return ("const", "int", value)


def F(value):
    return ("const", "float", value)


def V(name):
    return ("var", name)


def X(name, *subs):
    return ("index", name, subs)


def C(func, *args):
    return ("call", func, args)


def B(op, left, right):
    return (op, left, right)


def U(op, operand):
    return ("unary" + op, operand)


a, b, c, d = V("a"), V("b"), V("c"), V("d")

GOLDEN = [
    # additive and multiplicative levels, left-associative
    ("a + b * c", B("+", a, B("*", b, c))),
    ("a - b - c", B("-", B("-", a, b), c)),
    ("a / b * c % d", B("%", B("*", B("/", a, b), c), d)),
    ("(a + b) * c", B("*", B("+", a, b), c)),
    ("a * b + c * d", B("+", B("*", a, b), B("*", c, d))),
    # power: right-associative, tighter than unary minus, unary right operand
    ("a ** b ** c", B("**", a, B("**", b, c))),
    ("-a ** 2", U("-", B("**", a, I(2)))),
    ("a ** -b", B("**", a, U("-", b))),
    ("a ** -b ** c", B("**", a, U("-", B("**", b, c)))),
    ("a * b ** c", B("*", a, B("**", b, c))),
    ("a(1) ** 2 + b", B("+", B("**", X("a", I(1)), I(2)), b)),
    # unary minus binds tighter than * and +; unary plus is dropped
    ("-a * b", B("*", U("-", a), b)),
    ("a * -b", B("*", a, U("-", b))),
    ("a - -b", B("-", a, U("-", b))),
    ("- -a", U("-", U("-", a))),
    ("+a", a),
    ("+-a", U("-", a)),
    ("-+a", U("-", a)),
    ("a + +b", B("+", a, b)),
    # comparison: one per level, looser than arithmetic
    ("a < b + 1", B("<", a, B("+", b, I(1)))),
    ("a <= b", B("<=", a, b)),
    ("a > b", B(">", a, b)),
    ("a >= b", B(">=", a, b)),
    ("a == b", B("==", a, b)),
    ("a != b", B("!=", a, b)),
    ("(a < b) < c", B("<", B("<", a, b), c)),
    # not sits between and and comparison
    ("not a < b", U("not", B("<", a, b))),
    ("not not a", U("not", U("not", a))),
    ("not a and b", B("and", U("not", a), b)),
    ("a and not b", B("and", a, U("not", b))),
    ("a or b and c", B("or", a, B("and", b, c))),
    ("a and b or c and d", B("or", B("and", a, b), B("and", c, d))),
    ("a or b or c", B("or", B("or", a, b), c)),
    ("a and b and c", B("and", B("and", a, b), c)),
    ("a < b and c >= d or not a == b",
     B("or", B("and", B("<", a, b), B(">=", c, d)), U("not", B("==", a, b)))),
    # keyword operators in any case
    ("a AND b", B("and", a, b)),
    ("NOT a Or b", B("or", U("not", a), b)),
    # number forms
    ("10", I(10)),
    ("1.0", F(1.0)),
    ("1.", F(1.0)),
    (".5", F(0.5)),
    ("1e3", F(1000.0)),
    ("1E-2", F(0.01)),
    ("1d3", F(1000.0)),
    ("2.5D+1", F(25.0)),
    (".5e1", F(5.0)),
    ("0", I(0)),
    # intrinsic calls (any case, lowered) vs array elements (name kept)
    ("mod(i, 2)", C("mod", V("i"), I(2))),
    ("MOD(i, 2)", C("mod", V("i"), I(2))),
    ("Min(a, b, c)", C("min", a, b, c)),
    ("sqrt(a + 1.0)", C("sqrt", B("+", a, F(1.0)))),
    ("sqrt()", C("sqrt")),
    ("A(i)", X("A", V("i"))),
    ("a(i, j + 1)", X("a", V("i"), B("+", V("j"), I(1)))),
    ("a(b(i), mod(j, 2) + 1)", X("a", X("b", V("i")), B("+", C("mod", V("j"), I(2)), I(1)))),
    ("a(i < j)", X("a", B("<", V("i"), V("j")))),
    ("a((i))", X("a", V("i"))),
    ("  a  +b ", B("+", a, b)),
]


@pytest.mark.parametrize("text,expected", GOLDEN, ids=[t for t, _ in GOLDEN])
def test_expression_trees(text, expected):
    assert shape(parse_expression(text)) == expected


EXPRESSION_ERRORS = [
    ("a $ b", "unexpected character '$'"),
    ("a.b", "unexpected character '.'"),
    ("", "unexpected end of expression"),
    ("a +", "unexpected end of expression"),
    ("a(1,", "unexpected end of expression"),
    ("(a + b", "expected ')', got '<end>'"),
    ("a(1, 2", "expected ')', got '<end>'"),
    ("a(1 2)", "expected ')', got '2'"),
    ("a b", "trailing tokens after expression: 'b'"),
    ("a < b < c", "trailing tokens after expression: '<'"),
    ("a -> b", "trailing tokens after expression: '->'"),
    ("a)", "trailing tokens after expression: ')'"),
    ("1.2.3", "trailing tokens after expression: '.3'"),
    (")", "unexpected token ')'"),
    ("*a", "unexpected token '*'"),
    ("a(,)", "unexpected token ','"),
    ("a + not b", "unexpected token 'not'"),
    ("a < not b", "unexpected token 'not'"),
    ("-not a", "unexpected token 'not'"),
    ("a ** not b", "unexpected token 'not'"),
    ("a and", "unexpected end of expression"),
]


@pytest.mark.parametrize("text,message", EXPRESSION_ERRORS,
                         ids=[t or "<empty>" for t, _ in EXPRESSION_ERRORS])
def test_expression_errors(text, message):
    with pytest.raises(DSLSyntaxError) as info:
        parse_expression(text)
    assert str(info.value) == message
    with pytest.raises(DSLSyntaxError) as info:
        parse_expression(text, 7)
    assert str(info.value) == "line 7: " + message
    assert info.value.line_no == 7


def test_array_read_without_subscripts_is_an_expression_error():
    with pytest.raises(ExpressionError, match="array read of 'f' needs subscripts"):
        parse_expression("f()")


def _program(*body, region=None):
    lines = ["program p", "  real a(8), x(8), y"]
    if region is not None:
        lines += region
    lines += list(body)
    lines.append("end program")
    return "\n".join(lines)


def _loop(*body):
    return ["  region R do i = 1, 8", *body, "  end region"]


def _explicit(*body):
    return ["  region R explicit", *body, "  end region"]


PROGRAM_ERRORS = [
    ("", "unexpected end of input"),
    ("programme p\nend program", "line 1: expected 'program NAME'"),
    ("program p", "missing 'end program'"),
    (_program("  bogus"), "line 3: unexpected line at program level: 'bogus'"),
    (_program("  real 1x"), "line 3: bad declaration '1x'"),
    (_program("  real z(n)"), "line 3: array extents must be integer literals, got 'n'"),
    ("program p\n  init\n    y = 1", "missing one of ['end init'] before end of input"),
    ("program p\n  region R do i = 1, 8\n    y = 1", "missing 'end region'"),
    (_program(region=_loop("    do j = 1", "    end do")),
     "line 4: DO needs 'lower, upper[, step]'"),
    (_program(region=_loop("    do j = (1, 2", "    end do")),
     "line 4: unbalanced parentheses"),
    (_program(region=_loop("    y = 1)")), "line 4: trailing tokens after expression: ')'"),
    (_program(region=_loop("    y + 1")), "line 4: cannot parse statement 'y + 1'"),
    (_program(region=_loop("    if (y > 0)")),
     "line 4: guarded IF without a statement: 'if (y > 0)'"),
    (_program(region=_loop("    if (y > 0 y = 1")),
     "line 4: unbalanced parentheses in IF: 'if (y > 0 y = 1'"),
    (_program(region=_loop("    y = 1 +")), "line 4: unexpected end of expression"),
    (_program(region=["  region R do i = 1", "  end region"]),
     "line 3: region DO needs 'lower, upper[, step]'"),
    (_program(region=["  region R", "  end region"]),
     "line 3: cannot parse region header 'region R'"),
    (_program(region=["  region R do i = 1, 8", "    y = 1", "  end"]),
     "line 5: cannot parse statement 'end'"),
    (_program(region=_explicit("    segment")), "line 4: bad segment header 'segment'"),
    ("program p\n  region R explicit\n    segment S0\n      y = 1",
     "line 3: missing 'end segment'"),
    (_program(region=_explicit("    edges S0")), "line 4: bad edges line 'edges S0'"),
    (_program(region=_explicit("    y = 1")),
     "line 4: unexpected line inside explicit region: 'y = 1'"),
    ("program p\n  region R explicit", "line 2: missing 'end region'"),
    (_program(region=_explicit("    segment S0", "      branch (y >", "    end segment")),
     "line 5: unexpected end of expression"),
    # What the IR constructors reject is an error of the statement, region
    # header or declaration line.
    (_program(region=_loop("    x(i) = x()")), "line 4: array read of 'x' needs subscripts"),
    (_program(region=_loop("    x(i) = 1", "    i = 1")),
     "line 5: assignment to induction local 'i' is not allowed"),
    (_program(region=_loop("    do j = 1, 2", "      j = 3", "    end do")),
     "line 5: assignment to induction local 'j' is not allowed"),
    (_program(region=["  region R do i = 1, 2, 0", "    y = 1", "  end region"]),
     "line 3: loop region 'R' has zero step"),
    (_program("  real z = abc"), "line 3: could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize("source,message", PROGRAM_ERRORS)
def test_program_errors(source, message):
    with pytest.raises(DSLSyntaxError) as info:
        parse_program(source)
    assert str(info.value) == message


# ----------------------------------------------------------------------
# Keywords are whole words: a statement whose target starts with one is
# an ordinary assignment.
# ----------------------------------------------------------------------
def _only_statement(body):
    (stmt,) = body
    assert isinstance(stmt, Assign)
    return stmt


class TestKeywordPrefixes:
    def test_scalar_named_like_if(self):
        region = parse_program(_program(region=_loop("    iflag = 3"))).regions[0]
        stmt = _only_statement(region.body)
        assert (stmt.target, stmt.guard, shape(stmt.rhs)) == ("iflag", None, I(3))

    def test_array_named_like_if(self):
        region = parse_program(_program(region=_loop("    ifx(2) = 1.0"))).regions[0]
        stmt = _only_statement(region.body)
        assert stmt.target == "ifx" and stmt.guard is None
        assert [shape(s) for s in stmt.target_subscripts] == [I(2)]

    def test_scalar_named_like_liveout(self):
        source = _program(region=_loop("    liveoutx = a(i)", "    liveout liveoutx"))
        region = parse_program(source).regions[0]
        stmt = _only_statement(region.body)
        assert stmt.target == "liveoutx"
        assert region.live_out == {"liveoutx"}

    def test_scalar_named_like_branch(self):
        source = _program(region=_explicit(
            "    segment S0", "      branchy = 1", "      branch (branchy > 0)",
            "    end segment",
        ))
        (segment,) = parse_program(source).regions[0].segments
        stmt = _only_statement(segment.body)
        assert stmt.target == "branchy"
        assert shape(segment.branch) == B(">", V("branchy"), I(0))

    def test_keywords_still_parse(self):
        source = _program(region=_explicit(
            "    segment S0", "      if(y > 0) y = 1", "      BRANCH y > 1",
            "    end segment", "    Segment S1", "      If (y > 0) Then",
            "        y = 2", "      end if", "    end segment",
            "    EDGES S0 -> S1", "    LIVEOUT y",
        ))
        region = parse_program(source).regions[0]
        assert isinstance(region, ExplicitRegion)
        first, second = region.segments
        assert shape(first.body[0].guard) == B(">", V("y"), I(0))
        assert shape(first.branch) == B(">", V("y"), I(1))
        assert isinstance(second.body[0], If)
        assert region.live_out == {"y"}


# ----------------------------------------------------------------------
# Printer round trip
# ----------------------------------------------------------------------
def _statement_shapes(body):
    for stmt in body:
        if isinstance(stmt, Assign):
            yield ("assign", stmt.target,
                   tuple(shape(s) for s in stmt.target_subscripts),
                   shape(stmt.rhs),
                   shape(stmt.guard) if stmt.guard is not None else None)
        elif isinstance(stmt, If):
            yield ("if", shape(stmt.cond))
            yield from _statement_shapes(stmt.then_body)
            yield ("else",)
            yield from _statement_shapes(stmt.else_body)
        elif isinstance(stmt, Do):
            yield ("do", stmt.index, shape(stmt.lower), shape(stmt.upper), shape(stmt.step))
            yield from _statement_shapes(stmt.body)
        yield ("end",)


def program_shapes(program):
    """Every statement and expression of ``program``, structurally."""
    out = list(_statement_shapes(program.init))
    for region in program.regions:
        if isinstance(region, LoopRegion):
            out.append(("region", region.name, region.index, shape(region.lower),
                        shape(region.upper), shape(region.step),
                        sorted(region.live_out or ())))
            out += _statement_shapes(region.body)
        else:
            out.append(("explicit", region.name, sorted(region.live_out or ())))
            for segment in region.segments:
                out.append(("segment", segment.name,
                            shape(segment.branch) if segment.branch is not None else None))
                out += _statement_shapes(segment.body)
    out += _statement_shapes(program.finale)
    return out


def _cold_pool_sources():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(root, "perfbench", "inputs.py")
    )
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    try:
        spec.loader.exec_module(inputs)
    finally:
        del sys.modules[spec.name]
    return [base.source for base in inputs.cold_pool(1)] + inputs.mix_sources(1)


def test_format_parse_round_trip():
    programs = [program for _, program in corpus(300, 7)]
    programs += [parse_program(source) for source in _cold_pool_sources()]
    for program in programs:
        text = format_program(program)
        again = parse_program(text)
        assert format_program(again) == text, program.name
        assert program_shapes(again) == program_shapes(program), program.name
    assert len(programs) == 312


# ----------------------------------------------------------------------
# '!=' is an operator in program text, not the start of a comment
# ----------------------------------------------------------------------
NOT_EQUAL = _program(region=_loop("    if (x(i) != 0) a(i) = 1  ! a comment != one",
                                  "    y = x(i) != a(i)   # another"))


def test_not_equal_in_program_text():
    guarded, compare = parse_program(NOT_EQUAL).regions[0].body
    assert shape(guarded.guard) == B("!=", X("x", V("i")), I(0))
    assert shape(guarded.rhs) == I(1)
    assert shape(compare.rhs) == B("!=", X("x", V("i")), X("a", V("i")))


def test_not_equal_guard_round_trip():
    program = parse_program(NOT_EQUAL)
    text = format_program(program)
    assert "!=" in text
    again = parse_program(text)
    assert format_program(again) == text
    assert program_shapes(again) == program_shapes(program)


# ----------------------------------------------------------------------
# Front-end differential oracle: the references of a program built
# through the checking constructors equal those of its printed text.
# ----------------------------------------------------------------------
def _reference_fields(program):
    out = []
    for region in program.regions:
        for ref in region.references:
            out.append((
                ref.uid, ref.variable, ref.access,
                tuple(shape(s) for s in ref.subscripts),
                ref.order, ref.conditional, ref.in_inner_loop, ref.is_control,
                ref.segment, ref.stmt.sid,
                tuple(do.sid for do in ref.enclosing_loops),
            ))
    return out


def _oracle_programs():
    programs = [program for _, program in corpus(300, 7)]
    programs += [parse_program(source) for source in _cold_pool_sources()]
    return programs


def test_printed_programs_have_the_same_references():
    references = 0
    for program in _oracle_programs():
        expected = _reference_fields(program)
        assert _reference_fields(parse_program(format_program(program))) == expected, (
            program.name
        )
        references += len(expected)
    assert references > 9000


def _generator_reads(expr):
    """The read order of :meth:`Expr.reads` as nested generators:
    subscripts before the element they index, left before right operand,
    arguments left to right."""
    if isinstance(expr, Var):
        yield (expr.name, ())
    elif isinstance(expr, Index):
        for sub in expr.subscripts:
            yield from _generator_reads(sub)
        yield (expr.name, expr.subscripts)
    elif isinstance(expr, BinOp):
        yield from _generator_reads(expr.left)
        yield from _generator_reads(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _generator_reads(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _generator_reads(arg)


def _statement_expressions(body):
    for stmt in body:
        if isinstance(stmt, Assign):
            yield stmt.rhs
            yield from stmt.target_subscripts
            if stmt.guard is not None:
                yield stmt.guard
        elif isinstance(stmt, If):
            yield stmt.cond
            yield from _statement_expressions(stmt.then_body)
            yield from _statement_expressions(stmt.else_body)
        elif isinstance(stmt, Do):
            yield from (stmt.lower, stmt.upper, stmt.step)
            yield from _statement_expressions(stmt.body)


def test_read_list_walk_matches_generator_order():
    occurrences = 0
    for program in _oracle_programs():
        exprs = list(_statement_expressions(program.init + program.finale))
        for region in program.regions:
            if isinstance(region, LoopRegion):
                exprs += [region.lower, region.upper, region.step]
            exprs += _statement_expressions(
                [s for name in region.segment_names() for s in region.segment_body(name)]
            )
            if isinstance(region, ExplicitRegion):
                exprs += [s.branch for s in region.segments if s.branch is not None]
        for expr in exprs:
            reads = expr.reads()
            assert [(o.name, o.subscripts) for o in reads] == list(_generator_reads(expr))
            assert all(o.is_array == bool(o.subscripts) for o in reads)
            occurrences += len(reads)
    assert occurrences > 10000
