"""Fortran-flavoured text front end.

The evaluation workloads of the paper are Fortran loop nests; this
module provides a small, line-oriented language in which those loop
nests (and the explicit-segment worked examples) can be written as
plain text and parsed into the IR.  Example::

    program jacobi
      integer n = 64
      real a(64, 64), b(64, 64)

      init
        do j = 1, 64
          do i = 1, 64
            a(i, j) = i + 2 * j
          end do
        end do
      end init

      region SWEEP_DO10 speculative do j = 2, 63
        do i = 2, 63
          b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
        end do
        liveout b
      end region

      finale
        checksum = b(2, 2) + b(63, 63)
      end finale
    end program

Explicit-segment regions (used by the Figure 2 / Figure 3 examples)::

      region R explicit
        segment R0
          a = b + 1
        end segment
        segment R1
          c = a * 2
        end segment
        edges R0 -> R1
        liveout c
      end region

Comments start with ``#``, or with a ``!`` that does not begin ``!=``, and
run to the end of the line.
Declarations use ``real`` / ``integer`` (treated identically) and may
carry initial values for scalars.  ``liveout`` lines inside a region
list the variables that are live after the region.  A region may be
marked ``speculative`` (force speculative execution) or ``parallel``
(assert that the compiler may run it as a conventional parallel loop);
without a marker the compiler's dependence analysis decides.
"""

from __future__ import annotations

import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.expr import (
    BinOp, Call, Const, Expr, ExpressionError, Index, UnaryOp, Var, intrinsics)
from repro.ir.program import Program, ProgramError
from repro.ir.region import ExplicitRegion, LoopRegion, Region, RegionError
from repro.ir.segment import Segment, SegmentError
from repro.ir.stmt import Assign, Do, If, Statement, StatementError
from repro.ir.symbols import SymbolError, SymbolTable


class DSLSyntaxError(Exception):
    """Raised on any parse failure, carrying the offending line number."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


# ----------------------------------------------------------------------
# Expression tokenizer / parser
# ----------------------------------------------------------------------
#: One group, so ``findall`` returns plain strings.  Names, operators and
#: numbers start with different characters, so their order does not matter.
_TOKEN_RE = re.compile(
    r"""
    \s*(
    [A-Za-z_][A-Za-z_0-9]*
  | \*\*|<=|>=|==|!=|->|[-+*/%(),<>=]
  | \d+\.\d*(?:[eEdD][-+]?\d+)?|\.\d+(?:[eEdD][-+]?\d+)?|\d+(?:[eEdD][-+]?\d+)?
  | \S
)""",
    re.VERBOSE,
)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
#: Every spelling of a keyword operator, to its lowercase form: the parser
#: looks names up instead of lowercasing each one.
_KEYWORDS: Dict[str, str] = {
    "".join(s): w for w in ("and", "or", "not") for s in itertools.product(*zip(w, w.upper()))
}

# Binding levels, loosest first: or 1, and 2, prefix not 3, comparison 4,
# + - 5, * / % 6, prefix - + 7, ** 8.  Per binary operator: its level, its
# right operand's level, and the highest level an operator taking the result
# as left operand may have (comparison is non-associative, ** right-associative).
_BINARY: Dict[str, Tuple[int, int, int]] = {
    "or": (1, 2, 1), "and": (2, 3, 2), "**": (8, 7, 8),
    **{op: (4, 5, 3) for op in ("<", "<=", ">", ">=", "==", "!=")},
    **{op: (5, 6, 5) for op in "+-"},
    **{op: (6, 7, 6) for op in "*/%"},
}
_NOT_LEVEL = 3
_SIGN_LEVEL = 7
_PRIMARY = 9
_INTRINSICS = frozenset(intrinsics())
_new = object.__new__


def _is_bad(token: str) -> bool:
    """True for a character no token starts with (the ``\\S`` fallback):
    every other one-character token is a name, a digit or an operator."""
    return len(token) == 1 and not (
        token in _NAME_START or token.isdecimal() or token in _BINARY or token in "(),="
    )


def _parse_tokens(
    tokens: List[str], start: int, end: int, line_no: Optional[int], many: bool = False
):
    """Parse all of ``tokens[start:end]`` as one expression (with ``many``, a
    comma-separated list) by precedence climbing.  ``Const``, ``Var``,
    ``Index`` and ``BinOp`` skip their constructors' checks, which the grammar
    guarantees.  A bad character is reported in place of any other error."""
    pos = start

    def expect_close() -> None:
        nonlocal pos
        if pos < end and tokens[pos] == ")":
            pos += 1
            return
        got = _KEYWORDS.get(tokens[pos], tokens[pos]) if pos < end else "<end>"
        raise DSLSyntaxError(f"expected ')', got {got!r}", line_no)

    def parse(min_level: int) -> Expr:
        nonlocal pos
        if pos >= end:
            raise DSLSyntaxError("unexpected end of expression", line_no)
        token = tokens[pos]
        pos += 1
        lhs: Expr
        limit = _PRIMARY
        first = token[0]
        if first in _NAME_START and token not in _KEYWORDS:
            if pos < end and tokens[pos] == "(":
                pos += 1
                args = []
                if pos >= end or tokens[pos] != ")":
                    args.append(parse(1))
                    while pos < end and tokens[pos] == ",":
                        pos += 1
                        args.append(parse(1))
                expect_close()
                func = token.lower()
                if func in _INTRINSICS:
                    lhs = Call(func, args)
                elif not args:
                    raise ExpressionError(f"array read of {token!r} needs subscripts")
                else:
                    lhs = _new(Index)
                    lhs.name, lhs.subscripts = token, tuple(args)
            else:
                lhs = _new(Var)
                lhs.name = token
        elif first.isdecimal() or (first == "." and len(token) > 1):
            lhs = _new(Const)
            lhs.value = (
                int(token) if token.isdigit()
                else float(token.lower().replace("d", "e"))
            )
        else:
            token = _KEYWORDS.get(token, token)
            if token == "(":
                lhs = parse(1)
                expect_close()
            elif token == "-":
                lhs, limit = UnaryOp("-", parse(_SIGN_LEVEL)), _SIGN_LEVEL - 1
            elif token == "+":
                lhs, limit = parse(_SIGN_LEVEL), _SIGN_LEVEL - 1
            elif token == "not" and min_level <= _NOT_LEVEL:
                lhs, limit = UnaryOp("not", parse(_NOT_LEVEL)), _NOT_LEVEL - 1
            else:
                raise DSLSyntaxError(f"unexpected token {token!r}", line_no)
        while pos < end:
            op = tokens[pos]
            op = _KEYWORDS.get(op, op)
            binding = _BINARY.get(op)  # no name or number is an operator
            if binding is None:
                break
            level, right_level, result_limit = binding
            if level < min_level or level > limit:
                break
            pos += 1
            node = _new(BinOp)
            node.op, node.left, node.right = op, lhs, parse(right_level)
            lhs = node
            limit = result_limit
        return lhs

    try:
        if many:
            result = []
            if pos < end:
                result.append(parse(1))
                while pos < end and tokens[pos] == ",":
                    pos += 1
                    result.append(parse(1))
        else:
            result = parse(1)
        if pos < end:
            token = _KEYWORDS.get(tokens[pos], tokens[pos])
            raise DSLSyntaxError(f"trailing tokens after expression: {token!r}", line_no)
    except (DSLSyntaxError, ExpressionError):
        for token in tokens[start:end]:
            if _is_bad(token):
                raise DSLSyntaxError(
                    f"unexpected character {token!r}", line_no
                ) from None
        raise
    return result


def parse_expression(text: str, line_no: Optional[int] = None) -> Expr:
    """Parse one expression string into an :class:`Expr`."""
    tokens = _TOKEN_RE.findall(text)
    return _parse_tokens(tokens, 0, len(tokens), line_no)


# ----------------------------------------------------------------------
# Line-oriented program parser
# ----------------------------------------------------------------------
@dataclass
class _Line:
    no: int
    text: str


_COMMENT_RE = re.compile(r"!(?!=)|#")
_DO_RE = re.compile(
    r"^do\s+(?P<index>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*(?P<rest>.+)$", re.IGNORECASE
)
_IF_THEN_RE = re.compile(r"^if\s*\((?P<cond>.+)\)\s*then$", re.IGNORECASE)
_GUARDED_IF_RE = re.compile(r"^if\s*\(", re.IGNORECASE)


def _split_guarded_if(text: str, line_no: int) -> Tuple[str, str]:
    """Split ``if (<cond>) <statement>`` into its condition and statement.

    The condition may itself contain parentheses, so the closing paren is
    found by balance counting rather than by a regular expression.
    """
    open_pos = text.index("(")
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                cond = text[open_pos + 1 : i]
                stmt = text[i + 1 :].strip()
                if not stmt:
                    raise DSLSyntaxError(
                        f"guarded IF without a statement: {text!r}", line_no
                    )
                return cond, stmt
    raise DSLSyntaxError(f"unbalanced parentheses in IF: {text!r}", line_no)


_REGION_LOOP_RE = re.compile(
    r"^region\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*(?P<hint>speculative|parallel)?\s*"
    r"do\s+(?P<index>[A-Za-z_][A-Za-z_0-9]*)\s*=\s*(?P<rest>.+)$",
    re.IGNORECASE,
)
_REGION_EXPLICIT_RE = re.compile(
    r"^region\s+(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s*(?P<hint>speculative|parallel)?\s*explicit$",
    re.IGNORECASE,
)
_DECL_RE = re.compile(
    r"^(?:real|integer|double)\s+(?P<rest>.+)$", re.IGNORECASE
)


def _split_top_level_commas(text: str, line_no: int) -> List[str]:
    """Split on commas that are not nested in parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DSLSyntaxError("unbalanced parentheses", line_no)
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise DSLSyntaxError("unbalanced parentheses", line_no)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


#: Errors the IR constructors raise on a malformed program.
_IR_ERRORS = (ExpressionError, StatementError, RegionError, SegmentError, SymbolError,
              ProgramError, ValueError)


@contextmanager
def _at_line(line_no: int, statement_line: Optional[int] = None) -> Iterator[None]:
    """Report IR constructor errors as syntax errors of ``line_no``, or of
    ``statement_line`` for a ``StatementError`` when that line is known."""
    try:
        yield
    except _IR_ERRORS as exc:
        if isinstance(exc, StatementError) and statement_line is not None:
            line_no = statement_line
        raise DSLSyntaxError(str(exc), line_no) from None


class _ProgramParser:
    """Parses the full line-oriented program grammar."""

    def __init__(self, source: str):
        self.lines: List[_Line] = []
        for no, raw in enumerate(source.splitlines(), start=1):
            comment = _COMMENT_RE.search(raw)
            text = (raw[: comment.start()] if comment else raw).strip()
            if text:
                self.lines.append(_Line(no, text))
        self.pos = 0
        #: Induction locals in scope (region and DO indices) and the line of
        #: the region's first assignment to one, which its constructor rejects.
        self.induction: frozenset = frozenset()
        self.local_write: Optional[int] = None

    # -- line helpers --------------------------------------------------
    def peek(self) -> Optional[_Line]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def advance(self) -> _Line:
        line = self.peek()
        if line is None:
            raise DSLSyntaxError("unexpected end of input")
        self.pos += 1
        return line

    def expect_keyword(self, keyword: str) -> _Line:
        line = self.advance()
        if line.text.lower() != keyword:
            raise DSLSyntaxError(f"expected {keyword!r}, got {line.text!r}", line.no)
        return line

    # -- program --------------------------------------------------------
    def parse_program(self) -> Program:
        line = self.advance()
        match = re.match(r"^program\s+([A-Za-z_][A-Za-z_0-9]*)$", line.text, re.I)
        if match is None:
            raise DSLSyntaxError("expected 'program NAME'", line.no)
        name, header = match.group(1), line.no
        symbols = SymbolTable()
        init: List[Statement] = []
        finale: List[Statement] = []
        regions: List[Region] = []

        while True:
            line = self.peek()
            if line is None:
                raise DSLSyntaxError("missing 'end program'")
            lower = line.text.lower()
            if lower == "end program":
                self.advance()
                break
            if _DECL_RE.match(line.text):
                self.advance()
                self._parse_declaration(line, symbols)
            elif lower == "init":
                self.advance()
                init.extend(self._parse_statement_block({"end init"}))
                self.expect_keyword("end init")
            elif lower == "finale":
                self.advance()
                finale.extend(self._parse_statement_block({"end finale"}))
                self.expect_keyword("end finale")
            elif lower.startswith("region"):
                regions.append(self._parse_region())
            else:
                raise DSLSyntaxError(
                    f"unexpected line at program level: {line.text!r}", line.no
                )
        with _at_line(header):
            return Program(name, symbols=symbols, init=init, regions=regions, finale=finale)

    # -- declarations ----------------------------------------------------
    def _parse_declaration(self, line: _Line, symbols: SymbolTable) -> None:
        rest = _DECL_RE.match(line.text).group("rest")
        with _at_line(line.no):
            for item in _split_top_level_commas(rest, line.no):
                match = re.match(
                    r"^([A-Za-z_][A-Za-z_0-9]*)\s*(?:\(([^)]*)\))?\s*(?:=\s*(.+))?$", item
                )
                if match is None:
                    raise DSLSyntaxError(f"bad declaration {item!r}", line.no)
                name, dims, init_text = match.group(1), match.group(2), match.group(3)
                if dims:
                    shape = []
                    for dim in dims.split(","):
                        dim = dim.strip()
                        if not dim.isdigit():
                            raise DSLSyntaxError(
                                f"array extents must be integer literals, got {dim!r}",
                                line.no,
                            )
                        shape.append(int(dim))
                    initial = float(init_text) if init_text else 0.0
                    symbols.array(name, shape, initial=initial)
                else:
                    initial = float(init_text) if init_text else 0.0
                    symbols.scalar(name, initial=initial)

    # -- statements -------------------------------------------------------
    def _parse_statement_block(self, terminators: set) -> List[Statement]:
        statements: List[Statement] = []
        while True:
            line = self.peek()
            if line is None:
                raise DSLSyntaxError(
                    f"missing one of {sorted(terminators)!r} before end of input"
                )
            if line.text.lower() in terminators:
                return statements
            statements.append(self._parse_statement())

    def _parse_statement(self) -> Statement:
        line = self.advance()
        text = line.text
        try:
            match = _IF_THEN_RE.match(text)
            if match is not None:
                cond = parse_expression(match.group("cond"), line.no)
                then_body = self._parse_statement_block({"else", "end if", "endif"})
                else_body: List[Statement] = []
                terminator = self.advance()
                if terminator.text.lower() == "else":
                    else_body = self._parse_statement_block({"end if", "endif"})
                    self.advance()
                return If(cond, then_body, else_body)

            match = _DO_RE.match(text)
            if match is not None:
                index = match.group("index")
                parts = _split_top_level_commas(match.group("rest"), line.no)
                if len(parts) not in (2, 3):
                    raise DSLSyntaxError("DO needs 'lower, upper[, step]'", line.no)
                lower_e = parse_expression(parts[0], line.no)
                upper_e = parse_expression(parts[1], line.no)
                step_e = parse_expression(parts[2], line.no) if len(parts) == 3 else Const(1)
                outer, self.induction = self.induction, self.induction | {index}
                body = self._parse_statement_block({"end do", "enddo"})
                self.induction = outer
                self.advance()
                return Do(index, lower_e, upper_e, body, step=step_e)

            if _GUARDED_IF_RE.match(text):
                cond_text, stmt_text = _split_guarded_if(text, line.no)
                cond = parse_expression(cond_text, line.no)
                inner = self._parse_assignment(stmt_text, line.no)
                inner.guard = cond
                return inner

            return self._parse_assignment(text, line.no)
        except ExpressionError as exc:  # an array read without subscripts
            raise DSLSyntaxError(str(exc), line.no) from None

    def _parse_assignment(self, text: str, line_no: int) -> Assign:
        """``target[(subscripts)] = rhs`` from one token stream.  The ``=`` is
        the line's first ``=``; the subscripts lie between the ``(`` after the
        target and the ``)`` before the ``=``."""
        tokens = _TOKEN_RE.findall(text)
        eq = text.find("=")
        double = text.startswith("=", eq + 1)  # '==': the rhs starts with '='
        # The token holding that '=' (none when it ends '<=', '>=' or '!=').
        assign = 0 if eq < 1 or text[eq - 1] in "<>!" else tokens.index("==" if double else "=")
        has_subs = assign > 2 and tokens[1] == "(" and tokens[assign - 1] == ")"
        if not (tokens[0][0] in _NAME_START and (assign == 1 or has_subs)
                and (double or assign + 1 < len(tokens))):
            raise DSLSyntaxError(f"cannot parse statement {text!r}", line_no)
        if double:
            parse_expression(text[eq + 1 :], line_no)  # raises on the leading '='
        target = tokens[0]
        rhs = _parse_tokens(tokens, assign + 1, len(tokens), line_no)
        subscripts: List[Expr] = []
        if has_subs:
            try:
                subscripts = _parse_tokens(tokens, 2, assign - 1, line_no, many=True)
            except (DSLSyntaxError, ExpressionError):
                # Not one list: splitting the text at top-level commas reports
                # the error (or accepts the trailing comma) it always did.
                subs_text = text[text.index("(") + 1 : text.rindex(")", 0, eq)]
                subscripts = [parse_expression(part, line_no)
                              for part in _split_top_level_commas(subs_text, line_no)]
        if target in self.induction and self.local_write is None:
            self.local_write = line_no
        return Assign(target, rhs, subscripts=subscripts)

    # -- regions -----------------------------------------------------------
    def _parse_region(self) -> Region:
        line = self.advance()
        text = line.text

        match = _REGION_LOOP_RE.match(text)
        if match is not None:
            name = match.group("name")
            hint = match.group("hint")
            index = match.group("index")
            parts = _split_top_level_commas(match.group("rest"), line.no)
            if len(parts) not in (2, 3):
                raise DSLSyntaxError("region DO needs 'lower, upper[, step]'", line.no)
            with _at_line(line.no):
                lower_e = parse_expression(parts[0], line.no)
                upper_e = parse_expression(parts[1], line.no)
                step_e = parse_expression(parts[2], line.no) if len(parts) == 3 else Const(1)
            self.induction, self.local_write = frozenset((index,)), None
            body, live_out = self._parse_region_body({"end region"})
            self.expect_keyword("end region")
            with _at_line(line.no, self.local_write):
                return LoopRegion(
                    name,
                    index,
                    lower_e,
                    upper_e,
                    body,
                    step=step_e,
                    live_out=live_out,
                    speculative=self._hint_value(hint),
                )

        match = _REGION_EXPLICIT_RE.match(text)
        if match is not None:
            return self._parse_explicit_region(
                match.group("name"), self._hint_value(match.group("hint")), line.no
            )

        raise DSLSyntaxError(f"cannot parse region header {text!r}", line.no)

    @staticmethod
    def _hint_value(hint: Optional[str]) -> Optional[bool]:
        if hint is None:
            return None
        return hint.lower() == "speculative"

    def _parse_region_body(
        self, terminators: set
    ) -> Tuple[List[Statement], Optional[set]]:
        body: List[Statement] = []
        live_out: Optional[set] = None
        while True:
            line = self.peek()
            if line is None:
                raise DSLSyntaxError("missing 'end region'")
            lower = line.text.lower()
            if lower in terminators:
                return body, live_out
            if re.match(r"liveout\b", lower):  # whole word: not ``liveoutx = 1``
                self.advance()
                names = line.text[len("liveout") :].strip()
                live_out = {n.strip() for n in names.split(",") if n.strip()}
                continue
            body.append(self._parse_statement())

    def _parse_explicit_region(
        self, name: str, hint: Optional[bool], header_line: int
    ) -> ExplicitRegion:
        segments: List[Segment] = []
        edges: Dict[str, List[str]] = {}
        live_out: Optional[set] = None
        self.induction, self.local_write = frozenset(), None
        while True:
            line = self.peek()
            if line is None:
                raise DSLSyntaxError("missing 'end region'", header_line)
            lower = line.text.lower()
            if lower == "end region":
                self.advance()
                break
            if re.match(r"segment\b", lower):
                self.advance()
                match = re.match(
                    r"^segment\s+([A-Za-z_][A-Za-z_0-9]*)$", line.text, re.I
                )
                if match is None:
                    raise DSLSyntaxError(f"bad segment header {line.text!r}", line.no)
                seg_name = match.group(1)
                body: List[Statement] = []
                branch: Optional[Expr] = None
                while True:
                    inner = self.peek()
                    if inner is None:
                        raise DSLSyntaxError("missing 'end segment'", line.no)
                    inner_lower = inner.text.lower()
                    if inner_lower == "end segment":
                        self.advance()
                        break
                    if re.match(r"branch\b", inner_lower):
                        self.advance()
                        expr_text = inner.text[len("branch") :].strip()
                        if expr_text.startswith("(") and expr_text.endswith(")"):
                            expr_text = expr_text[1:-1]
                        with _at_line(inner.no):
                            branch = parse_expression(expr_text, inner.no)
                        continue
                    body.append(self._parse_statement())
                segments.append(Segment(seg_name, body, branch=branch))
                continue
            if re.match(r"edges\b", lower):
                self.advance()
                match = re.match(
                    r"^edges\s+([A-Za-z_][A-Za-z_0-9]*)\s*->\s*(.+)$", line.text, re.I
                )
                if match is None:
                    raise DSLSyntaxError(f"bad edges line {line.text!r}", line.no)
                src = match.group(1)
                dsts = [d.strip() for d in match.group(2).split(",") if d.strip()]
                edges.setdefault(src, []).extend(dsts)
                continue
            if re.match(r"liveout\b", lower):
                self.advance()
                names = line.text[len("liveout") :].strip()
                live_out = {n.strip() for n in names.split(",") if n.strip()}
                continue
            raise DSLSyntaxError(
                f"unexpected line inside explicit region: {line.text!r}", line.no
            )
        with _at_line(header_line, self.local_write):
            return ExplicitRegion(
                name,
                segments,
                edges=edges if edges else None,
                live_out=live_out,
                speculative=hint,
            )


def parse_program(source: str) -> Program:
    """Parse DSL ``source`` text into a :class:`Program`."""
    return _ProgramParser(source).parse_program()


def parse_statements(source: str) -> List[Statement]:
    """Parse a bare statement block (handy in tests)."""
    parser = _ProgramParser(source)
    statements: List[Statement] = []
    while parser.peek() is not None:
        statements.append(parser._parse_statement())
    return statements
