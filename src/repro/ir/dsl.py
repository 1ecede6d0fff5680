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

Comments start with ``!`` or ``#`` and run to the end of the line.
Declarations use ``real`` / ``integer`` (treated identically) and may
carry initial values for scalars.  ``liveout`` lines inside a region
list the variables that are live after the region.  A region may be
marked ``speculative`` (force speculative execution) or ``parallel``
(assert that the compiler may run it as a conventional parallel loop);
without a marker the compiler's dependence analysis decides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.expr import BinOp, Call, Const, Expr, Index, UnaryOp, Var, intrinsics
from repro.ir.program import Program
from repro.ir.region import ExplicitRegion, LoopRegion, Region
from repro.ir.segment import Segment
from repro.ir.stmt import Assign, Do, If, Statement
from repro.ir.symbols import SymbolTable


class DSLSyntaxError(Exception):
    """Raised on any parse failure, carrying the offending line number."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


# ----------------------------------------------------------------------
# Expression tokenizer / parser
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
    (\d+\.\d*(?:[eEdD][-+]?\d+)?|\.\d+(?:[eEdD][-+]?\d+)?|\d+(?:[eEdD][-+]?\d+)?)
  | ([A-Za-z_][A-Za-z_0-9]*)
  | (\*\*|<=|>=|==|!=|->|[-+*/%(),<>=])
  | (\S)
)""",
    re.VERBOSE,
)

_KEYWORD_OPS = {"and", "or", "not"}

#: A token: ``(kind, text)`` with kind ``"number"``, ``"name"`` or ``"op"``.
Token = Tuple[str, str]


def tokenize_expression(text: str, line_no: Optional[int] = None) -> List[Token]:
    """Tokenize one expression string."""
    tokens: List[Token] = []
    for number, name, op, bad in _TOKEN_RE.findall(text):
        if bad:
            raise DSLSyntaxError(f"unexpected character {bad!r}", line_no)
        if name.lower() in _KEYWORD_OPS:
            tokens.append(("op", name.lower()))
        else:
            tokens.append(("number", number) if number else ("name", name) if name else ("op", op))
    return tokens


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


def parse_expression(text: str, line_no: Optional[int] = None) -> Expr:
    """Parse one expression string into an :class:`Expr` (precedence
    climbing over the token list)."""
    tokens = tokenize_expression(text, line_no)
    end = len(tokens)
    pos = 0

    def expect_close() -> None:
        nonlocal pos
        if pos < end and tokens[pos] == ("op", ")"):
            pos += 1
            return
        got = tokens[pos][1] if pos < end else "<end>"
        raise DSLSyntaxError(f"expected ')', got {got!r}", line_no)

    def parse(min_level: int) -> Expr:
        nonlocal pos
        if pos >= end:
            raise DSLSyntaxError("unexpected end of expression", line_no)
        kind, value = tokens[pos]
        pos += 1
        lhs: Expr
        limit = _PRIMARY
        if kind == "number":
            number = value.lower().replace("d", "e")
            lhs = Const(float(number) if "." in number or "e" in number else int(number))
        elif kind == "name":
            if pos < end and tokens[pos] == ("op", "("):
                pos += 1
                args: List[Expr] = []
                if pos >= end or tokens[pos] != ("op", ")"):
                    args.append(parse(1))
                    while pos < end and tokens[pos] == ("op", ","):
                        pos += 1
                        args.append(parse(1))
                expect_close()
                name = value.lower()
                lhs = Call(name, args) if name in _INTRINSICS else Index(value, args)
            else:
                lhs = Var(value)
        elif value == "(":
            lhs = parse(1)
            expect_close()
        elif value == "-":
            lhs, limit = UnaryOp("-", parse(_SIGN_LEVEL)), _SIGN_LEVEL - 1
        elif value == "+":
            lhs, limit = parse(_SIGN_LEVEL), _SIGN_LEVEL - 1
        elif value == "not" and min_level <= _NOT_LEVEL:
            lhs, limit = UnaryOp("not", parse(_NOT_LEVEL)), _NOT_LEVEL - 1
        else:
            raise DSLSyntaxError(f"unexpected token {value!r}", line_no)
        while pos < end:
            value = tokens[pos][1]
            binding = _BINARY.get(value)  # no name or number is an operator
            if binding is None:
                break
            level, right_level, result_limit = binding
            if level < min_level or level > limit:
                break
            pos += 1
            lhs = BinOp(value, lhs, parse(right_level))
            limit = result_limit
        return lhs

    expr = parse(1)
    if pos < end:
        raise DSLSyntaxError(
            f"trailing tokens after expression: {tokens[pos][1]!r}", line_no
        )
    return expr


# ----------------------------------------------------------------------
# Line-oriented program parser
# ----------------------------------------------------------------------
@dataclass
class _Line:
    no: int
    text: str


_ASSIGN_RE = re.compile(
    r"^(?P<target>[A-Za-z_][A-Za-z_0-9]*)\s*(?:\((?P<subs>[^=]*)\))?\s*=\s*(?P<rhs>.+)$"
)
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


class _ProgramParser:
    """Parses the full line-oriented program grammar."""

    def __init__(self, source: str):
        self.lines: List[_Line] = []
        for no, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("!", 1)[0].split("#", 1)[0].strip()
            if text:
                self.lines.append(_Line(no, text))
        self.pos = 0

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
        name = match.group(1)
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
        return Program(name, symbols=symbols, init=init, regions=regions, finale=finale)

    # -- declarations ----------------------------------------------------
    def _parse_declaration(self, line: _Line, symbols: SymbolTable) -> None:
        rest = _DECL_RE.match(line.text).group("rest")
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
            body = self._parse_statement_block({"end do", "enddo"})
            self.advance()
            return Do(index, lower_e, upper_e, body, step=step_e)

        if _GUARDED_IF_RE.match(text):
            cond_text, stmt_text = _split_guarded_if(text, line.no)
            cond = parse_expression(cond_text, line.no)
            inner = self._parse_assignment(stmt_text, line.no)
            inner.guard = cond
            return inner

        return self._parse_assignment(text, line.no)

    def _parse_assignment(self, text: str, line_no: int) -> Assign:
        match = _ASSIGN_RE.match(text)
        if match is None:
            raise DSLSyntaxError(f"cannot parse statement {text!r}", line_no)
        target = match.group("target")
        subs_text = match.group("subs")
        rhs = parse_expression(match.group("rhs"), line_no)
        subscripts: List[Expr] = []
        if subs_text is not None:
            for part in _split_top_level_commas(subs_text, line_no):
                subscripts.append(parse_expression(part, line_no))
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
            lower_e = parse_expression(parts[0], line.no)
            upper_e = parse_expression(parts[1], line.no)
            step_e = parse_expression(parts[2], line.no) if len(parts) == 3 else Const(1)
            body, live_out = self._parse_region_body({"end region"})
            self.expect_keyword("end region")
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
