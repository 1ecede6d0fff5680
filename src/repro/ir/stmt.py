"""Statements.

Segments (Definition 1) contain straight-line code with structured
control flow: assignments (optionally guarded), ``IF``/``ELSE`` blocks
and counted ``DO`` loops that execute *sequentially inside* a segment
(the paper's inner loops, e.g. the ``j``/``i``/``m``/``l`` loops of
APPLU ``BUTS_DO1`` in Figure 4).

Loop index variables of ``DO`` statements are *induction locals*: they
model the architected, non-speculative loop variables of Section 4.2.2
and are not memory references.  Every other variable access is a memory
reference and is materialised by :mod:`repro.ir.reference`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.ir.expr import Expr, ExprLike, as_expr

_stmt_counter = itertools.count()


class StatementError(Exception):
    """Raised for malformed statements."""


class Statement:
    """Base class of all statements.

    Attributes
    ----------
    sid:
        Statement identifier, assigned when the statement is attached to
        a region (``None`` until then).
    reads / write / control_reads:
        Memory references extracted by
        :func:`repro.ir.reference.extract_references`; ``None`` until the
        owning region is finalised.
    """

    # __weakref__ lets caches (e.g. the executor's per-statement cost
    # cache) key on statements without keeping them alive.
    __slots__ = ("sid", "reads", "write", "control_reads", "_token", "__weakref__")

    def __init__(self) -> None:
        self.sid: Optional[str] = None
        self.reads = None
        self.write = None
        self.control_reads = None
        # Unique creation token so identical-looking statements still have
        # distinct identities (needed because references hang off them).
        self._token = next(_stmt_counter)

    # -- structure ------------------------------------------------------
    def child_bodies(self) -> Tuple[List["Statement"], ...]:
        """Nested statement lists (empty for leaf statements)."""
        return ()

    def walk(self) -> Iterator["Statement"]:
        """Pre-order traversal including nested statements."""
        yield self
        for body in self.child_bodies():
            for stmt in body:
                yield from stmt.walk()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.sid or '?'}>"


class Assign(Statement):
    """``target (subscripts) = rhs`` optionally guarded by ``guard``.

    A guarded assignment only stores when the guard evaluates to a
    non-zero value; for static analysis it is treated as a *may*-write,
    exactly like a write nested in an ``IF``.
    """

    __slots__ = ("target", "target_subscripts", "rhs", "guard")

    def __init__(
        self,
        target: str,
        rhs: ExprLike,
        subscripts: Sequence[ExprLike] = (),
        guard: Optional[ExprLike] = None,
    ):
        super().__init__()
        if not target:
            raise StatementError("assignment needs a target variable")
        self.target = target
        self.target_subscripts: Tuple[Expr, ...] = tuple(
            as_expr(s) for s in subscripts
        )
        self.rhs: Expr = as_expr(rhs)
        self.guard: Optional[Expr] = as_expr(guard) if guard is not None else None

    def __str__(self) -> str:
        subs = (
            "(" + ", ".join(str(s) for s in self.target_subscripts) + ")"
            if self.target_subscripts
            else ""
        )
        head = f"{self.target}{subs} = {self.rhs}"
        if self.guard is not None:
            return f"if ({self.guard}) {head}"
        return head


class If(Statement):
    """Structured ``IF (cond) THEN ... [ELSE ...] ENDIF``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: ExprLike,
        then_body: Sequence[Statement],
        else_body: Sequence[Statement] = (),
    ):
        super().__init__()
        self.cond: Expr = as_expr(cond)
        self.then_body: List[Statement] = list(then_body)
        self.else_body: List[Statement] = list(else_body)
        for stmt in self.then_body + self.else_body:
            if not isinstance(stmt, Statement):
                raise StatementError(f"IF body contains non-statement {stmt!r}")

    def child_bodies(self) -> Tuple[List[Statement], ...]:
        return (self.then_body, self.else_body)

    def __str__(self) -> str:
        return f"if ({self.cond}) then <{len(self.then_body)} stmts> else <{len(self.else_body)} stmts>"


class Do(Statement):
    """Counted loop executed sequentially inside a segment.

    ``index`` is an induction local (register), not a memory variable.
    ``step`` may be negative for count-down loops; a zero step is
    rejected.  The loop executes while ``index`` lies inclusively between
    ``lower`` and ``upper`` (in the direction of ``step``), mirroring the
    Fortran ``DO`` semantics.
    """

    __slots__ = ("index", "lower", "upper", "step", "body")

    def __init__(
        self,
        index: str,
        lower: ExprLike,
        upper: ExprLike,
        body: Sequence[Statement],
        step: Union[int, ExprLike] = 1,
    ):
        super().__init__()
        if not index:
            raise StatementError("DO loop needs an index variable")
        self.index = index
        self.lower: Expr = as_expr(lower)
        self.upper: Expr = as_expr(upper)
        self.step: Expr = as_expr(step)
        self.body: List[Statement] = list(body)
        for stmt in self.body:
            if not isinstance(stmt, Statement):
                raise StatementError(f"DO body contains non-statement {stmt!r}")

    def child_bodies(self) -> Tuple[List[Statement], ...]:
        return (self.body,)

    def constant_trip_count(self) -> Optional[int]:
        """Trip count when all bounds are integer constants, else ``None``."""
        from repro.ir.expr import const_int

        lo = const_int(self.lower)
        hi = const_int(self.upper)
        st = const_int(self.step)
        if lo is None or hi is None or st is None:
            return None
        if st == 0:
            return 0
        return max(0, (hi - lo) // st + 1)

    def __str__(self) -> str:
        return (
            f"do {self.index} = {self.lower}, {self.upper}, {self.step} "
            f"<{len(self.body)} stmts>"
        )
