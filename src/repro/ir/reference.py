"""Memory references.

A :class:`MemoryReference` is one *textual* read or write of a memory
variable inside a segment: the unit the paper's analysis labels as
either ``SPECULATIVE`` or ``IDEMPOTENT`` (Definition 4) and the unit the
evaluation of Section 5 counts.

References are extracted from a segment body by
:func:`extract_references`, which

* skips reads of *induction locals* (``DO`` index variables) because the
  paper's architecture keeps loop variables non-speculative and they are
  registers, not memory;
* records the *program order* of each reference inside the segment
  (subscripts before the element they index, right-hand side before the
  left-hand-side store, textual order across statements), which fixes
  the direction of intra-segment dependences;
* records whether the reference executes *conditionally* (under an
  ``IF``, a guard, or a loop whose trip count is not provably positive),
  which the must-define / exposed-read analysis needs;
* records whether the reference sits inside an inner sequential loop,
  which the dynamic-count weighting uses.

A reference does not point into the statement tree that owns it: its
statement holds it (``stmt.reads``, ``stmt.write``,
``stmt.control_reads``), and its enclosing loops are named by their
:class:`~repro.ir.stmt.LoopHeader`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set, Tuple

from repro.ir.expr import Expr
from repro.ir.stmt import Assign, Do, If, LoopHeader, Statement, StatementError
from repro.ir.types import AccessType


@dataclass(eq=False)
class MemoryReference:
    """One textual memory reference.

    Identity is by object (and by :attr:`uid` once assigned); two
    references with identical fields are still distinct program points.
    """

    uid: str
    variable: str
    access: AccessType
    subscripts: Tuple[Expr, ...]
    segment: str
    region: str
    order: int
    conditional: bool = False
    in_inner_loop: bool = False
    is_control: bool = False
    #: The headers of the ``Do`` loops enclosing the reference, outermost
    #: first (one header per loop, so identity compares loops).  The affine
    #: subscript, coverage and dependence analyses read both the index
    #: names and the (constant) bounds off these headers.
    enclosing_loops: Tuple[LoopHeader, ...] = ()

    # ------------------------------------------------------------------
    @property
    def is_read(self) -> bool:
        return self.access is AccessType.READ

    @property
    def is_write(self) -> bool:
        return self.access is AccessType.WRITE

    @property
    def is_array(self) -> bool:
        return bool(self.subscripts)

    def subscript_text(self) -> str:
        if not self.subscripts:
            return ""
        return "(" + ", ".join(str(s) for s in self.subscripts) + ")"

    def describe(self) -> str:
        """Human-readable one-liner used by reports and error messages."""
        kind = "write" if self.is_write else "read"
        flags = []
        if self.conditional:
            flags.append("cond")
        if self.in_inner_loop:
            flags.append("inner-loop")
        if self.is_control:
            flags.append("control")
        suffix = f" [{' '.join(flags)}]" if flags else ""
        return (
            f"{self.uid}: {kind} {self.variable}{self.subscript_text()} "
            f"in {self.segment}{suffix}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Ref {self.uid} {self.access.value} {self.variable}{self.subscript_text()}>"

    def __hash__(self) -> int:
        return hash(self.uid)


@dataclass
class _ExtractionContext:
    """Book-keeping for one segment-body walk."""

    segment: str
    region: str
    uid_prefix: str
    locals_in_scope: Set[str] = field(default_factory=set)
    conditional: bool = False
    in_inner_loop: bool = False
    enclosing_loops: Tuple[LoopHeader, ...] = ()
    order: int = 0
    counter: int = 0
    out: List[MemoryReference] = field(default_factory=list)


def _emit(
    ctx: _ExtractionContext,
    variable: str,
    access: AccessType,
    subscripts: Tuple[Expr, ...],
    conditional: bool,
    is_control: bool = False,
) -> MemoryReference:
    """Create one reference (callers skip induction locals)."""
    counter, order = ctx.counter, ctx.order
    ctx.counter, ctx.order = counter + 1, order + 1
    tag = "w" if access is AccessType.WRITE else "r"
    # Positional arguments in field order: matching eleven keywords would
    # cost more than building the reference.
    ref = MemoryReference(
        f"{ctx.uid_prefix}.{tag}{counter}", variable, access, subscripts,
        ctx.segment, ctx.region, order, conditional, ctx.in_inner_loop, is_control,
        ctx.enclosing_loops,
    )
    ctx.out.append(ref)
    return ref


def _emit_expr_reads(
    ctx: _ExtractionContext,
    expr: Expr,
    conditional: bool,
    is_control: bool = False,
) -> List[MemoryReference]:
    refs: List[MemoryReference] = []
    for name, subscripts in expr.reads():
        if name not in ctx.locals_in_scope:
            refs.append(
                _emit(ctx, name, AccessType.READ, subscripts, conditional, is_control)
            )
    return refs


def _walk_body(ctx: _ExtractionContext, body: Sequence[Statement]) -> None:
    for stmt in body:
        if isinstance(stmt, Assign):
            _walk_assign(ctx, stmt)
        elif isinstance(stmt, If):
            _walk_if(ctx, stmt)
        elif isinstance(stmt, Do):
            _walk_do(ctx, stmt)
        else:  # pragma: no cover - defensive
            raise StatementError(f"unknown statement type {type(stmt).__name__}")


def _walk_assign(ctx: _ExtractionContext, stmt: Assign) -> None:
    stmt.control_reads = []
    stmt.reads = []
    guarded = ctx.conditional or stmt.guard is not None
    if stmt.guard is not None:
        stmt.control_reads.extend(
            _emit_expr_reads(ctx, stmt.guard, ctx.conditional, is_control=True)
        )
    stmt.reads.extend(_emit_expr_reads(ctx, stmt.rhs, guarded))
    for sub in stmt.target_subscripts:
        stmt.reads.extend(_emit_expr_reads(ctx, sub, guarded))
    if stmt.target in ctx.locals_in_scope:
        raise StatementError(
            f"assignment to induction local {stmt.target!r} is not allowed"
        )
    stmt.write = _emit(
        ctx,
        stmt.target,
        AccessType.WRITE,
        stmt.target_subscripts,
        guarded,
    )


def _walk_if(ctx: _ExtractionContext, stmt: If) -> None:
    stmt.control_reads = _emit_expr_reads(
        ctx, stmt.cond, ctx.conditional, is_control=True
    )
    stmt.reads = []
    stmt.write = None
    saved = ctx.conditional
    ctx.conditional = True
    _walk_body(ctx, stmt.then_body)
    _walk_body(ctx, stmt.else_body)
    ctx.conditional = saved


def _walk_do(ctx: _ExtractionContext, stmt: Do) -> None:
    stmt.control_reads = []
    stmt.reads = []
    stmt.write = None
    header = stmt.header
    for bound in (header.lower, header.upper, header.step):
        stmt.control_reads.extend(
            _emit_expr_reads(ctx, bound, ctx.conditional, is_control=True)
        )
    trip = header.constant_trip_count()
    guaranteed = trip is not None and trip >= 1
    saved_cond = ctx.conditional
    saved_inner = ctx.in_inner_loop
    saved_locals = set(ctx.locals_in_scope)
    saved_loops = ctx.enclosing_loops
    ctx.conditional = ctx.conditional or not guaranteed
    ctx.in_inner_loop = True
    ctx.locals_in_scope = saved_locals | {header.index}
    ctx.enclosing_loops = saved_loops + (header,)
    _walk_body(ctx, stmt.body)
    ctx.conditional = saved_cond
    ctx.in_inner_loop = saved_inner
    ctx.locals_in_scope = saved_locals
    ctx.enclosing_loops = saved_loops


def extract_references(
    body: Sequence[Statement],
    segment: str,
    region: str,
    uid_prefix: str,
    locals_in_scope: Iterable[str] = (),
) -> List[MemoryReference]:
    """Extract all memory references of one segment body in program order.

    ``locals_in_scope`` are names treated as registers (the enclosing
    region's loop index for loop regions); reads of them produce no
    references and writes to them are rejected.

    The extracted references are also attached to their statements
    (``stmt.reads``, ``stmt.write``, ``stmt.control_reads``).
    """
    ctx = _ExtractionContext(
        segment=segment,
        region=region,
        uid_prefix=uid_prefix,
        locals_in_scope=set(locals_in_scope),
    )
    _walk_body(ctx, body)
    return ctx.out


def assign_statement_ids(
    body: Sequence[Statement], prefix: str
) -> List[Statement]:
    """Assign hierarchical statement ids (``prefix.s0``, ``prefix.s1``...)."""
    out: List[Statement] = []
    counter = 0
    for stmt in body:
        for sub in stmt.walk():
            sub.sid = f"{prefix}.s{counter}"
            counter += 1
            out.append(sub)
    return out
