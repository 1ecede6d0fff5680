"""Generator-based segment executor.

A segment body is executed as a coroutine that *yields* operations and
receives read values back from whatever engine drives it:

* :class:`ComputeOp` -- non-memory work (the engine adds the cycles);
* :class:`ReadOp`   -- a memory read, tagged with the static
  :class:`~repro.ir.reference.MemoryReference` it corresponds to; the
  engine ``send()``s the value back;
* :class:`WriteOp`  -- a memory write (value already computed), also
  tagged with its static reference.

Because the engines decide where each read value comes from (speculative
storage, an older segment's storage, the non-speculative hierarchy, a
private frame) and where each write goes, the same executor implements
sequential execution, HOSE and CASE; the speculative engines simply
discard the coroutine on a roll-back and create a fresh one, which
naturally re-executes the segment.

The traversal order of reads matches
:func:`repro.ir.reference.extract_references` exactly, so the *k*-th
dynamic read of a statement instance is paired with the *k*-th static
read reference of that statement (induction locals are served from the
register file and never reach memory, again matching extraction).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Sequence, Tuple, Union

from repro.ir.expr import (
    BinOp,
    Call,
    Const,
    Expr,
    Index,
    UnaryOp,
    Var,
    _BINARY_OPS,
    _INTRINSICS,
    _UNARY_OPS,
)
from repro.ir.reference import MemoryReference
from repro.ir.stmt import Assign, Do, If, Statement
from repro.ir.symbols import SymbolError
from repro.runtime.errors import AddressError, BoundError, SimulationError

Number = Union[int, float]


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComputeOp:
    """Non-memory work costing ``cycles`` cycles."""

    cycles: int = 1


@dataclass(frozen=True)
class ReadOp:
    """A memory read of ``variable(subscripts)``; the engine sends the value back."""

    variable: str
    subscripts: Tuple[int, ...]
    ref: Optional[MemoryReference]


@dataclass(frozen=True)
class WriteOp:
    """A memory write of ``value`` to ``variable(subscripts)``."""

    variable: str
    subscripts: Tuple[int, ...]
    value: float
    ref: Optional[MemoryReference]


Operation = Union[ComputeOp, ReadOp, WriteOp]
SegmentCoroutine = Generator[Operation, Optional[float], None]


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
@dataclass
class ExecContext:
    """Per-segment execution state: the register file of induction locals."""

    locals: Dict[str, Number] = field(default_factory=dict)
    #: Optional hard limit on executed operations (guards against runaway
    #: loops in generated or property-based-test programs).
    op_budget: Optional[int] = None
    _ops: int = 0

    def charge(self, amount: int = 1) -> None:
        self._ops += amount
        if self.op_budget is not None and self._ops > self.op_budget:
            raise SimulationError(
                f"operation budget of {self.op_budget} exceeded"
            )


# Keyed by the statement *object* (statements hash by identity), held
# weakly: an id()-keyed dict would hand out a stale cost when a dead
# statement's address is reused by a new one, and a strong-keyed dict
# would leak every statement ever executed.
_COST_CACHE: "weakref.WeakKeyDictionary[Statement, int]" = weakref.WeakKeyDictionary()

#: Operator weights of the compute-cost estimate (the base cost is 1):
#: multiplies, divides and intrinsic calls cost more than adds.
ADD_WEIGHT = 1
MUL_WEIGHT = 2
DIV_WEIGHT = 8
CALL_WEIGHT = 8


def _compute_cost(stmt: Statement, expr: Expr) -> int:
    """Operator-weighted instruction estimate of evaluating ``expr`` (cached)."""
    cached = _COST_CACHE.get(stmt)
    if cached is not None:
        return cached
    cost = 1
    for node in expr.walk():
        if isinstance(node, BinOp):
            if node.op == "*":
                cost += MUL_WEIGHT
            elif node.op in ("/", "**"):
                cost += DIV_WEIGHT
            else:
                cost += ADD_WEIGHT
        elif isinstance(node, UnaryOp):
            cost += ADD_WEIGHT
        elif isinstance(node, Call):
            cost += CALL_WEIGHT
    _COST_CACHE[stmt] = cost
    return cost


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
def subscript_value(value: Number) -> int:
    """The subscript a computed value selects (rounded to an integer);
    an infinity or NaN raises :class:`AddressError`."""
    try:
        return int(round(value))
    except (OverflowError, ValueError) as exc:
        raise AddressError(str(exc)) from exc


def _eval_expr(
    expr: Expr,
    ctx: ExecContext,
    refs: Iterator[MemoryReference],
) -> Generator[Operation, Optional[float], Number]:
    """Evaluate ``expr``; reads are yielded as :class:`ReadOp` operations."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name in ctx.locals:
            return ctx.locals[expr.name]
        ref = next(refs, None)
        value = yield ReadOp(expr.name, (), ref)
        return 0.0 if value is None else value
    if isinstance(expr, Index):
        subs: List[int] = []
        for sub in expr.subscripts:
            sub_value = yield from _eval_expr(sub, ctx, refs)
            subs.append(subscript_value(sub_value))
        ref = next(refs, None)
        value = yield ReadOp(expr.name, tuple(subs), ref)
        return 0.0 if value is None else value
    if isinstance(expr, BinOp):
        left = yield from _eval_expr(expr.left, ctx, refs)
        right = yield from _eval_expr(expr.right, ctx, refs)
        return _BINARY_OPS[expr.op](left, right)
    if isinstance(expr, UnaryOp):
        operand = yield from _eval_expr(expr.operand, ctx, refs)
        return _UNARY_OPS[expr.op](operand)
    if isinstance(expr, Call):
        args: List[Number] = []
        for arg in expr.args:
            value = yield from _eval_expr(arg, ctx, refs)
            args.append(value)
        return _INTRINSICS[expr.func](*args)
    raise SimulationError(f"cannot evaluate expression {expr!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Statement execution
# ----------------------------------------------------------------------
def _exec_assign(stmt: Assign, ctx: ExecContext) -> SegmentCoroutine:
    ctx.charge()
    if stmt.guard is not None:
        control_refs = iter(stmt.control_reads or [])
        guard_value = yield from _eval_expr(stmt.guard, ctx, control_refs)
        yield ComputeOp(1)
        if not guard_value:
            return
    refs = iter(stmt.reads or [])
    rhs_value = yield from _eval_expr(stmt.rhs, ctx, refs)
    yield ComputeOp(_compute_cost(stmt, stmt.rhs))
    subs: List[int] = []
    for sub in stmt.target_subscripts:
        sub_value = yield from _eval_expr(sub, ctx, refs)
        subs.append(subscript_value(sub_value))
    yield WriteOp(stmt.target, tuple(subs), float(rhs_value), stmt.write)


def _exec_if(stmt: If, ctx: ExecContext) -> SegmentCoroutine:
    ctx.charge()
    control_refs = iter(stmt.control_reads or [])
    cond_value = yield from _eval_expr(stmt.cond, ctx, control_refs)
    yield ComputeOp(1)
    body = stmt.then_body if cond_value else stmt.else_body
    yield from execute_body(body, ctx)


def index_range(lower: Number, upper: Number, step: Number, loop: str) -> range:
    """A loop index's values, ``lower`` to ``upper`` inclusive, from its
    evaluated bounds (each rounded to an integer).

    Raises :class:`BoundError` naming ``loop`` when a bound is an
    infinity or NaN or the step is zero.
    """
    try:
        lower, upper, step = int(round(lower)), int(round(upper)), int(round(step))
    except (OverflowError, ValueError):
        raise BoundError(f"{loop} has a non-finite bound") from None
    if step == 0:
        raise BoundError(f"{loop} has zero step")
    return range(lower, upper + (1 if step > 0 else -1), step)


def _exec_do(stmt: Do, ctx: ExecContext) -> SegmentCoroutine:
    ctx.charge()
    control_refs = iter(stmt.control_reads or [])
    lower = yield from _eval_expr(stmt.lower, ctx, control_refs)
    upper = yield from _eval_expr(stmt.upper, ctx, control_refs)
    step = yield from _eval_expr(stmt.step, ctx, control_refs)
    yield ComputeOp(1)
    values = index_range(lower, upper, step, f"DO loop {stmt.sid or stmt.index}")
    shadowed = ctx.locals.get(stmt.index)
    had_shadow = stmt.index in ctx.locals
    for value in values:
        ctx.charge()
        ctx.locals[stmt.index] = value
        yield ComputeOp(1)
        yield from execute_body(stmt.body, ctx)
    if had_shadow:
        ctx.locals[stmt.index] = shadowed
    else:
        ctx.locals.pop(stmt.index, None)


def execute_body(body: Sequence[Statement], ctx: ExecContext) -> SegmentCoroutine:
    """Execute a statement list, yielding operations in program order."""
    for stmt in body:
        if isinstance(stmt, Assign):
            yield from _exec_assign(stmt, ctx)
        elif isinstance(stmt, If):
            yield from _exec_if(stmt, ctx)
        elif isinstance(stmt, Do):
            yield from _exec_do(stmt, ctx)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown statement {type(stmt).__name__}")


def segment_coroutine(
    body: Sequence[Statement],
    locals_in_scope: Optional[Dict[str, Number]] = None,
    op_budget: Optional[int] = None,
) -> SegmentCoroutine:
    """Create a fresh coroutine executing ``body``.

    ``locals_in_scope`` seeds the register file (e.g. the region loop
    index for a loop-region iteration).
    """
    ctx = ExecContext(locals=dict(locals_in_scope or {}), op_budget=op_budget)
    return execute_body(body, ctx)


def evaluate_expression(
    expr: Expr,
    read_memory,
    locals_in_scope: Optional[Dict[str, Number]] = None,
) -> Number:
    """Evaluate an expression outside any segment (loop bounds, branches).

    ``read_memory(variable, subscripts)`` supplies memory values; locals
    are served from ``locals_in_scope``.  A non-finite subscript raises
    :class:`AddressError`.
    """
    locals_map = dict(locals_in_scope or {})

    def reader(name: str, subs: Tuple[int, ...]) -> Number:
        if name in locals_map and not subs:
            return locals_map[name]
        return read_memory(name, subs)

    try:
        return expr.evaluate(reader)
    except SymbolError as exc:
        raise AddressError(str(exc)) from exc
