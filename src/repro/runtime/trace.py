"""Trace record-and-replay executor fast path.

The coroutine interpreter of :mod:`repro.runtime.executor` re-walks the
statement AST for every loop-region iteration: each statement costs a
generator frame, each sub-expression another ``yield from`` frame, and
each node an ``isinstance`` dispatch.  For the loop regions the paper
evaluates, the *shape* of that walk is identical in every iteration --
only the region index, the values read from memory, and the addresses
derived from them change.

This module exploits that: when a region body's control flow is
*input-independent*, the dynamic statement schedule is recorded once
into a flat event list (``DO`` loops unrolled, ``IF`` branches and
guards resolved), and subsequent iterations *replay* the recorded
schedule -- one flat Python loop instead of a tree walk, yielding the
exact same :class:`ReadOp` / :class:`WriteOp` / :class:`ComputeOp`
stream the interpreter would.

Replay eligibility (decided by :func:`trace_eligibility`):

* every control expression (``IF`` conditions, assignment guards, ``DO``
  bounds) reads only integer constants, enclosing inner ``DO`` indices,
  and scalars that are *read-only in the region* (from
  :func:`repro.analysis.readonly.read_only_variables` -- their values
  are fixed for the whole region execution);
* no control expression reads the region loop index (its value differs
  per iteration, so the schedule would differ too);
* the unrolled schedule stays below :data:`MAX_TRACE_EVENTS` (its
  events plus its statement executions).

Replay has no operation budget: a bounded run walks the AST, the one
executor that counts statement executions.

Data expressions are unconstrained.  Each assignment is compiled once
into a *slot form*: its memory reads are enumerated in operation order,
the arithmetic becomes a postfix program over read-value slots (and a
generated Python closure -- see below), and each subscript dimension
becomes either

* an **affine template** ``base + coeff * region_index`` (inner-index
  terms folded away at record time, when their values are known), or
* a compiled **slot program** for value-dependent addresses such as the
  ``x(col(t, k))`` gather of sparse codes -- the subscript reads occupy
  earlier slots, so replay never needs the AST.

Each arithmetic program is translated to a single Python lambda
(``fn(values, iv, env)``), so the per-assignment cost at replay is one
native call.  The lambda has the values of :mod:`repro.ir.expr`'s total
operator tables: it inlines an operator only where the inline text
cannot differ from the table entry and calls the entry elsewhere
(:func:`arith_source`), so it never raises and needs no fallback.

Reads of read-only scalars inside control expressions are recorded
together with the value observed at record time and *validated* during
replay: the replayed ``ReadOp`` is still yielded (so the op stream
matches the interpreter bit for bit) and the value the engine sends
back must equal the recorded one.  A mismatch means the eligibility
contract was broken and raises :class:`SimulationError` rather than
silently replaying a wrong path.

:func:`region_trace` is the one place a loop region is recorded: the
sequential interpreter, the op-stepped engines and the compiled
attempts of :mod:`repro.runtime.batch` share its memoized trace, which
is reused while its recorded control reads
(:attr:`SegmentTrace.ctrl_values`) still hold.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.access import linear_terms
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
)
from repro.ir.reference import MemoryReference
from repro.ir.stmt import Assign, Do, If, Statement
from repro.ir.region import LoopRegion
from repro.runtime.errors import AddressError, BoundError, SimulationError
from repro.runtime.executor import (
    ComputeOp,
    ReadOp,
    SegmentCoroutine,
    WriteOp,
    _compute_cost,
    index_range,
    subscript_value,
)
from repro.runtime.memory import MemoryImage, same_value

#: Hard cap on recorded events plus statement executions; bodies that
#: unroll past this fall back to the interpreter (keeps pathological
#: trip counts from exhausting memory for a speed optimisation).
MAX_TRACE_EVENTS = 500_000

_COMPUTE_1 = ComputeOp(1)

class TraceError(Exception):
    """Raised internally when a body cannot be traced; callers fall back."""


# ----------------------------------------------------------------------
# Postfix arithmetic programs
# ----------------------------------------------------------------------
# Instructions are tuples whose first element is one of these opcodes.
OP_CONST = 0         # (OP_CONST, value)
OP_LOCAL = 1         # (OP_LOCAL, name)   -- inner index, served from env
OP_REGION_INDEX = 2  # (OP_REGION_INDEX,) -- the replay iteration value
OP_BINOP = 3         # (OP_BINOP, op_symbol)
OP_UNOP = 4          # (OP_UNOP, op_symbol)
OP_CALL = 5          # (OP_CALL, nargs, func_name)
OP_SLOT = 6          # (OP_SLOT, k)       -- k-th read value of the assignment

Instruction = Tuple
ArithProgram = Tuple[Instruction, ...]
#: Generated closure signature: fn(values, region_value, env) -> value.
ArithFn = Callable[[Sequence[float], float, Optional[Dict[str, float]]], float]


# ----------------------------------------------------------------------
# Closure generation
# ----------------------------------------------------------------------
#: ``+ - *`` on two operands that may both be integers call their table
#: function (an integer result may not fit a float); with a float
#: operand the inline operator gives the same value and cannot raise.
_INT_SAFE_BINOPS = {"+": "_add", "-": "_sub", "*": "_mul"}
_COMPARE_BINOPS = {"<", "<=", ">", ">=", "==", "!="}
#: Intrinsics whose result is always a float.
_FLOAT_INTRINSICS = {"sqrt", "exp", "log", "sin", "cos"}


#: Globals of generated arithmetic: every intrinsic as ``_intr_<name>``,
#: ``**`` as ``_pow`` and the integer-safe ``+ - *`` as ``_add``,
#: ``_sub`` and ``_mul`` -- the entries of :mod:`repro.ir.expr`'s tables.
ARITH_GLOBALS: Dict[str, object] = {
    "_pow": _BINARY_OPS["**"],
    **{name: _BINARY_OPS[sym] for sym, name in _INT_SAFE_BINOPS.items()},
    **{f"_intr_{name}": fn for name, fn in _INTRINSICS.items()},
}


def _const_text(value) -> str:
    """Source of a constant; ``repr`` of inf/nan is not an expression."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({repr(value)!r})"
    return repr(value)


def arith_source(
    program: ArithProgram,
    slot: Callable[[int], str],
    const: Callable[[object], str] = _const_text,
) -> str:
    """Python expression text of a postfix program, with the values of
    :mod:`repro.ir.expr`'s operator tables.

    ``slot(k)`` gives the text of read value ``k`` and ``const(value)``
    the text of a constant; the region index is ``iv``, an inner index
    ``env[name]``, ``**`` ``_pow``, an intrinsic ``_intr_<name>`` and an
    integer-safe ``+ - *`` ``_add``/``_sub``/``_mul`` (see
    :data:`ARITH_GLOBALS`).  An operator is inlined only where its text
    cannot differ from its table entry: each operand is known to be a
    float (read values, float constants, results of ``/``, ``sqrt``,
    ``exp``, ``log``, ``sin`` and ``cos``, and what floats propagate
    through) or may be an integer, and ``+ - *`` of two operands that
    may both be integers call the table function.
    """
    stack: List[Tuple[str, bool]] = []  # (text, known to be a float)
    push = stack.append
    for ins in program:
        op = ins[0]
        if op == OP_SLOT:
            push((slot(ins[1]), True))
        elif op == OP_CONST:
            push((const(ins[1]), type(ins[1]) is float))
        elif op == OP_REGION_INDEX:
            push(("iv", False))
        elif op == OP_LOCAL:
            push((f"env[{ins[1]!r}]", False))
        elif op == OP_BINOP:
            sym = ins[1]
            b, b_float = stack.pop()
            a, a_float = stack.pop()
            if sym in _INT_SAFE_BINOPS:
                if a_float or b_float:
                    push((f"({a} {sym} {b})", True))
                else:
                    push((f"{_INT_SAFE_BINOPS[sym]}({a}, {b})", False))
            elif sym == "/":
                push((f"(({a}) / ({b}) if ({b}) != 0 else 0.0)", True))
            elif sym == "**":
                push((f"_pow({a}, {b})", a_float or b_float))
            elif sym in _COMPARE_BINOPS:
                push((f"(1 if {a} {sym} {b} else 0)", False))
            elif sym == "and" or sym == "or":
                push((f"(1 if (bool({a}) {sym} bool({b})) else 0)", False))
            else:  # // and %: an integer 0 for a zero divisor
                push((f"(({a}) {sym} ({b}) if ({b}) != 0 else 0)", False))
        elif op == OP_UNOP:
            sym = ins[1]
            a, a_float = stack.pop()
            if sym == "not":
                push((f"(1 if not bool({a}) else 0)", False))
            elif sym == "abs":
                push((f"abs({a})", a_float))
            else:  # - and +
                push((f"({sym}{a})", a_float))
        else:  # OP_CALL
            n, name = ins[1], ins[2]
            args = stack[-n:]
            del stack[-n:]
            if name in _FLOAT_INTRINSICS:
                is_float = True
            elif name in ("abs", "min", "max"):  # returns an argument
                is_float = all(f for _, f in args)
            else:
                is_float = False
            push((f"_intr_{name}({', '.join(t for t, _ in args)})", is_float))
    return stack[0][0]


def codegen_arith(program: ArithProgram) -> ArithFn:
    """Translate a postfix program into one Python lambda
    ``fn(values, iv, env)`` over the text of :func:`arith_source`."""
    text = arith_source(program, "v[{}]".format)
    return eval(f"lambda v, iv, env: {text}", ARITH_GLOBALS)


# ----------------------------------------------------------------------
# Per-statement compilation (slot form)
# ----------------------------------------------------------------------
# A subscript dimension template is either
#   (DIM_AFFINE, const, region_coeff, ((local, coeff), ...))
# or
#   (DIM_PROGRAM, arith_program, arith_fn)
DIM_AFFINE = 0
DIM_PROGRAM = 1


@dataclass(frozen=True)
class CompiledAssign:
    """One assignment statement compiled to the slot form."""

    #: Per read, in operation order: (name, ref, dim_templates | None).
    #: Entries up to :attr:`rhs_read_count` belong to the right-hand
    #: side; the rest are target-subscript reads, which the executor
    #: performs *after* the cost ComputeOp (the split preserves the
    #: interpreter's exact operation order for scatter writes).
    read_specs: Tuple[Tuple, ...]
    rhs_read_count: int
    arith_program: ArithProgram
    arith_fn: ArithFn
    needs_env: bool
    cost_op: ComputeOp
    target: str
    #: None for a scalar target, else per-dimension templates.
    target_dims: Optional[Tuple[Tuple, ...]]
    write_ref: Optional[MemoryReference]


def _dim_template(
    expr: Expr, local_names: Set[str], region_index: str, refs, read_specs
) -> Tuple:
    """Compile one subscript dimension.

    Affine-in-induction-values dimensions get the cheap template; any
    other dimension (value-dependent addresses, non-linear index
    arithmetic) compiles to a slot program whose reads are hoisted into
    ``read_specs`` ahead of the enclosing element read.
    """
    lin = linear_terms(expr)
    if lin is not None:
        coeffs, const = lin
        region_coeff = 0
        locals_part: List[Tuple[str, int]] = []
        affine = True
        for name, coeff in coeffs.items():
            # Innermost binding wins (a shadowing inner DO index is a
            # local, not the region index).
            if name in local_names:
                locals_part.append((name, coeff))
            elif name == region_index:
                region_coeff = coeff
            else:
                affine = False  # reads memory: needs the program form
                break
        if affine:
            return (DIM_AFFINE, const, region_coeff, tuple(locals_part))
    program: List[Instruction] = []
    _compile_arith(expr, local_names, region_index, refs, read_specs, program)
    program = tuple(program)
    return (DIM_PROGRAM, program, codegen_arith(program))


def _compile_arith(
    expr: Expr,
    local_names: Set[str],
    region_index: str,
    refs,
    read_specs: List[Tuple],
    out: List[Instruction],
) -> None:
    """Compile ``expr`` to a postfix program, hoisting its memory reads.

    Reads are appended to ``read_specs`` in the exact operation order of
    ``executor._eval_expr`` (subscripts before the element they index,
    left before right), consuming the statement's extracted references
    from ``refs`` so every read spec carries its static
    :class:`MemoryReference` tag.
    """
    if isinstance(expr, Const):
        out.append((OP_CONST, expr.value))
        return
    if isinstance(expr, Var):
        # Innermost binding wins: an inner DO index that shadows the
        # region index must resolve to the (recorded) inner value, as
        # in executor ctx.locals.
        if expr.name in local_names:
            out.append((OP_LOCAL, expr.name))
            return
        if expr.name == region_index:
            out.append((OP_REGION_INDEX,))
            return
        out.append((OP_SLOT, len(read_specs)))
        read_specs.append((expr.name, next(refs, None), None))
        return
    if isinstance(expr, Index):
        dims = tuple(
            _dim_template(sub, local_names, region_index, refs, read_specs)
            for sub in expr.subscripts
        )
        out.append((OP_SLOT, len(read_specs)))
        read_specs.append((expr.name, next(refs, None), dims))
        return
    if isinstance(expr, BinOp):
        _compile_arith(expr.left, local_names, region_index, refs, read_specs, out)
        _compile_arith(expr.right, local_names, region_index, refs, read_specs, out)
        out.append((OP_BINOP, expr.op))
        return
    if isinstance(expr, UnaryOp):
        _compile_arith(expr.operand, local_names, region_index, refs, read_specs, out)
        out.append((OP_UNOP, expr.op))
        return
    if isinstance(expr, Call):
        for arg in expr.args:
            _compile_arith(arg, local_names, region_index, refs, read_specs, out)
        out.append((OP_CALL, len(expr.args), expr.func))
        return
    raise TraceError(f"cannot compile expression {expr!r}")


def compile_assign(
    stmt: Assign, local_names: Set[str], region_index: str
) -> CompiledAssign:
    """Compile ``stmt`` once; shared by every recorded instance of it."""
    refs = iter(stmt.reads or [])
    read_specs: List[Tuple] = []
    arith: List[Instruction] = []
    _compile_arith(stmt.rhs, local_names, region_index, refs, read_specs, arith)
    rhs_read_count = len(read_specs)
    if stmt.target_subscripts:
        target_dims = tuple(
            _dim_template(sub, local_names, region_index, refs, read_specs)
            for sub in stmt.target_subscripts
        )
    else:
        target_dims = None
    arith = tuple(arith)

    def program_uses_locals(program: ArithProgram) -> bool:
        return any(ins[0] == OP_LOCAL for ins in program)

    needs_env = program_uses_locals(arith)
    for _, _, dims in read_specs:
        if dims is not None:
            for tpl in dims:
                if tpl[0] == DIM_PROGRAM and program_uses_locals(tpl[1]):
                    needs_env = True
    if target_dims is not None:
        for tpl in target_dims:
            if tpl[0] == DIM_PROGRAM and program_uses_locals(tpl[1]):
                needs_env = True

    return CompiledAssign(
        read_specs=tuple(read_specs),
        rhs_read_count=rhs_read_count,
        arith_program=arith,
        arith_fn=codegen_arith(arith),
        needs_env=needs_env,
        cost_op=ComputeOp(_compute_cost(stmt, stmt.rhs)),
        target=stmt.target,
        target_dims=target_dims,
        write_ref=stmt.write,
    )


# ----------------------------------------------------------------------
# Prebuilt statement tree
# ----------------------------------------------------------------------
# Node kinds of the precompiled body tree walked by the recorder: every
# Assign is compiled exactly once, before the (possibly deeply unrolled)
# recording walk, so emission performs zero per-op dict lookups.
_N_ASSIGN = 0  # (_N_ASSIGN, stmt, CompiledAssign)
_N_IF = 1      # (_N_IF, stmt, then_nodes, else_nodes)
_N_DO = 2      # (_N_DO, stmt, body_nodes)


def _build_tree(
    body: Sequence[Statement], scope: Set[str], region_index: str
) -> List[Tuple]:
    """Precompile ``body`` into a parallel tree of statement nodes.

    Both arms of every ``IF`` are compiled even if never taken at record
    time -- slightly more conservative (an uncompilable dead branch now
    falls back to the interpreter), but it keeps the recording walk free
    of compilation entirely.
    """
    nodes: List[Tuple] = []
    for stmt in body:
        if isinstance(stmt, Assign):
            nodes.append(
                (_N_ASSIGN, stmt, compile_assign(stmt, scope, region_index))
            )
        elif isinstance(stmt, If):
            nodes.append(
                (
                    _N_IF,
                    stmt,
                    _build_tree(stmt.then_body, scope, region_index),
                    _build_tree(stmt.else_body, scope, region_index),
                )
            )
        elif isinstance(stmt, Do):
            nodes.append(
                (
                    _N_DO,
                    stmt,
                    _build_tree(stmt.body, scope | {stmt.index}, region_index),
                )
            )
        else:  # pragma: no cover - defensive
            raise TraceError(f"unknown statement {type(stmt).__name__}")
    return nodes


# ----------------------------------------------------------------------
# Record-time folding
# ----------------------------------------------------------------------
def _fold_dims(dim_templates: Tuple[Tuple, ...], env: Dict[str, float]):
    """Resolve inner-index terms of each dimension against ``env``.

    Returns ``(dims, affine, constant)``: each folded dim is a
    ``(base, region_coeff)`` pair, the slot index of a gather subscript
    or the generated function of a slot program.  ``affine`` is True
    when no program dims remain; ``constant`` additionally means no
    region-index involvement, i.e. the subscript tuple is fixed for
    every iteration.
    """
    dims: List = []
    affine = True
    constant = True
    for tpl in dim_templates:
        if tpl[0] == DIM_AFFINE:
            _, const, region_coeff, locals_part = tpl
            base = const
            for name, coeff in locals_part:
                base += coeff * env[name]
            if region_coeff:
                constant = False
            dims.append((base, region_coeff))
        else:
            _, program, fn = tpl
            if not any(
                ins[0] in (OP_SLOT, OP_REGION_INDEX) for ins in program
            ):
                # Fully known at record time (e.g. mod(t, 4) over an
                # inner index): fold to a constant dimension.  A
                # non-finite one is left to the interpreter, which
                # raises where the program executes it.
                value = fn((), 0, env)
                if not math.isfinite(value):
                    raise TraceError(f"subscript {value} is not finite")
                dims.append((int(round(value)), 0))
            elif len(program) == 1 and program[0][0] == OP_SLOT:
                # Plain gather dimension x(col(...)): the subscript IS
                # an earlier read value; represent it as its slot index.
                affine = False
                constant = False
                dims.append(program[0][1])
            else:
                affine = False
                constant = False
                dims.append(fn)
    return tuple(dims), affine, constant


# ----------------------------------------------------------------------
# Trace structure
# ----------------------------------------------------------------------
# Event opcodes for the recorded schedule.
EV_COMPUTE = 1    # (EV_COMPUTE, ComputeOp)
EV_CTRL_READ = 2  # (EV_CTRL_READ, ReadOp, expected_value)
EV_ASSIGN = 3     # (EV_ASSIGN, rhs_reads, target_reads, arith_fn,
                  #  arith_program, env, cost_op, target, subs_or_dims,
                  #  subs_affine, subs_const, write_ref)
                  # read entries: prebuilt ReadOp (fixed address),
                  #   (name, ref, dims) with all dims (base, coeff), or
                  #   (name, ref, dims, None) with mixed/program dims.
                  # target_reads are yielded after the cost ComputeOp,
                  # matching the interpreter's order for scatter writes.

Event = Tuple


@dataclass
class SegmentTrace:
    """The recorded, replayable schedule of one loop-region body."""

    region: str
    region_index: str
    events: List[Event] = field(default_factory=list)
    #: Variable -> value of every control read recorded (read-only
    #: scalars; the schedule is valid while they hold).
    ctrl_values: Dict[str, float] = field(default_factory=dict)

    def matches(self, memory: MemoryImage) -> bool:
        """True when this is still the schedule of its region over
        ``memory``: every recorded control read returns its recorded
        value."""
        read = memory.read
        return all(
            same_value(float(read(variable)), value)
            for variable, value in self.ctrl_values.items()
        )


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _control_expr_ok(
    expr: Expr, scope: Set[str], invariant_scalars: Set[str]
) -> bool:
    """Control expressions may read constants, in-scope inner indices and
    region-read-only scalars only."""
    if any(isinstance(node, Index) for node in expr.walk()):
        return False
    for occ in expr.reads():
        if occ.name in scope:
            continue
        if occ.name in invariant_scalars:
            continue
        return False
    return True


def _check_body(
    body: Sequence[Statement], scope: Set[str], invariant: Set[str]
) -> Optional[str]:
    """The first control expression of ``body`` that reads region input."""
    for stmt in body:
        if isinstance(stmt, Assign):
            if stmt.guard is not None and not _control_expr_ok(
                stmt.guard, scope, invariant
            ):
                return f"guard {stmt.guard} of {stmt.sid or stmt.target}"
        elif isinstance(stmt, If):
            if not _control_expr_ok(stmt.cond, scope, invariant):
                return f"IF condition {stmt.cond}"
            reason = _check_body(stmt.then_body, scope, invariant)
            if reason is None:
                reason = _check_body(stmt.else_body, scope, invariant)
            if reason is not None:
                return reason
        elif isinstance(stmt, Do):
            for bound in (stmt.lower, stmt.upper, stmt.step):
                if not _control_expr_ok(bound, scope, invariant):
                    return f"DO bound {bound} of loop {stmt.index}"
            reason = _check_body(stmt.body, scope | {stmt.index}, invariant)
            if reason is not None:
                return reason
        else:  # pragma: no cover - defensive
            return f"unknown statement {type(stmt).__name__}"
    return None


def trace_eligibility(
    region: LoopRegion, read_only: Optional[Set[str]] = None
) -> Tuple[bool, str]:
    """Decide whether ``region``'s body control flow is input-independent.

    Returns ``(eligible, reason)``; the reason names the first offending
    expression when ineligible (useful in reports and the bench output).
    """
    if read_only is None:
        from repro.analysis.readonly import read_only_variables

        read_only = read_only_variables(region)
    invariant = {v for v in read_only}
    reason = _check_body(region.body, set(), invariant)
    if reason is not None:
        return False, f"control flow depends on region input: {reason}"
    return True, "eligible"


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def record_trace(
    region: LoopRegion,
    resolve: Callable[[str], float],
    read_only: Optional[Set[str]] = None,
) -> SegmentTrace:
    """Record the replayable schedule of ``region``'s body.

    ``resolve(name)`` supplies the value of a read-only scalar at record
    time (the sequential driver passes a direct memory read).  Call
    :func:`trace_eligibility` first; recording an ineligible body raises
    :class:`TraceError`.
    """
    eligible, reason = trace_eligibility(region, read_only=read_only)
    if not eligible:
        raise TraceError(reason)

    trace = SegmentTrace(region=region.name, region_index=region.index)
    events = trace.events
    # Precompile the whole body once into a parallel tree; the unrolled
    # recording walk below then emits from prebuilt CompiledAssigns with
    # no per-op dict lookups at all.
    tree = _build_tree(region.body, set(), region.index)

    def emit_assign(ca: CompiledAssign, env: Dict[str, float]) -> None:
        reads_folded: List = []
        for name, ref, dim_templates in ca.read_specs:
            if dim_templates is None:
                reads_folded.append(ReadOp(name, (), ref))
                continue
            dims, affine, constant = _fold_dims(dim_templates, env)
            if constant:
                reads_folded.append(
                    ReadOp(name, tuple(b for b, _ in dims), ref)
                )
            elif affine:
                reads_folded.append((name, ref, dims))
            else:
                reads_folded.append((name, ref, dims, None))
        rhs_reads = tuple(reads_folded[: ca.rhs_read_count])
        target_reads = tuple(reads_folded[ca.rhs_read_count :])
        if ca.target_dims is None:
            subs_or_dims: Tuple = ()
            subs_affine = True
            subs_const = True
        else:
            dims, subs_affine, subs_const = _fold_dims(ca.target_dims, env)
            subs_or_dims = (
                tuple(b for b, _ in dims) if subs_const else dims
            )
        events.append(
            (
                EV_ASSIGN,
                rhs_reads,
                target_reads,
                ca.arith_fn,
                ca.arith_program,
                dict(env) if ca.needs_env else None,
                ca.cost_op,
                ca.target,
                subs_or_dims,
                subs_affine,
                subs_const,
                ca.write_ref,
            )
        )

    def eval_control(stmt: Statement, exprs: Sequence[Expr], env: Dict[str, float]):
        """Evaluate control expressions, recording their memory reads."""
        refs = iter(stmt.control_reads or [])

        def reader(name: str, subs: Tuple[int, ...]) -> float:
            if name in env:
                return env[name]
            # Eligibility guarantees a scalar read of a read-only variable.
            ref = next(refs, None)
            value = trace.ctrl_values[name] = float(resolve(name))
            events.append((EV_CTRL_READ, ReadOp(name, (), ref), value))
            return value

        return [expr.evaluate(reader) for expr in exprs]

    # Statement executions so far; the cap counts them with the events.
    executions = 0

    def overflow() -> None:
        if len(events) + executions > MAX_TRACE_EVENTS:
            raise TraceError(
                f"trace of region {region.name!r} exceeds "
                f"{MAX_TRACE_EVENTS} events"
            )

    def rec_body(nodes: Sequence[Tuple], env: Dict[str, float]):
        nonlocal executions
        for node in nodes:
            overflow()
            kind = node[0]
            executions += 1
            if kind == _N_ASSIGN:
                stmt = node[1]
                if stmt.guard is not None:
                    (guard_value,) = eval_control(stmt, (stmt.guard,), env)
                    events.append((EV_COMPUTE, _COMPUTE_1))
                    if not guard_value:
                        continue
                emit_assign(node[2], env)
            elif kind == _N_IF:
                stmt = node[1]
                (cond_value,) = eval_control(stmt, (stmt.cond,), env)
                events.append((EV_COMPUTE, _COMPUTE_1))
                rec_body(node[2] if cond_value else node[3], env)
            else:  # _N_DO
                stmt = node[1]
                lower, upper, step = eval_control(
                    stmt, (stmt.lower, stmt.upper, stmt.step), env
                )
                events.append((EV_COMPUTE, _COMPUTE_1))
                try:
                    values = index_range(
                        lower, upper, step, f"DO loop {stmt.sid or stmt.index}"
                    )
                except BoundError as exc:
                    # Left to the interpreter, which raises where the
                    # program executes the loop.
                    raise TraceError(str(exc)) from None
                had = stmt.index in env
                shadowed = env.get(stmt.index)
                body_nodes = node[2]
                for value in values:
                    overflow()
                    executions += 1
                    env[stmt.index] = value
                    events.append((EV_COMPUTE, _COMPUTE_1))
                    rec_body(body_nodes, env)
                if had:
                    env[stmt.index] = shadowed
                else:
                    env.pop(stmt.index, None)

    try:
        rec_body(tree, {})
    finally:
        # ``rec_body`` holds itself through its closure cell (and with it the
        # region): emptying the cell lets reference counting free both.
        del rec_body
    return trace


#: LoopRegion -> its last recorded trace; weak, so a dropped program
#: frees its trace.
_TRACES: "weakref.WeakKeyDictionary[LoopRegion, SegmentTrace]" = (
    weakref.WeakKeyDictionary()
)
_TRACES_LOCK = threading.Lock()


def region_trace(
    region: LoopRegion, memory: MemoryImage
) -> Tuple[Optional[SegmentTrace], str]:
    """The trace of ``region`` over ``memory`` and the replay reason:
    ``"replayed"``, or why the body cannot be traced (trace ``None``).

    A memoized trace is returned while :meth:`SegmentTrace.matches`
    holds; otherwise the region is recorded again and the new trace
    replaces it (failures are not memoized).  Concurrent runs may
    record one region twice; the last store wins, both are equivalent.
    """
    with _TRACES_LOCK:
        trace = _TRACES.get(region)
    if trace is not None and trace.matches(memory):
        return trace, "replayed"
    try:
        trace = record_trace(region, resolve=lambda name: memory.read(name, ()))
    except TraceError as exc:
        return None, str(exc)
    with _TRACES_LOCK:
        _TRACES[region] = trace
    return trace, "replayed"


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _program_subs(dims, values, iv, env) -> Tuple[int, ...]:
    """Subscript tuple of a read/write with at least one program dim;
    a non-finite subscript raises :class:`AddressError`."""
    out = []
    for d in dims:
        kind = type(d)
        if kind is tuple:  # (base, region_coeff)
            out.append(d[0] + d[1] * iv)
        elif kind is int:  # slot index of a gather subscript
            out.append(subscript_value(values[d]))
        else:  # the generated function of a slot program
            out.append(subscript_value(d(values, iv, env)))
    return tuple(out)


def replay_segment(trace: SegmentTrace, region_value: float) -> SegmentCoroutine:
    """Replay one recorded iteration as an operation coroutine.

    Yields the identical operation stream (and the same address errors)
    that an unbounded ``executor.segment_coroutine`` would produce for
    the same region-index value.
    """
    iv = region_value
    for event in trace.events:
        kind = event[0]
        if kind == EV_ASSIGN:
            (
                _,
                rhs_reads,
                target_reads,
                arith_fn,
                _arith_program,
                env,
                cost_op,
                target,
                subs_or_dims,
                subs_affine,
                subs_const,
                wref,
            ) = event
            values: List[float] = []
            for r in rhs_reads:
                if type(r) is ReadOp:
                    v = yield r
                elif len(r) == 3:  # all-affine address
                    dims = r[2]
                    if len(dims) == 2:
                        (b0, c0), (b1, c1) = dims
                        subs = (b0 + c0 * iv, b1 + c1 * iv)
                    elif len(dims) == 1:
                        b0, c0 = dims[0]
                        subs = (b0 + c0 * iv,)
                    else:
                        subs = tuple(b + c * iv for b, c in dims)
                    v = yield ReadOp(r[0], subs, r[1])
                else:  # value-dependent address: program dims
                    dims = r[2]
                    if len(dims) == 1 and type(dims[0]) is int:
                        try:
                            subs = (int(round(values[dims[0]])),)
                        except (OverflowError, ValueError) as exc:
                            raise AddressError(str(exc)) from exc
                    else:
                        subs = _program_subs(dims, values, iv, env)
                    v = yield ReadOp(r[0], subs, r[1])
                values.append(0.0 if v is None else v)
            rhs_value = arith_fn(values, iv, env)
            yield cost_op
            # Target-subscript reads execute after the cost op, exactly
            # as in executor._exec_assign.
            for r in target_reads:
                if type(r) is ReadOp:
                    v = yield r
                elif len(r) == 3:
                    dims = r[2]
                    if len(dims) == 1:
                        b0, c0 = dims[0]
                        subs = (b0 + c0 * iv,)
                    else:
                        subs = tuple(b + c * iv for b, c in dims)
                    v = yield ReadOp(r[0], subs, r[1])
                else:
                    v = yield ReadOp(
                        r[0], _program_subs(r[2], values, iv, env), r[1]
                    )
                values.append(0.0 if v is None else v)
            if subs_const:
                subs = subs_or_dims
            elif subs_affine:
                if len(subs_or_dims) == 2:
                    (b0, c0), (b1, c1) = subs_or_dims
                    subs = (b0 + c0 * iv, b1 + c1 * iv)
                elif len(subs_or_dims) == 1:
                    b0, c0 = subs_or_dims[0]
                    subs = (b0 + c0 * iv,)
                else:
                    subs = tuple(b + c * iv for b, c in subs_or_dims)
            else:
                subs = _program_subs(subs_or_dims, values, iv, env)
            yield WriteOp(target, subs, float(rhs_value), wref)
        elif kind == EV_COMPUTE:
            yield event[1]
        else:  # EV_CTRL_READ
            received = yield event[1]
            if received is not None and not same_value(received, event[2]):
                raise SimulationError(
                    f"trace replay divergence in region {trace.region!r}: "
                    f"control read {event[1].variable!r} returned "
                    f"{received!r}, recorded {event[2]!r}"
                )
