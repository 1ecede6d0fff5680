"""Expression AST.

Expressions are side-effect free trees built from constants, scalar
reads, array-element reads, unary / binary operators and a small set of
intrinsic functions.  They are used both for right-hand sides of
assignments and for subscripts, loop bounds, guards and branch
conditions.

Evaluation is performed through a *reader* callback so that the
different execution substrates (sequential interpreter, HOSE, CASE) can
intercept every memory read: ``reader(name, subscripts)`` receives the
variable name and a tuple of integer subscript values (empty for
scalars) and returns the value.

The traversal order of :meth:`Expr.reads` defines the program order of
the read references inside one expression and is therefore load-bearing
for dependence analysis and for the speculative engines: subscripts are
read before the array element they index, left operands before right
operands, and intrinsic arguments left to right.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

Number = Union[int, float]
#: Signature of the memory-read callback used by :meth:`Expr.evaluate`.
Reader = Callable[[str, Tuple[int, ...]], Number]


class ExpressionError(Exception):
    """Raised for malformed expressions or evaluation errors."""


class Expr:
    """Base class of all expression nodes."""

    __slots__ = ()

    # -- evaluation ----------------------------------------------------
    def evaluate(self, reader: Reader) -> Number:
        """Evaluate the expression, routing memory reads through ``reader``."""
        raise NotImplementedError

    # -- structural queries --------------------------------------------
    def reads(self) -> List["ReadOccurrence"]:
        """Every memory-read occurrence, in evaluation order."""
        out: List[ReadOccurrence] = []
        self._add_reads(out)
        return out

    def _add_reads(self, out: List["ReadOccurrence"]) -> None:
        """Append the read occurrences of this tree to ``out``."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions."""
        raise NotImplementedError

    def variables(self) -> set:
        """Names of all variables read anywhere in the expression."""
        return {occ.name for occ in self.reads()}

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    # -- misc ----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self})"


class ReadOccurrence(NamedTuple):
    """One textual read occurrence inside an expression.

    ``subscripts`` are the (unevaluated) subscript expressions: an empty
    tuple denotes a scalar read.
    """

    name: str
    subscripts: Tuple[Expr, ...] = ()

    @property
    def is_array(self) -> bool:
        return bool(self.subscripts)


#: ``_occurrence(ReadOccurrence, (name, subscripts))`` skips the named
#: tuple's Python-level ``__new__``.
_occurrence: Any = tuple.__new__


# ----------------------------------------------------------------------
# Leaf nodes
# ----------------------------------------------------------------------
class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            raise ExpressionError(f"constant must be a number, got {value!r}")
        self.value = value

    def evaluate(self, reader: Reader) -> Number:
        return self.value

    def _add_reads(self, out: List[ReadOccurrence]) -> None:
        pass

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, float) else str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))


class Var(Expr):
    """A scalar variable read."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name:
            raise ExpressionError("variable name must be non-empty")
        self.name = name

    def evaluate(self, reader: Reader) -> Number:
        return reader(self.name, ())

    def _add_reads(self, out: List[ReadOccurrence]) -> None:
        out.append(_occurrence(ReadOccurrence, (self.name, ())))

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))


class Index(Expr):
    """An array-element read ``name(sub1, sub2, ...)``."""

    __slots__ = ("name", "subscripts")

    def __init__(self, name: str, subscripts: Sequence[Expr]):
        if not name:
            raise ExpressionError("array name must be non-empty")
        subs = tuple(as_expr(s) for s in subscripts)
        if not subs:
            raise ExpressionError(f"array read of {name!r} needs subscripts")
        self.name = name
        self.subscripts = subs

    def evaluate(self, reader: Reader) -> Number:
        subs = tuple(int(round(s.evaluate(reader))) for s in self.subscripts)
        return reader(self.name, subs)

    def _add_reads(self, out: List[ReadOccurrence]) -> None:
        for sub in self.subscripts:
            sub._add_reads(out)
        out.append(_occurrence(ReadOccurrence, (self.name, self.subscripts)))

    def children(self) -> Tuple[Expr, ...]:
        return self.subscripts

    def __str__(self) -> str:
        inner = ", ".join(str(s) for s in self.subscripts)
        return f"{self.name}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Index)
            and other.name == self.name
            and other.subscripts == self.subscripts
        )

    def __hash__(self) -> int:
        return hash(("Index", self.name, self.subscripts))


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
_BINARY_OPS: dict = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b != 0 else 0.0,
    "//": lambda a, b: a // b if b != 0 else 0,
    "%": lambda a, b: a % b if b != 0 else 0,
    "**": lambda a, b: a ** b,
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "and": lambda a, b: int(bool(a) and bool(b)),
    "or": lambda a, b: int(bool(a) or bool(b)),
}

_UNARY_OPS: dict = {
    "-": lambda a: -a,
    "+": lambda a: +a,
    "not": lambda a: int(not bool(a)),
    "abs": abs,
}

_INTRINSICS: dict = {
    "abs": abs,
    "min": min,
    "max": max,
    "mod": lambda a, b: a % b if b != 0 else 0,
    "sqrt": lambda a: math.sqrt(abs(a)),
    "exp": lambda a: math.exp(min(a, 60.0)),
    "log": lambda a: math.log(abs(a)) if a != 0 else 0.0,
    "sin": math.sin,
    "cos": math.cos,
    "int": lambda a: int(a),
    "sign": lambda a: (a > 0) - (a < 0),
}


class BinOp(Expr):
    """A binary operation.  Comparison and logical results are 0 / 1."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _BINARY_OPS:
            raise ExpressionError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = as_expr(left)
        self.right = as_expr(right)

    def evaluate(self, reader: Reader) -> Number:
        lhs = self.left.evaluate(reader)
        rhs = self.right.evaluate(reader)
        try:
            return _BINARY_OPS[self.op](lhs, rhs)
        except (OverflowError, ValueError):  # pragma: no cover - defensive
            return 0.0

    def _add_reads(self, out: List[ReadOccurrence]) -> None:
        self.left._add_reads(out)
        self.right._add_reads(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinOp)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, self.left, self.right))


class UnaryOp(Expr):
    """A unary operation (negation, logical not, absolute value)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op not in _UNARY_OPS:
            raise ExpressionError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = as_expr(operand)

    def evaluate(self, reader: Reader) -> Number:
        return _UNARY_OPS[self.op](self.operand.evaluate(reader))

    def _add_reads(self, out: List[ReadOccurrence]) -> None:
        self.operand._add_reads(out)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnaryOp)
            and other.op == self.op
            and other.operand == self.operand
        )

    def __hash__(self) -> int:
        return hash(("UnaryOp", self.op, self.operand))


class Call(Expr):
    """An intrinsic function call (``min``, ``max``, ``mod``, ``sqrt``...)."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr]):
        if func not in _INTRINSICS:
            raise ExpressionError(f"unknown intrinsic {func!r}")
        self.func = func
        self.args = tuple(as_expr(a) for a in args)

    def evaluate(self, reader: Reader) -> Number:
        values = [a.evaluate(reader) for a in self.args]
        try:
            return _INTRINSICS[self.func](*values)
        except (TypeError, ValueError, OverflowError):  # pragma: no cover
            return 0.0

    def _add_reads(self, out: List[ReadOccurrence]) -> None:
        for arg in self.args:
            arg._add_reads(out)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.func}({inner})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Call)
            and other.func == self.func
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("Call", self.func, self.args))


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
ExprLike = Union[Expr, Number, str]


def const_int(expr: Expr) -> Optional[int]:
    """Integer value of a constant expression, folding unary minus.

    The DSL parses ``-1`` as ``UnaryOp('-', Const(1))``, so bound
    checks that only accept :class:`Const` silently miss negative
    literals (e.g. a backward loop's step).  Returns ``None`` for
    anything non-constant or non-integral.
    """
    if isinstance(expr, Const):
        value = expr.value
        if float(value) == int(value):
            return int(value)
        return None
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = const_int(expr.operand)
        return -inner if inner is not None else None
    return None


def as_expr(value: ExprLike) -> Expr:
    """Coerce Python values into :class:`Expr` nodes.

    Numbers become :class:`Const`, strings become scalar :class:`Var`
    reads, and :class:`Expr` instances pass through unchanged.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Const(value)
    if isinstance(value, str):
        return Var(value)
    raise ExpressionError(f"cannot convert {value!r} to an expression")


def intrinsics() -> Tuple[str, ...]:
    """Names of the supported intrinsic functions."""
    return tuple(sorted(_INTRINSICS))


def apply_binary(op: str, left: Number, right: Number) -> Number:
    """Apply a binary operator to evaluated operands (used by the runtime)."""
    try:
        return _BINARY_OPS[op](left, right)
    except KeyError:
        raise ExpressionError(f"unknown binary operator {op!r}") from None
    except (OverflowError, ValueError):  # pragma: no cover - defensive
        return 0.0


def apply_unary(op: str, operand: Number) -> Number:
    """Apply a unary operator to an evaluated operand (used by the runtime)."""
    try:
        return _UNARY_OPS[op](operand)
    except KeyError:
        raise ExpressionError(f"unknown unary operator {op!r}") from None


def apply_intrinsic(func: str, args: Sequence[Number]) -> Number:
    """Apply an intrinsic function to evaluated arguments (used by the runtime)."""
    try:
        fn = _INTRINSICS[func]
    except KeyError:
        raise ExpressionError(f"unknown intrinsic {func!r}") from None
    try:
        return fn(*args)
    except (TypeError, ValueError, OverflowError):  # pragma: no cover - defensive
        return 0.0
