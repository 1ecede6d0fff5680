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

Every operator and intrinsic is total: its entry in ``_BINARY_OPS``,
``_UNARY_OPS`` or ``_INTRINSICS`` answers every float and every integer
that fits a float with a number, and never raises.  Division, ``//``,
``%`` and ``mod`` by zero give 0; ``**``, ``int``, ``sin`` and ``cos``
give 0.0 where Python would raise or return a complex; an integer ``+``,
``-``, ``*`` or ``**`` whose result does not fit a float gives 0.0.
Integer literals that do not fit a float and intrinsic calls with the
wrong number of arguments are rejected when the node is built.  These
tables are the one statement of the arithmetic: the interpreters call
them, and generated code inlines an operator only where the inline text
cannot differ from its entry.

The traversal order of :meth:`Expr.reads` defines the program order of
the read references inside one expression and is therefore load-bearing
for dependence analysis and for the speculative engines: subscripts are
read before the array element they index, left operands before right
operands, and intrinsic arguments left to right.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.ir.symbols import SymbolError

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
        if type(value) is int and int_constant_error(value):
            raise ExpressionError(int_constant_error(value))
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
        """The element read; a subscript that is an infinity or NaN
        raises :class:`~repro.ir.symbols.SymbolError`."""
        try:
            subs = tuple(int(round(s.evaluate(reader))) for s in self.subscripts)
        except (OverflowError, ValueError) as exc:
            raise SymbolError(str(exc)) from exc
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
#: Integers whose magnitude reaches this do not fit a float: ``float()``
#: rounds them to ``2 ** 1024`` and raises.
_FLOAT_INT_LIMIT = 2 ** 1024 - 2 ** 970


def fits_float(value: int) -> bool:
    """True when the integer ``value`` converts to a (finite) float."""
    return -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT


def add(a: Number, b: Number) -> Number:
    """``a + b``; 0.0 for an integer sum too large for a float."""
    r = a + b
    return r if type(r) is not int or fits_float(r) else 0.0


def sub(a: Number, b: Number) -> Number:
    """``a - b``; 0.0 for an integer difference too large for a float."""
    r = a - b
    return r if type(r) is not int or fits_float(r) else 0.0


def mul(a: Number, b: Number) -> Number:
    """``a * b``; 0.0 for an integer product too large for a float."""
    r = a * b
    return r if type(r) is not int or fits_float(r) else 0.0


def power(a: Number, b: Number) -> Number:
    """``a ** b``, made total: 0.0 where Python raises (``0.0 ** -1``),
    returns a complex (``(-1.0) ** 0.5``) or gives an integer too large
    for a float (``18 ** 400``); every other result is unchanged.

    An integer power that cannot fit a float is answered before it is
    computed, so a huge exponent costs nothing.
    """
    if type(a) is int and type(b) is int and b > 0:
        if (abs(a).bit_length() - 1) * b > 1024:  # |a| ** b >= 2 ** 1025
            return 0.0
    try:
        result = a ** b
    except (ArithmeticError, ValueError):
        return 0.0
    if type(result) is int:
        return result if fits_float(result) else 0.0
    return 0.0 if type(result) is complex else result


#: The operators' one meaning (see the module docstring).  Integer
#: results fit a float too, so with integer literals checked at
#: construction no expression ever sees an integer that does not.
_BINARY_OPS: dict = {
    "+": add,
    "-": sub,
    "*": mul,
    "/": lambda a, b: a / b if b != 0 else 0.0,
    "//": lambda a, b: a // b if b != 0 else 0,
    "%": lambda a, b: a % b if b != 0 else 0,
    "**": power,
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
    "sin": lambda a: 0.0 if math.isinf(a) else math.sin(a),
    "cos": lambda a: 0.0 if math.isinf(a) else math.cos(a),
    "int": lambda a: int(a) if math.isfinite(a) else 0.0,
    "sign": lambda a: (a > 0) - (a < 0),
}

#: Argument counts of the intrinsics other than one: (fewest, most),
#: ``None`` for no upper bound.
_ARITY: dict = {"min": (2, None), "max": (2, None), "mod": (2, 2)}


def arity_error(func: str, n: int) -> Optional[str]:
    """Why intrinsic ``func`` cannot take ``n`` arguments (None when it
    can)."""
    low, high = _ARITY.get(func, (1, 1))
    if low <= n and (high is None or n <= high):
        return None
    count = f"at least {low}" if high is None else str(low)
    noun = "argument" if count == "1" else "arguments"
    return f"intrinsic {func!r} takes {count} {noun}, got {n}"


def int_constant_error(value: int) -> Optional[str]:
    """Why an integer constant is rejected (None when it fits a float,
    as every value an expression computes must)."""
    if fits_float(value):
        return None
    return f"integer constant of {value.bit_length()} bits does not fit a float"


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
        return _BINARY_OPS[self.op](lhs, self.right.evaluate(reader))

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
        error = arity_error(func, len(self.args))
        if error:
            raise ExpressionError(error)

    def evaluate(self, reader: Reader) -> Number:
        return _INTRINSICS[self.func](*[a.evaluate(reader) for a in self.args])

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
    anything non-constant, non-integral or non-finite.
    """
    if isinstance(expr, Const):
        value = expr.value
        if math.isfinite(value) and float(value) == int(value):
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

