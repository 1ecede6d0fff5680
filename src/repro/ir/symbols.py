"""Symbols and symbol tables.

A :class:`Symbol` describes one program variable: either a scalar or a
(possibly multi-dimensional) array with static shape.  Arrays use
Fortran-style 1-based indexing in column-major order, matching the
source language the paper's prototype targeted; the flattened offset of
an element is computed by :meth:`Symbol.flatten_index`.

A :class:`SymbolTable` owns the symbols of one :class:`~repro.ir.program.
Program` and provides lookup, declaration and size accounting (used by
the speculative-storage occupancy model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.ir.types import VarKind


class SymbolError(Exception):
    """Raised on invalid declarations or out-of-bounds accesses."""


@dataclass(frozen=True)
class Symbol:
    """A program variable.

    Parameters
    ----------
    name:
        Identifier, case-sensitive, unique within a program.
    kind:
        :class:`VarKind.SCALAR` or :class:`VarKind.ARRAY`.
    shape:
        Dimension extents for arrays (empty tuple for scalars).  Array
        indices are 1-based, i.e. a dimension of extent ``n`` accepts
        subscripts ``1..n``.
    initial:
        Initial value for scalars (default ``0.0``) or fill value for
        arrays.
    element_bytes:
        Nominal size of one element, used only by the speculative-storage
        occupancy accounting (default 8, a double word).
    """

    name: str
    kind: VarKind = VarKind.SCALAR
    shape: Tuple[int, ...] = ()
    initial: float = 0.0
    element_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha():
            raise SymbolError(f"invalid symbol name {self.name!r}")
        if self.kind is VarKind.SCALAR and self.shape:
            raise SymbolError(f"scalar {self.name!r} must not have a shape")
        if self.kind is VarKind.ARRAY:
            if not self.shape:
                raise SymbolError(f"array {self.name!r} needs a shape")
            if any(int(d) <= 0 for d in self.shape):
                raise SymbolError(
                    f"array {self.name!r} has non-positive extent {self.shape}"
                )

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def is_array(self) -> bool:
        """True when the symbol is an array."""
        return self.kind is VarKind.ARRAY

    @property
    def rank(self) -> int:
        """Number of dimensions (0 for scalars)."""
        return len(self.shape)

    @property
    def size(self) -> int:
        """Number of addressable elements (1 for scalars)."""
        if not self.is_array:
            return 1
        n = 1
        for extent in self.shape:
            n *= int(extent)
        return n

    @property
    def footprint_bytes(self) -> int:
        """Nominal total size in bytes."""
        return self.size * self.element_bytes

    def flatten_index(self, subscripts: Sequence[int]) -> int:
        """Column-major flattening of 1-based ``subscripts`` to ``0..size-1``.

        Raises :class:`SymbolError` when the number of subscripts does not
        match the rank or any subscript is out of bounds.
        """
        if not self.is_array:
            if subscripts:
                raise SymbolError(
                    f"scalar {self.name!r} subscripted with {tuple(subscripts)}"
                )
            return 0
        if len(subscripts) != self.rank:
            raise SymbolError(
                f"array {self.name!r} has rank {self.rank}, got "
                f"{len(subscripts)} subscripts"
            )
        offset = 0
        stride = 1
        for sub, extent in zip(subscripts, self.shape):
            s = int(sub)
            if s < 1 or s > extent:
                raise SymbolError(
                    f"subscript {tuple(subscripts)} out of bounds for "
                    f"{self.name!r} with shape {self.shape}"
                )
            offset += (s - 1) * stride
            stride *= int(extent)
        return offset


@dataclass
class SymbolTable:
    """Mapping of names to :class:`Symbol` objects for one program."""

    _symbols: Dict[str, Symbol] = field(default_factory=dict)
    #: Flattened-address cache shared by every MemoryImage built over
    #: this table (symbol geometry is immutable, so entries never go
    #: stale and survive across program runs).
    _address_cache: Dict[tuple, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # address translation (hot path)
    # ------------------------------------------------------------------
    def address_of(self, variable: str, subscripts: Tuple[int, ...]) -> tuple:
        """``(variable, flattened offset)`` with memoized flattening.

        Raises :class:`SymbolError` for undeclared variables or
        out-of-bounds subscripts (validation happens on first use of
        each address; cached entries were already validated).
        """
        key = (variable, subscripts)
        address = self._address_cache.get(key)
        if address is None:
            symbol = self._symbols.get(variable)
            if symbol is None:
                raise SymbolError(f"undeclared variable {variable!r}")
            offset = symbol.flatten_index(tuple(int(s) for s in subscripts))
            address = (variable, offset)
            self._address_cache[key] = address
        return address

    # ------------------------------------------------------------------
    # declaration / lookup
    # ------------------------------------------------------------------
    def declare(self, symbol: Symbol) -> Symbol:
        """Register ``symbol``; redeclaration with a different signature fails."""
        existing = self._symbols.get(symbol.name)
        if existing is not None:
            if existing != symbol:
                raise SymbolError(
                    f"conflicting redeclaration of {symbol.name!r}: "
                    f"{existing} vs {symbol}"
                )
            return existing
        self._symbols[symbol.name] = symbol
        return symbol

    def scalar(self, name: str, initial: float = 0.0) -> Symbol:
        """Declare (or return) a scalar symbol."""
        return self.declare(Symbol(name=name, kind=VarKind.SCALAR, initial=initial))

    def array(
        self,
        name: str,
        shape: Sequence[int],
        initial: float = 0.0,
        element_bytes: int = 8,
    ) -> Symbol:
        """Declare (or return) an array symbol."""
        return self.declare(
            Symbol(
                name=name,
                kind=VarKind.ARRAY,
                shape=tuple(int(d) for d in shape),
                initial=initial,
                element_bytes=element_bytes,
            )
        )

    def lookup(self, name: str) -> Symbol:
        """Return the symbol named ``name`` or raise :class:`SymbolError`."""
        try:
            return self._symbols[name]
        except KeyError:
            raise SymbolError(f"undeclared variable {name!r}") from None

    def get(self, name: str) -> Optional[Symbol]:
        """Return the symbol named ``name`` or ``None``."""
        return self._symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols.values())

    def __len__(self) -> int:
        return len(self._symbols)

    def names(self) -> Iterable[str]:
        """All declared names in declaration order."""
        return self._symbols.keys()

    def arrays(self) -> Iterable[Symbol]:
        """All array symbols in declaration order."""
        return (s for s in self._symbols.values() if s.is_array)

    def scalars(self) -> Iterable[Symbol]:
        """All scalar symbols in declaration order."""
        return (s for s in self._symbols.values() if not s.is_array)

    def copy(self) -> "SymbolTable":
        """Shallow copy (symbols are immutable)."""
        return SymbolTable(dict(self._symbols))
