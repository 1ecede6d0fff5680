"""Non-speculative storage: the architectural value store.

The paper's non-speculative storage is "the conventional memory
hierarchy".  We model its values as a :class:`MemoryImage`, addressed
by ``(variable name, flattened element offset)``; the engines take care
of *when* a value becomes architecturally visible.  Access costs are
priced by the timing model (:class:`repro.timing.cost.CostModel`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.ir.symbols import Symbol, SymbolError, SymbolTable
from repro.runtime.errors import AddressError

#: A memory address: (variable name, flattened 0-based element offset).
Address = Tuple[str, int]


_MISSING = object()


class MemoryImage:
    """Architectural values of all program variables."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        self._values: Dict[Address, float] = {}
        #: Hot-path caches: resolved symbols and initial values by name.
        #: Symbols are immutable so entries never go stale.  Address
        #: flattening is memoized on the symbol table itself so the
        #: cache survives across memory images of the same program.
        self._symbol_cache: Dict[str, Symbol] = {}
        self._initial_cache: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _symbol(self, variable: str) -> Symbol:
        symbol = self._symbol_cache.get(variable)
        if symbol is None:
            symbol = self.symbols.get(variable)
            if symbol is None:
                raise AddressError(f"undeclared variable {variable!r}")
            self._symbol_cache[variable] = symbol
        return symbol

    def address_of(self, variable: str, subscripts: Sequence[int] = ()) -> Address:
        """Translate a variable + subscripts into an :data:`Address`."""
        try:
            return self.symbols.address_of(variable, tuple(subscripts))
        except SymbolError as exc:
            raise AddressError(str(exc)) from exc

    def initial_value(self, variable: str) -> float:
        value = self._initial_cache.get(variable)
        if value is None:
            value = float(self._symbol(variable).initial)
            self._initial_cache[variable] = value
        return value

    # ------------------------------------------------------------------
    def load(self, address: Address) -> float:
        """Read a value (defaults to the symbol's initial value)."""
        value = self._values.get(address, _MISSING)
        if value is not _MISSING:
            return value
        return self.initial_value(address[0])

    def store(self, address: Address, value: float) -> None:
        """Write a value."""
        self._values[address] = float(value)

    def read(self, variable: str, subscripts: Sequence[int] = ()) -> float:
        """Read by name and subscripts."""
        return self.load(self.address_of(variable, subscripts))

    def write(self, variable: str, value: float, subscripts: Sequence[int] = ()) -> None:
        """Write by name and subscripts."""
        self.store(self.address_of(variable, subscripts), value)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[Address, float]:
        """Copy of all explicitly stored values."""
        return dict(self._values)

    def copy(self) -> "MemoryImage":
        """Deep copy (symbols shared; they are immutable)."""
        clone = MemoryImage(self.symbols)
        clone._values = dict(self._values)
        return clone

    def live_values(
        self, variables: Optional[Iterable[str]] = None
    ) -> Dict[Address, float]:
        """Stored values restricted to ``variables`` (all when ``None``)."""
        if variables is None:
            return self.snapshot()
        wanted = set(variables)
        return {
            addr: value for addr, value in self._values.items() if addr[0] in wanted
        }

    def differences(
        self,
        other: "MemoryImage",
        variables: Optional[Iterable[str]] = None,
        tolerance: float = 1e-9,
    ) -> Dict[Address, Tuple[float, float]]:
        """Addresses whose values differ between ``self`` and ``other``.

        ``tolerance`` is relative; pass ``0.0`` for exact (bit-level)
        comparison -- the right setting when both executions perform
        the identical float operations, as the speculative-engine
        equivalence checks do.
        """
        wanted = set(variables) if variables is not None else None
        addresses = set(self._values) | set(other._values)
        diffs: Dict[Address, Tuple[float, float]] = {}
        for addr in addresses:
            if wanted is not None and addr[0] not in wanted:
                continue
            a, b = self.load(addr), other.load(addr)
            if a != b and not (_both_nan(a, b)) and (
                tolerance == 0.0
                or abs(a - b) > tolerance * max(1.0, abs(a), abs(b))
            ):
                diffs[addr] = (a, b)
        return diffs

    def __len__(self) -> int:
        return len(self._values)


def _both_nan(a: float, b: float) -> bool:
    return a != a and b != b
