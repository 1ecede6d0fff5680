"""Programs.

A :class:`Program` is a symbol table, an optional *init* section
(sequential, non-speculative code that sets up array contents), an
ordered list of regions, and an optional *finale* section (sequential
code that consumes region results, which makes those variables live-out
of the preceding regions).

Regions execute sequentially with respect to each other (HOSE
Property 1); only the segments inside one region run speculatively in
parallel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.ir.reference import MemoryReference, assign_statement_ids, extract_references
from repro.ir.region import Region
from repro.ir.stmt import Statement
from repro.ir.symbols import SymbolTable


class ProgramError(Exception):
    """Raised for malformed programs."""


class Program:
    """A complete analysable and executable program."""

    def __init__(
        self,
        name: str,
        symbols: Optional[SymbolTable] = None,
        init: Sequence[Statement] = (),
        regions: Sequence[Region] = (),
        finale: Sequence[Statement] = (),
    ):
        if not name:
            raise ProgramError("program needs a name")
        self.name = name
        self.symbols: SymbolTable = symbols if symbols is not None else SymbolTable()
        self.init: List[Statement] = list(init)
        self.regions: List[Region] = list(regions)
        self.finale: List[Statement] = list(finale)

        region_names = [r.name for r in self.regions]
        if len(set(region_names)) != len(region_names):
            raise ProgramError(f"duplicate region names in {name!r}: {region_names}")

        assign_statement_ids(self.init, prefix=f"{name}.<init>")
        assign_statement_ids(self.finale, prefix=f"{name}.<finale>")
        #: References of the init / finale sections (non-speculative code);
        #: used by liveness analysis, not by the labeling algorithm.
        self.init_references: List[MemoryReference] = extract_references(
            self.init, segment="<init>", region="<init>", uid_prefix=f"{name}.<init>"
        )
        self.finale_references: List[MemoryReference] = extract_references(
            self.finale,
            segment="<finale>",
            region="<finale>",
            uid_prefix=f"{name}.<finale>",
        )

    # ------------------------------------------------------------------
    def region(self, name: str) -> Region:
        """Return the region named ``name``."""
        for region in self.regions:
            if region.name == name:
                return region
        raise ProgramError(f"program {self.name!r} has no region {name!r}")

    def region_index(self, name: str) -> int:
        """Position of region ``name`` in program order."""
        for i, region in enumerate(self.regions):
            if region.name == name:
                return i
        raise ProgramError(f"program {self.name!r} has no region {name!r}")

    def regions_after(self, name: str) -> List[Region]:
        """Regions that execute after region ``name``."""
        return self.regions[self.region_index(name) + 1 :]

    def all_references(self) -> List[MemoryReference]:
        """All region references in program order (init/finale excluded)."""
        out: List[MemoryReference] = []
        for region in self.regions:
            out.extend(region.references)
        return out

    def referenced_variables(self) -> Set[str]:
        """All memory variables referenced anywhere in the program."""
        out: Set[str] = set()
        for ref in self.init_references:
            out.add(ref.variable)
        for region in self.regions:
            out |= region.variables()
        for ref in self.finale_references:
            out.add(ref.variable)
        return out

    def ensure_declared(self) -> None:
        """Declare every referenced variable that is missing as a scalar.

        Convenience for hand-built programs; the DSL front end requires
        explicit declarations and never relies on this.
        """
        for name in sorted(self.referenced_variables()):
            if name not in self.symbols:
                self.symbols.scalar(name)

    def summary(self) -> Dict[str, int]:
        """Small structural summary (used by reports and tests)."""
        return {
            "regions": len(self.regions),
            "symbols": len(self.symbols),
            "init_statements": len(self.init),
            "region_references": len(self.all_references()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Program {self.name} regions={len(self.regions)}>"
