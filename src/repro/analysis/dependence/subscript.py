"""Affine subscript extraction.

A subscript expression is *affine for dependence testing* when it can be
written as::

    region_coeff * region_index
    + sum(inner_coeff[j] * inner_index_j)
    + sum(symbol_coeff[s] * invariant_symbol_s)
    + constant

where the invariant symbols are region-read-only scalars (their value is
fixed for the whole region execution, e.g. problem sizes like ``n``).
Anything else -- subscripted subscripts such as ``K(E)``, reads of
variables written inside the region, products of indices -- is
non-affine and forces conservative may-dependence answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.analysis.access import linear_terms
from repro.ir.expr import Expr, Index
from repro.ir.reference import MemoryReference


@dataclass(frozen=True)
class AffineSubscript:
    """Affine decomposition of one subscript expression."""

    #: Coefficient of the region loop index (0 when absent).
    region_coeff: int
    #: Coefficients of inner ``DO`` loop indices, keyed by index name.
    inner_coeffs: Tuple[Tuple[str, int], ...]
    #: Coefficients of region-invariant symbols, keyed by symbol name.
    symbol_coeffs: Tuple[Tuple[str, int], ...]
    #: Constant term.
    const: int
    #: False when the expression could not be decomposed.
    affine: bool = True

    @staticmethod
    def non_affine() -> "AffineSubscript":
        return AffineSubscript(0, (), (), 0, affine=False)


def extract_affine(
    expr: Expr,
    region_index: Optional[str],
    inner_indices: Set[str],
    invariant_symbols: Set[str],
) -> AffineSubscript:
    """Decompose ``expr`` into an :class:`AffineSubscript`.

    ``inner_indices`` are the ``DO`` index names in scope for the
    reference; ``invariant_symbols`` are region-read-only scalars.
    """
    if any(isinstance(node, Index) for node in expr.walk()):
        return AffineSubscript.non_affine()
    lin = linear_terms(expr)
    if lin is None:
        return AffineSubscript.non_affine()
    coeffs, const = lin
    region_coeff = 0
    inner: Dict[str, int] = {}
    symbols: Dict[str, int] = {}
    for name, coeff in coeffs.items():
        if coeff == 0:
            continue
        if region_index is not None and name == region_index:
            region_coeff = coeff
        elif name in inner_indices:
            inner[name] = coeff
        elif name in invariant_symbols:
            symbols[name] = coeff
        else:
            return AffineSubscript.non_affine()
    return AffineSubscript(
        region_coeff=region_coeff,
        inner_coeffs=tuple(sorted(inner.items())),
        symbol_coeffs=tuple(sorted(symbols.items())),
        const=const,
        affine=True,
    )


def affine_subscripts_of(
    ref: MemoryReference,
    region_index: Optional[str],
    invariant_symbols: Set[str],
) -> Tuple[AffineSubscript, ...]:
    """Affine decompositions of all subscripts of ``ref``."""
    inner_indices = {do.index for do in ref.enclosing_loops}
    return tuple(
        extract_affine(sub, region_index, inner_indices, invariant_symbols)
        for sub in ref.subscripts
    )
