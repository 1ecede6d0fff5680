"""Canonical subscript signatures and the signature-bucketed fast path.

The classic pair loop of the dependence analyser calls
:func:`repro.analysis.dependence.subscript_tests.relation_of_reference_pair` for
every ordered pair of references to a variable, and that call re-derives
the affine decomposition of every subscript and the constant iteration
ranges of the enclosing inner loops *per pair* -- O(n^2) expression
walks for n references.

The observation behind the fast path: the relation test consumes a
reference only through

* its affine subscript decompositions
  (:class:`~repro.analysis.dependence.subscript.AffineSubscript`), and
* the constant iteration ranges of its enclosing inner ``DO`` loops,

both of which are static properties of the *textual* reference.  Two
references with equal decompositions and equal ranges are
indistinguishable to the test.  We therefore canonicalise each reference
into a hashable :class:`ReferenceSignature`, bucket references by
signature, and compute the relation set once per signature *pair*
instead of once per reference pair.  Real loop nests reuse a handful of
subscript patterns across many statements (the APPLU ``BUTS_DO1`` nest
of the paper's Figure 4 touches ``v(m, i, j, k)``-shaped elements
dozens of times), so the number of signature groups g is typically far
smaller than n and the O(n^2) relation tests collapse to O(g^2) plus
O(n^2) dictionary lookups.

Signature-pair results additionally prune provably-disjoint pairs
before any per-pair work: an empty relation set for a group pair
disposes of all member pairs at once.

The :class:`SignatureIndex` is the per-region instrument; it is safe to
reuse across analysis passes of the same region (signatures depend only
on the region text and the invariant-symbol set it was built with).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dependence.subscript import AffineSubscript, affine_subscripts_of
from repro.analysis.dependence.subscript_tests import (
    ALL_RELATIONS,
    LoopBounds,
    RelationSet,
    _inner_ranges,
    dimension_relations,
)
from repro.ir.reference import MemoryReference
from repro.ir.region import LoopRegion
from repro.ir.stmt import Do


@dataclass(frozen=True)
class ReferenceSignature:
    """Everything the relation test can observe about one reference.

    ``inner_ranges`` holds the constant iteration range (or ``None`` for
    unknown bounds) of each enclosing inner loop index, sorted by name
    so that equal environments hash equally.
    """

    rank: int
    subscripts: Tuple[AffineSubscript, ...]
    inner_ranges: Tuple[Tuple[str, Optional[Tuple[int, int]]], ...]

    @property
    def is_scalar(self) -> bool:
        return self.rank == 0


def signature_of(
    ref: MemoryReference,
    region_index: Optional[str],
    invariant_symbols: Set[str],
) -> ReferenceSignature:
    """Canonical signature of ``ref`` relative to the region loop."""
    if not ref.subscripts:
        return ReferenceSignature(rank=0, subscripts=(), inner_ranges=())
    subs = affine_subscripts_of(ref, region_index, invariant_symbols)
    ranges = _inner_ranges(ref)
    return ReferenceSignature(
        rank=len(ref.subscripts),
        subscripts=subs,
        inner_ranges=tuple(sorted(ranges.items())),
    )


def relation_of_signature_pair(
    sig_a: ReferenceSignature,
    sig_b: ReferenceSignature,
    bounds: LoopBounds,
) -> RelationSet:
    """Relation set of any reference pair with these signatures.

    Mirrors :func:`relation_of_reference_pair` exactly, but works from
    the precomputed decompositions (both references are assumed to name
    the same variable -- the analyser buckets by variable first).
    """
    if sig_a.is_scalar or sig_b.is_scalar:
        return ALL_RELATIONS
    if sig_a.rank != sig_b.rank:
        return ALL_RELATIONS
    ranges_a = dict(sig_a.inner_ranges)
    ranges_b = dict(sig_b.inner_ranges)
    relations = ALL_RELATIONS
    for sub_a, sub_b in zip(sig_a.subscripts, sig_b.subscripts):
        dim = dimension_relations(sub_a, sub_b, bounds, ranges_a, ranges_b)
        relations = relations & dim
        if not relations:
            return relations
    return relations


@dataclass
class SignatureIndex:
    """Per-region signature buckets plus the memoized pair-relation table.

    Build one per (region, invariant-symbol set); ask it for
    :meth:`group_of` each reference and :meth:`relations_of_groups` for
    pairs.  The index also exposes hit/miss counters so the benchmark
    harness can report pruning effectiveness.
    """

    region: LoopRegion
    invariant_symbols: frozenset
    bounds: LoopBounds = field(init=False)
    _group_ids: Dict[ReferenceSignature, int] = field(default_factory=dict)
    _groups: List[ReferenceSignature] = field(default_factory=list)
    _ref_groups: Dict[str, int] = field(default_factory=dict)
    _shape_groups: Dict[Tuple[Tuple[str, ...], Tuple[Do, ...]], int] = field(default_factory=dict)
    _pair_relations: Dict[Tuple[int, int], RelationSet] = field(default_factory=dict)
    pair_tests_run: int = 0
    pair_tests_saved: int = 0

    def __post_init__(self) -> None:
        self.bounds = LoopBounds.of_region(self.region)

    # ------------------------------------------------------------------
    def group_of(self, ref: MemoryReference, texts: Optional[Tuple[str, ...]] = None) -> int:
        """Signature group id of ``ref``, computed once per shape: textual
        subscripts (``texts``, if the caller has them) and loop tuple."""
        gid = self._ref_groups.get(ref.uid)
        if gid is not None:
            return gid
        if texts is None:
            texts = tuple(map(str, ref.subscripts))
        shape = (texts, ref.enclosing_loops)
        gid = self._shape_groups.get(shape)
        if gid is None:
            sig = signature_of(ref, self.region.index, self.invariant_symbols)
            gid = self._group_ids.get(sig)
            if gid is None:
                gid = len(self._groups)
                self._group_ids[sig] = gid
                self._groups.append(sig)
            self._shape_groups[shape] = gid
        self._ref_groups[ref.uid] = gid
        return gid

    def relations_of_groups(self, gid_a: int, gid_b: int) -> RelationSet:
        """Relation set of the (ordered) signature-group pair."""
        key = (gid_a, gid_b)
        cached = self._pair_relations.get(key)
        if cached is not None:
            self.pair_tests_saved += 1
            return cached
        relations = relation_of_signature_pair(
            self._groups[gid_a], self._groups[gid_b], self.bounds
        )
        self._pair_relations[key] = relations
        self.pair_tests_run += 1
        return relations

    def relations_of(
        self, ref_a: MemoryReference, ref_b: MemoryReference
    ) -> RelationSet:
        """Relation set of a reference pair via the group table."""
        return self.relations_of_groups(self.group_of(ref_a), self.group_of(ref_b))

    # ------------------------------------------------------------------
    def group_count(self) -> int:
        return len(self._groups)

    def stats(self) -> Dict[str, int]:
        """Counters for diagnostics and the benchmark report
        (``pair_tests_saved`` counts plan-key lookups, not reference pairs)."""
        return {
            "groups": len(self._groups),
            "references": len(self._ref_groups),
            "pair_tests_run": self.pair_tests_run,
            "pair_tests_saved": self.pair_tests_saved,
        }
