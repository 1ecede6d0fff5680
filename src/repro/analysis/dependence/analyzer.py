"""Dependence analysis driver.

Builds the :class:`~repro.analysis.dependence.graph.DependenceGraph` of
one region, reference by reference.  Two knobs exist, both of which the
paper's evaluation implicitly fixes:

* :class:`DependenceGranularity` -- ``ELEMENT`` applies the subscript
  tests of :mod:`repro.analysis.dependence.subscript_tests`; ``VARIABLE`` treats
  every pair of references to the same variable as may-aliasing (the
  whole-array behaviour of simpler prototypes).
* :class:`DirectionMode` -- ``EXECUTION`` orients cross-segment
  dependences by actual execution order (older segment is the source),
  which is the sound interpretation of the paper's definitions;
  ``TEXTUAL`` orients them by textual program order inside the segment
  body, which reproduces the narrative of the paper's Figure 4 for the
  count-down APPLU ``BUTS_DO1`` loop (see "Dependence direction" in
  docs/ANALYSIS.md for the discussion of this deviation).

Variables recognised as *private* carry no cross-segment dependences
(each segment gets its own copy at run time), so their cross-segment
pairs are suppressed; intra-segment dependences are kept.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.access import linear_terms
from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence.graph import (
    Dependence,
    DependenceGraph,
    PairPlan,
    PatternTable,
    PlanEdge,
    PlanKey,
    dependence_kind,
)
from repro.analysis.dependence.signature import SignatureIndex
from repro.analysis.dependence.subscript_tests import (
    ALL_RELATIONS,
    AliasRelation,
    RelationSet,
    explicit_pair_may_alias,
)
from repro.analysis.readonly import read_only_variables
from repro.ir.reference import MemoryReference
from repro.ir.region import ExplicitRegion, LoopRegion, Region
from repro.ir.types import AccessType, DependenceKind, DependenceScope


def _subscript_facts(ref: MemoryReference, memo: Dict[str, tuple]) -> tuple:
    """Cached (textual subscripts, affine decompositions) of one reference,
    which the intra-segment reverse test reads for every plan it decides.
    """
    facts = memo.get(ref.uid)
    if facts is None:
        facts = (
            tuple(str(s) for s in ref.subscripts),
            [linear_terms(s) for s in ref.subscripts],
        )
        memo[ref.uid] = facts
    return facts


def _intra_reverse_may_alias(
    ref_a: MemoryReference,
    ref_b: MemoryReference,
    invariant: Set[str],
    memo: Dict[str, tuple],
) -> bool:
    """May an *instance* of the textually-later reference execute before
    an instance of the textually-earlier one within a single segment?

    Within one segment execution the two references interleave only when
    both sit inside a common inner ``DO`` loop: iteration ``t`` of the
    loop runs the textually-later reference before iteration ``t+1``
    runs the textually-earlier one, so a may-alias across iterations is
    a real intra-segment dependence *against* textual order (e.g. the
    accumulation ``y(k) = y(k) + ...`` repeated by an inner loop, where
    the write of iteration ``t`` feeds the read of iteration ``t+1``).

    The one refinement: when the two references have structurally
    identical subscripts and every shared inner index is pinned by a
    dimension of its own (nonzero affine coefficient, no other shared
    index in that dimension, every other symbol in ``invariant`` -- the
    region index and region-read-only scalars, whose values cannot
    change between the two instances), distinct iterations touch
    distinct addresses and aliasing forces the *same* instance -- where
    textual order decides and no reverse dependence exists.  A symbol
    written inside the region (e.g. a scalar decremented by the inner
    loop) voids the pin: ``a(t + m)`` with ``m`` counting down touches
    the same address every iteration.
    """
    shared = [do for do in ref_a.enclosing_loops if do in ref_b.enclosing_loops]
    if not shared:
        return False
    subs_a, dims = _subscript_facts(ref_a, memo)
    subs_b, _ = _subscript_facts(ref_b, memo)
    if subs_a == subs_b and ref_a.subscripts:
        shared_indices = {do.index for do in shared}
        if all(d is not None for d in dims):
            pinned: Set[str] = set()
            for coeffs, _const in dims:
                involved = {
                    name
                    for name, coeff in coeffs.items()
                    if coeff != 0 and name in shared_indices
                }
                others_invariant = all(
                    name in shared_indices or name in invariant
                    for name, coeff in coeffs.items()
                    if coeff != 0
                )
                if len(involved) == 1 and others_invariant:
                    pinned |= involved
            if shared_indices <= pinned:
                return False
    return True


def _intra_segment_edges(
    ref_a: MemoryReference,
    ref_b: MemoryReference,
    invariant: Set[str],
    memo: Dict[str, tuple],
) -> List[Tuple[MemoryReference, MemoryReference, DependenceKind]]:
    """Intra-segment dependences of one aliasing pair, as
    ``(source, sink, kind)``.

    Program order decides the direction for same-instance aliasing; a
    shared inner loop additionally interleaves the instances, making
    the reverse direction real (see :func:`_intra_reverse_may_alias`).
    """
    source, sink = (
        (ref_a, ref_b) if ref_a.order < ref_b.order else (ref_b, ref_a)
    )
    pairs = (
        ((source, sink), (sink, source))
        if _intra_reverse_may_alias(ref_a, ref_b, invariant, memo)
        else ((source, sink),)
    )
    edges: List[Tuple[MemoryReference, MemoryReference, DependenceKind]] = []
    for src, snk in pairs:
        kind = dependence_kind(src, snk)
        if kind is not None:
            edges.append((src, snk, kind))
    return edges


class DependenceGranularity(enum.Enum):
    """Precision of the aliasing decision."""

    ELEMENT = "element"
    VARIABLE = "variable"


class DirectionMode(enum.Enum):
    """How cross-segment dependences are oriented."""

    EXECUTION = "execution"
    TEXTUAL = "textual"


@dataclass
class DependenceAnalyzer:
    """Configurable reference-by-reference dependence analyser.

    At ``ELEMENT`` granularity, loop-region relations come from the
    signature-bucketed memoization of
    :mod:`repro.analysis.dependence.signature` (one subscript test per
    signature pair).  ``cache`` memoizes whole dependence graphs (and
    signature indexes) across analysis passes.
    """

    granularity: DependenceGranularity = DependenceGranularity.ELEMENT
    direction: DirectionMode = DirectionMode.EXECUTION
    cache: Optional[AnalysisCache] = None

    # ------------------------------------------------------------------
    def analyze(
        self,
        region: Region,
        private_variables: Optional[Set[str]] = None,
        read_only: Optional[Set[str]] = None,
    ) -> DependenceGraph:
        """Build the dependence graph of ``region``."""
        private_variables = set(private_variables or ())
        if read_only is None:
            if self.cache is not None:
                read_only = self.cache.get_or_compute(
                    region, "read_only", lambda: read_only_variables(region)
                )
            else:
                read_only = read_only_variables(region)
        if self.cache is not None:
            key = (
                "dependence_graph",
                self.granularity,
                self.direction,
                frozenset(private_variables),
                frozenset(read_only),
            )
            return self.cache.get_or_compute(
                region,
                key,
                lambda: self._build(region, private_variables, read_only),
            )
        return self._build(region, private_variables, read_only)

    def _build(
        self,
        region: Region,
        private_variables: Set[str],
        read_only: Set[str],
    ) -> DependenceGraph:
        graph = DependenceGraph(region.name)
        if isinstance(region, LoopRegion):
            self._analyze_loop(region, graph, private_variables, read_only)
        elif isinstance(region, ExplicitRegion):
            self._analyze_explicit(region, graph, private_variables, read_only)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown region type {type(region).__name__}")
        return graph

    def _signature_index(
        self, region: LoopRegion, read_only: Set[str]
    ) -> SignatureIndex:
        """Signature index for ``region`` (shared through the cache)."""
        invariant = frozenset(read_only)

        def build() -> SignatureIndex:
            return SignatureIndex(region=region, invariant_symbols=invariant)

        if self.cache is not None:
            return self.cache.get_or_compute(
                region, ("signature_index", invariant), build
            )
        return build()

    # ------------------------------------------------------------------
    # loop regions
    # ------------------------------------------------------------------
    def _analyze_loop(
        self,
        region: LoopRegion,
        graph: DependenceGraph,
        private_variables: Set[str],
        read_only: Set[str],
    ) -> None:
        by_var: Dict[str, List[MemoryReference]] = {}
        for ref in region.references:
            by_var.setdefault(ref.variable, []).append(ref)

        index: Optional[SignatureIndex] = None
        if self.granularity is DependenceGranularity.ELEMENT:
            index = self._signature_index(region, read_only)

        # Names whose values cannot change between two instances within
        # one segment: the region index and region-read-only scalars.
        invariant = set(read_only) | {region.index}
        memo: Dict[str, tuple] = {}
        # A reference's *pattern* is everything about it that the per-pair
        # decision reads: its signature group (which fixes the relation
        # set), access type, textual subscripts (the intra-segment reverse
        # test compares them), the identity of its enclosing loop-header tuple
        # (the shared inner loops) and whether its variable is private.
        # Two pairs with equal patterns, the same ``ref_a is ref_b`` and the
        # same order comparison emit the same edges, so each plan key is
        # decided once per pass, from one representative pair; per variable
        # the graph gets a pattern table and answers labeling from it.
        patterns: Dict[tuple, int] = {}
        groups: List[int] = []  # per pattern id
        plans: Dict[PlanKey, Optional[PairPlan]] = {}

        def decide(
            key: PlanKey, ref_a: MemoryReference, ref_b: MemoryReference
        ) -> Optional[PairPlan]:
            relations = (
                index.relations_of_groups(groups[key[0]], groups[key[1]])
                if index is not None else ALL_RELATIONS
            )
            if not relations:
                return None
            plan = self._emission_plan(
                ref_a, ref_b, relations, ref_a.variable, private_variables, invariant, memo
            )
            return plan if plan.edges else None  # read-read pairs emit nothing

        for variable, refs in by_var.items():
            if all(r.access is AccessType.READ for r in refs):
                continue  # read-only variables carry no dependences
            private = variable in private_variables
            refs_sorted = sorted(refs, key=lambda r: r.order)
            pats: List[int] = []
            for ref in refs_sorted:
                texts = tuple(map(str, ref.subscripts))
                group = index.group_of(ref, texts) if index is not None else -1
                pattern = (group, ref.access, texts, id(ref.enclosing_loops), private)
                if pattern not in patterns:
                    patterns[pattern] = len(groups)
                    groups.append(group)
                pats.append(patterns[pattern])
            graph.add_table(PatternTable(variable, refs_sorted, pats, plans, decide))

    def _emission_plan(
        self,
        ref_a: MemoryReference,
        ref_b: MemoryReference,
        relations: RelationSet,
        variable: str,
        private_variables: Set[str],
        invariant: Set[str],
        memo: Dict[str, tuple],
    ) -> PairPlan:
        """The per-pair decision: the edges one loop-region pair emits,
        with the pair's references abstracted to "source is ``ref_a``".

        Any other pair with the same plan key (see :meth:`_analyze_loop`)
        emits the same edges: the key holds everything this reads.
        """
        edges: List[PlanEdge] = []
        # Intra-segment dependences (same iteration).
        if AliasRelation.SAME in relations and ref_a is not ref_b:
            for src, _, intra_kind in _intra_segment_edges(
                ref_a, ref_b, invariant, memo
            ):
                edges.append(
                    (src is ref_a, intra_kind, DependenceScope.INTRA_SEGMENT, 0)
                )
        # Cross-segment dependences.
        carried = AliasRelation.BEFORE in relations or AliasRelation.AFTER in relations
        if variable in private_variables or not carried:
            return PairPlan(tuple(edges))
        if self.direction is DirectionMode.TEXTUAL:
            source, sink = (
                (ref_a, ref_b) if ref_a.order <= ref_b.order else (ref_b, ref_a)
            )
            kind = dependence_kind(source, sink)
            if kind is not None:
                edges.append(
                    (source is ref_a, kind, DependenceScope.CROSS_SEGMENT, None)
                )
        else:
            # Execution-order direction: BEFORE means ref_a's segment is older.
            if AliasRelation.BEFORE in relations:
                kind = dependence_kind(ref_a, ref_b)
                if kind is not None:
                    edges.append((True, kind, DependenceScope.CROSS_SEGMENT, None))
            if AliasRelation.AFTER in relations and ref_a is not ref_b:
                kind = dependence_kind(ref_b, ref_a)
                if kind is not None:
                    edges.append((False, kind, DependenceScope.CROSS_SEGMENT, None))
        return PairPlan(tuple(edges))

    def _emit_loop_dependences(
        self,
        graph: DependenceGraph,
        ref_a: MemoryReference,
        ref_b: MemoryReference,
        relations: RelationSet,
        variable: str,
        private_variables: Set[str],
        invariant: Set[str],
        memo: Dict[str, tuple],
    ) -> None:
        """Add one pair's edges to ``graph`` as :class:`Dependence`
        records: the per-pair decision without the plan memo or the
        compact graph, which :meth:`_analyze_loop` is tested against."""
        plan = self._emission_plan(
            ref_a, ref_b, relations, variable, private_variables, invariant, memo
        )
        for a_is_source, kind, scope, distance in plan.edges:
            graph.add(Dependence(
                ref_a if a_is_source else ref_b,
                ref_b if a_is_source else ref_a,
                kind, scope, variable, distance,
            ))

    # ------------------------------------------------------------------
    # explicit regions
    # ------------------------------------------------------------------
    def _analyze_explicit(
        self,
        region: ExplicitRegion,
        graph: DependenceGraph,
        private_variables: Set[str],
        read_only: Set[str],
    ) -> None:
        from repro.analysis.cfg import SegmentGraph

        segment_graph = SegmentGraph.from_region(region)
        reachable: Dict[str, Set[str]] = {
            name: segment_graph.reachable_from(name)
            for name in region.segment_names()
        }
        by_var: Dict[str, List[MemoryReference]] = {}
        for ref in region.references:
            by_var.setdefault(ref.variable, []).append(ref)

        # Explicit regions have no region index; only region-read-only
        # scalars are invariant between two instances within one segment.
        memo: Dict[str, tuple] = {}

        for variable, refs in by_var.items():
            writes = [r for r in refs if r.access is AccessType.WRITE]
            if not writes:
                continue
            for ref_a, ref_b in itertools.combinations(refs, 2):
                if (
                    ref_a.access is AccessType.READ
                    and ref_b.access is AccessType.READ
                ):
                    continue
                if self.granularity is DependenceGranularity.ELEMENT:
                    if not explicit_pair_may_alias(ref_a, ref_b):
                        continue
                if ref_a.segment == ref_b.segment:
                    for edge in _intra_segment_edges(ref_a, ref_b, read_only, memo):
                        graph.add(Dependence(
                            *edge, DependenceScope.INTRA_SEGMENT, variable, 0
                        ))
                else:
                    if variable in private_variables:
                        continue
                    age_a = region.age_of(ref_a.segment)
                    age_b = region.age_of(ref_b.segment)
                    source, sink = (
                        (ref_a, ref_b) if age_a < age_b else (ref_b, ref_a)
                    )
                    # Segments on mutually exclusive control-flow paths can
                    # never both appear in a final execution, so no data
                    # dependence connects them (the RFW analysis separately
                    # accounts for stale values left by wrong-path writes).
                    if sink.segment not in reachable.get(source.segment, set()):
                        continue
                    kind = dependence_kind(source, sink)
                    if kind is not None:
                        graph.add(
                            Dependence(
                                source=source,
                                sink=sink,
                                kind=kind,
                                scope=DependenceScope.CROSS_SEGMENT,
                                variable=variable,
                                distance=abs(age_b - age_a),
                            )
                        )


def analyze_dependences(
    region: Region,
    private_variables: Optional[Set[str]] = None,
    read_only: Optional[Set[str]] = None,
    granularity: DependenceGranularity = DependenceGranularity.ELEMENT,
    direction: DirectionMode = DirectionMode.EXECUTION,
    cache: Optional[AnalysisCache] = None,
) -> DependenceGraph:
    """Convenience wrapper around :class:`DependenceAnalyzer`."""
    analyzer = DependenceAnalyzer(
        granularity=granularity,
        direction=direction,
        cache=cache,
    )
    return analyzer.analyze(
        region, private_variables=private_variables, read_only=read_only
    )
