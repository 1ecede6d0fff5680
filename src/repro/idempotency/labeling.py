"""Idempotency labeling -- Algorithm 2 (Theorems 1 and 2).

Given a region, the labeling pipeline runs the prerequisite analyses
(read-only variables, per-segment access summaries, liveness,
privatization, reference-by-reference may-dependences, RFW analysis) and
then assigns every memory reference a label:

* ``SPECULATIVE`` -- tracked in speculative storage, exactly as in HOSE;
* ``IDEMPOTENT``  -- bypasses speculative storage (Definition 4).

The rules are those of Algorithm 2:

1. If the region has no cross-segment data or control dependences it is
   *fully independent* (Lemma 7) and every reference is idempotent.
2. Otherwise:
   * references to read-only variables are idempotent (Lemma 4),
   * references to private variables are idempotent,
   * a write is idempotent iff it is a re-occurring first write and not
     the sink of a cross-segment dependence (Theorem 1),
   * a read is idempotent iff it is not the sink of any dependence, or
     every dependence it sinks is intra-segment with an
     already-idempotent write as its source (Theorem 2, Lemma 6).

Each idempotent reference also receives the reporting category of
Section 4.1 (read-only / private / shared-dependent, or
fully-independent when rule 1 fired).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.access import AccessSummary, summarize_region_segments
from repro.analysis.cache import AnalysisCache
from repro.analysis.control_dependence import has_cross_segment_control_dependence
from repro.analysis.dependence import (
    DependenceGranularity,
    DependenceGraph,
    DirectionMode,
    analyze_dependences,
)
from repro.analysis.liveness import region_live_out
from repro.analysis.privatization import private_variables
from repro.analysis.readonly import read_only_variables
from repro.idempotency.rfw import RFWResult, analyze_rfw
from repro.obs.tracer import _NULL_SPAN, TRACER, Tracer
from repro.ir.program import Program
from repro.ir.reference import MemoryReference
from repro.ir.region import Region
from repro.ir.types import AccessType, IdempotencyCategory, RefLabel


@dataclass
class LabelingResult:
    """Labels, categories and all supporting analysis facts for one region."""

    region: Region
    labels: Dict[str, RefLabel]
    categories: Dict[str, IdempotencyCategory]
    fully_independent: bool
    read_only_vars: Set[str]
    private_vars: Set[str]
    live_out: Set[str]
    rfw: RFWResult
    dependences: DependenceGraph
    summaries: Dict[str, AccessSummary] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def label_of(self, ref: MemoryReference) -> RefLabel:
        """Label of one reference (defaults to speculative)."""
        return self.labels.get(ref.uid, RefLabel.SPECULATIVE)

    def category_of(self, ref: MemoryReference) -> IdempotencyCategory:
        """Reporting category of one reference."""
        return self.categories.get(ref.uid, IdempotencyCategory.NOT_IDEMPOTENT)

    def is_idempotent(self, ref: MemoryReference) -> bool:
        return self.label_of(ref) is RefLabel.IDEMPOTENT

    def idempotent_references(self) -> List[MemoryReference]:
        return [r for r in self.region.references if self.is_idempotent(r)]

    def static_fraction_idempotent(self) -> float:
        """Fraction of textual references labeled idempotent."""
        total = len(self.region.references)
        if total == 0:
            return 0.0
        return len(self.idempotent_references()) / total

    def counts_by_category(self) -> Dict[IdempotencyCategory, int]:
        """Static reference counts per category (speculative included)."""
        counts: Dict[IdempotencyCategory, int] = {}
        for ref in self.region.references:
            cat = self.category_of(ref)
            counts[cat] = counts.get(cat, 0) + 1
        return counts

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"region {self.region.name}:",
            f"  fully independent : {self.fully_independent}",
            f"  read-only vars    : {sorted(self.read_only_vars)}",
            f"  private vars      : {sorted(self.private_vars)}",
            f"  live-out          : {sorted(self.live_out)}",
            f"  cross-segment deps: {len(self.dependences.cross_segment_dependences())}",
            f"  idempotent refs   : {len(self.idempotent_references())} / "
            f"{len(self.region.references)}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
def label_region(
    region: Region,
    program: Optional[Program] = None,
    live_out: Optional[Set[str]] = None,
    granularity: DependenceGranularity = DependenceGranularity.ELEMENT,
    direction: DirectionMode = DirectionMode.EXECUTION,
    cache: Optional[AnalysisCache] = None,
) -> LabelingResult:
    """Run the full labeling pipeline (Algorithm 2) on one region.

    ``live_out`` may be supplied directly; otherwise an explicit
    declaration on the region (``liveout`` in the DSL) takes precedence,
    then liveness computed from ``program`` context, and finally the
    conservative fallback "every written variable is live" when neither
    is available.

    A shared ``cache`` lets repeated labeling passes over the same
    region reuse the read-only sets, access summaries, dependence
    graphs and RFW results instead of recomputing them.

    With tracing armed (:data:`repro.obs.tracer.TRACER`) the pipeline
    emits one ``analysis.label_region`` span with a child span per
    phase (access / liveness / dependence / rfw / labeling); disabled,
    the only cost is this single ``enabled`` check.
    """
    if not TRACER.enabled:
        return _label_region(
            region, program, live_out, granularity, direction, cache, None
        )
    with TRACER.span(
        "analysis.label_region", category="analysis", region=region.name
    ):
        return _label_region(
            region, program, live_out, granularity, direction, cache, TRACER
        )


def _label_region(
    region: Region,
    program: Optional[Program],
    live_out: Optional[Set[str]],
    granularity: DependenceGranularity,
    direction: DirectionMode,
    cache: Optional[AnalysisCache],
    obs: Optional[Tracer],
) -> LabelingResult:
    # ``obs`` is the armed tracer or None; the conditional expressions
    # below keep the disabled path free of span construction (kwargs
    # dicts and tracer calls) — the bench gates this at <= 2% overhead.
    with (
        obs.span("analysis.access", category="analysis", region=region.name)
        if obs is not None
        else _NULL_SPAN
    ):
        if cache is not None:
            read_only = cache.get_or_compute(
                region, "read_only", lambda: read_only_variables(region)
            )
            summaries = cache.get_or_compute(
                region,
                ("summaries", frozenset(read_only)),
                lambda: summarize_region_segments(region, read_only_vars=read_only),
            )
        else:
            read_only = read_only_variables(region)
            summaries = summarize_region_segments(region, read_only_vars=read_only)

    with (
        obs.span("analysis.liveness", category="analysis", region=region.name)
        if obs is not None
        else _NULL_SPAN
    ):
        if live_out is None:
            # The declared set wins over anything derived from the program
            # (region_live_out applies the same precedence internally; the
            # explicit branch keeps the contract visible here and correct
            # even without program context).
            if region.live_out is not None:
                live_out = set(region.live_out)
            elif program is not None:
                live_out = region_live_out(program, region)
            else:
                live_out = {
                    ref.variable
                    for ref in region.references
                    if ref.access is AccessType.WRITE
                }

    with (
        obs.span("analysis.dependence", category="analysis", region=region.name)
        if obs is not None
        else _NULL_SPAN
    ):
        private = private_variables(region, live_out, summaries)
        dependences = analyze_dependences(
            region,
            private_variables=private,
            read_only=read_only,
            granularity=granularity,
            direction=direction,
            cache=cache,
        )
    with (
        obs.span("analysis.rfw", category="analysis", region=region.name)
        if obs is not None
        else _NULL_SPAN
    ):
        if cache is not None:
            rfw = cache.get_or_compute(
                region,
                ("rfw", frozenset(live_out), frozenset(read_only)),
                lambda: analyze_rfw(
                    region, live_out, summaries=summaries, read_only=read_only
                ),
            )
        else:
            rfw = analyze_rfw(
                region, live_out, summaries=summaries, read_only=read_only
            )
    with (
        obs.span("analysis.labeling", category="analysis", region=region.name)
        if obs is not None
        else _NULL_SPAN
    ):
        control_dep = has_cross_segment_control_dependence(region)
        fully_independent = (
            not dependences.has_cross_segment_dependences() and not control_dep
        )

        labels: Dict[str, RefLabel] = {
            ref.uid: RefLabel.SPECULATIVE for ref in region.references
        }
        categories: Dict[str, IdempotencyCategory] = {
            ref.uid: IdempotencyCategory.NOT_IDEMPOTENT for ref in region.references
        }

        def mark_idempotent(ref: MemoryReference, category: IdempotencyCategory) -> None:
            labels[ref.uid] = RefLabel.IDEMPOTENT
            categories[ref.uid] = category

        if fully_independent:
            # Lemma 7: no roll-backs can occur, every reference is idempotent.
            for ref in region.references:
                if ref.variable in read_only:
                    mark_idempotent(ref, IdempotencyCategory.READ_ONLY)
                elif ref.variable in private:
                    mark_idempotent(ref, IdempotencyCategory.PRIVATE)
                else:
                    mark_idempotent(ref, IdempotencyCategory.FULLY_INDEPENDENT)
            return LabelingResult(
                region=region,
                labels=labels,
                categories=categories,
                fully_independent=True,
                read_only_vars=read_only,
                private_vars=private,
                live_out=set(live_out),
                rfw=rfw,
                dependences=dependences,
                summaries=summaries,
            )

        # Dependent region: Algorithm 2, step 3.
        for ref in region.references:
            if ref.variable in read_only:
                mark_idempotent(ref, IdempotencyCategory.READ_ONLY)
            elif ref.variable in private:
                mark_idempotent(ref, IdempotencyCategory.PRIVATE)

        # Idempotent writes (Theorem 1): RFW and not a cross-segment sink.
        for ref in region.references:
            if ref.access is not AccessType.WRITE:
                continue
            if labels[ref.uid] is RefLabel.IDEMPOTENT:
                continue
            if rfw.is_rfw(ref) and not dependences.is_cross_segment_sink(ref):
                mark_idempotent(ref, IdempotencyCategory.SHARED_DEPENDENT)

        # Idempotent reads (Theorem 2): the read sinks no cross-segment
        # dependence, and every intra-segment one it sinks has an idempotent
        # write as its source (read-read pairs carry no dependence).
        for ref in region.references:
            if ref.access is not AccessType.READ:
                continue
            if labels[ref.uid] is RefLabel.IDEMPOTENT:
                continue
            if dependences.is_cross_segment_sink(ref):
                continue
            if all(
                source.access is AccessType.WRITE
                and labels[source.uid] is RefLabel.IDEMPOTENT
                for source in dependences.intra_sources_into(ref)
            ):
                mark_idempotent(ref, IdempotencyCategory.SHARED_DEPENDENT)

        return LabelingResult(
            region=region,
            labels=labels,
            categories=categories,
            fully_independent=False,
            read_only_vars=read_only,
            private_vars=private,
            live_out=set(live_out),
            rfw=rfw,
            dependences=dependences,
            summaries=summaries,
        )


def label_program(
    program: Program,
    granularity: DependenceGranularity = DependenceGranularity.ELEMENT,
    direction: DirectionMode = DirectionMode.EXECUTION,
    cache: Optional[AnalysisCache] = None,
) -> Dict[str, LabelingResult]:
    """Label every region of ``program``; keyed by region name."""
    return {
        region.name: label_region(
            region,
            program=program,
            granularity=granularity,
            direction=direction,
            cache=cache,
        )
        for region in program.regions
    }
