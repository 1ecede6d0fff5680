"""Regions (Definition 1).

A region has a single entry and a single exit and is partitioned into
segments.  Regions execute sequentially with respect to each other;
segments of one region may execute speculatively in parallel.

Two region flavours are provided:

:class:`LoopRegion`
    The region is a counted loop and its segments are the loop
    iterations (the configuration used throughout the paper's
    evaluation: "regions are loops and segments are loop iterations",
    Section 4.2.1).  All iterations share one *body template*; the
    cross-segment dependences are the loop-carried dependences.

:class:`ExplicitRegion`
    The region is an explicit graph of named segments with control-flow
    edges, as in the worked examples of Figures 2 and 3.  The listing
    order of the segments defines their *age* (sequential program
    order).

On construction a region assigns statement identifiers and extracts the
memory references of every segment body (see
:mod:`repro.ir.reference`); analyses and the execution engines both work
from those references.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.ir.expr import Const, Expr, ExprLike, as_expr, const_int
from repro.ir.reference import (
    MemoryReference,
    assign_statement_ids,
    extract_references,
)
from repro.ir.segment import Segment
from repro.ir.stmt import Statement
from repro.ir.types import RegionKind

#: Name used for the exit pseudo-node of a region's segment graph.
EXIT_NODE = "<exit>"
#: Segment name used for the shared body template of a loop region.
LOOP_BODY_SEGMENT = "<iteration>"


class RegionError(Exception):
    """Raised for malformed regions."""


class Region:
    """Common interface of :class:`LoopRegion` and :class:`ExplicitRegion`."""

    kind: RegionKind

    def __init__(
        self,
        name: str,
        live_out: Optional[Iterable[str]] = None,
        speculative: Optional[bool] = None,
    ):
        if not name:
            raise RegionError("region needs a name")
        self.name = name
        #: Variables that are live after the region; ``None`` means
        #: "let the liveness analysis decide from program context".
        self.live_out: Optional[Set[str]] = (
            set(live_out) if live_out is not None else None
        )
        #: Front-end hint: ``True`` forces speculative execution, ``False``
        #: forces conventional parallel execution, ``None`` lets the
        #: compiler's dependence analysis decide.
        self.speculative_hint = speculative
        #: All memory references of the region (filled by subclasses).
        self.references: List[MemoryReference] = []

    # -- queries used uniformly by analyses ------------------------------
    def segment_names(self) -> List[str]:
        """Names of the region's segments in age order."""
        raise NotImplementedError

    def segment_body(self, segment: str) -> List[Statement]:
        """The statement list of ``segment``."""
        raise NotImplementedError

    def segment_references(self, segment: str) -> List[MemoryReference]:
        """The references of ``segment`` in program order."""
        raise NotImplementedError

    def segment_edges(self) -> Dict[str, List[str]]:
        """Control-flow successors per segment (``EXIT_NODE`` for the exit)."""
        raise NotImplementedError

    def variables(self) -> Set[str]:
        """All memory variables referenced in the region."""
        return {r.variable for r in self.references}

    def references_of(self, variable: str) -> List[MemoryReference]:
        """All references to ``variable`` in program order."""
        return [r for r in self.references if r.variable == variable]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class LoopRegion(Region):
    """A counted loop whose iterations are the speculative segments."""

    kind = RegionKind.LOOP

    def __init__(
        self,
        name: str,
        index: str,
        lower: ExprLike,
        upper: ExprLike,
        body: Sequence[Statement],
        step: ExprLike = 1,
        live_out: Optional[Iterable[str]] = None,
        speculative: Optional[bool] = None,
    ):
        super().__init__(name, live_out=live_out, speculative=speculative)
        if not index:
            raise RegionError(f"loop region {name!r} needs an index variable")
        self.index = index
        self.lower: Expr = as_expr(lower)
        self.upper: Expr = as_expr(upper)
        self.step: Expr = as_expr(step)
        if isinstance(self.step, Const) and self.step.value == 0:
            raise RegionError(f"loop region {name!r} has zero step")
        self.body: List[Statement] = list(body)
        if not self.body:
            raise RegionError(f"loop region {name!r} has an empty body")
        assign_statement_ids(self.body, prefix=f"{name}")
        self.references = extract_references(
            self.body,
            segment=LOOP_BODY_SEGMENT,
            region=name,
            uid_prefix=name,
            locals_in_scope=(index,),
        )
        #: References of the loop bound expressions themselves: they are
        #: evaluated once at region entry (non-speculatively) and are not
        #: part of any segment.
        self.bound_variables: Set[str] = (
            self.lower.variables() | self.upper.variables() | self.step.variables()
        )

    # -- uniform segment view --------------------------------------------
    def segment_names(self) -> List[str]:
        return [LOOP_BODY_SEGMENT]

    def segment_body(self, segment: str) -> List[Statement]:
        if segment != LOOP_BODY_SEGMENT:
            raise RegionError(f"loop region {self.name!r} has no segment {segment!r}")
        return self.body

    def segment_references(self, segment: str) -> List[MemoryReference]:
        if segment != LOOP_BODY_SEGMENT:
            raise RegionError(f"loop region {self.name!r} has no segment {segment!r}")
        return list(self.references)

    def segment_edges(self) -> Dict[str, List[str]]:
        # One template node: each iteration is followed either by the next
        # iteration (same template) or by the region exit.
        return {LOOP_BODY_SEGMENT: [LOOP_BODY_SEGMENT, EXIT_NODE]}

    def constant_trip_count(self) -> Optional[int]:
        """Trip count when bounds are constants, else ``None``."""
        lo = const_int(self.lower)
        hi = const_int(self.upper)
        st = const_int(self.step)
        if lo is None or hi is None or st is None:
            return None
        if st == 0:
            return 0
        return max(0, (hi - lo) // st + 1)


class ExplicitRegion(Region):
    """A region given as an explicit segment control-flow graph."""

    kind = RegionKind.EXPLICIT

    def __init__(
        self,
        name: str,
        segments: Sequence[Segment],
        edges: Optional[Dict[str, Sequence[str]]] = None,
        entry: Optional[str] = None,
        live_out: Optional[Iterable[str]] = None,
        speculative: Optional[bool] = None,
    ):
        super().__init__(name, live_out=live_out, speculative=speculative)
        if not segments:
            raise RegionError(f"explicit region {name!r} needs segments")
        self.segments: List[Segment] = list(segments)
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise RegionError(f"duplicate segment names in region {name!r}: {names}")
        self._by_name: Dict[str, Segment] = {s.name: s for s in self.segments}
        self.entry: str = entry if entry is not None else names[0]
        if self.entry not in self._by_name:
            raise RegionError(f"entry segment {self.entry!r} not in region {name!r}")

        # Edges: default is the linear chain in age order.
        if edges is None:
            edges = {
                names[i]: [names[i + 1]] for i in range(len(names) - 1)
            }
        self.edges: Dict[str, List[str]] = {}
        for seg in names:
            succs = list(edges.get(seg, []))
            for succ in succs:
                if succ != EXIT_NODE and succ not in self._by_name:
                    raise RegionError(
                        f"edge {seg}->{succ} references unknown segment in {name!r}"
                    )
            self.edges[seg] = succs
        # Segments without successors fall through to the region exit.
        for seg in names:
            if not self.edges[seg]:
                self.edges[seg] = [EXIT_NODE]
        for seg in self.segments:
            if len(self.edges[seg.name]) > 1 and seg.branch is None:
                # A default prediction order still exists (first successor);
                # the branch expression is optional but recommended.
                pass

        # Assign statement ids and extract references per segment.
        self.references = []
        for seg in self.segments:
            assign_statement_ids(seg.body, prefix=f"{name}.{seg.name}")
            seg.references = extract_references(
                seg.body,
                segment=seg.name,
                region=name,
                uid_prefix=f"{name}.{seg.name}",
            )
            if seg.branch is not None:
                # Branch condition reads are control reads of the segment.
                from repro.ir.reference import _ExtractionContext, _emit_expr_reads

                ctx = _ExtractionContext(
                    segment=seg.name,
                    region=name,
                    uid_prefix=f"{name}.{seg.name}.branch",
                )
                ctx.order = len(seg.references)
                if seg.body:
                    refs = _emit_expr_reads(
                        ctx, seg.branch, conditional=False, is_control=True
                    )
                    seg.references.extend(refs)
            self.references.extend(seg.references)

    # -- uniform segment view --------------------------------------------
    def segment(self, name: str) -> Segment:
        try:
            return self._by_name[name]
        except KeyError:
            raise RegionError(
                f"region {self.name!r} has no segment {name!r}"
            ) from None

    def segment_names(self) -> List[str]:
        return [s.name for s in self.segments]

    def segment_body(self, segment: str) -> List[Statement]:
        return self.segment(segment).body

    def segment_references(self, segment: str) -> List[MemoryReference]:
        return list(self.segment(segment).references or [])

    def segment_edges(self) -> Dict[str, List[str]]:
        return {k: list(v) for k, v in self.edges.items()}

    def age_of(self, segment: str) -> int:
        """Position of ``segment`` in sequential program order (0 = oldest)."""
        for i, seg in enumerate(self.segments):
            if seg.name == segment:
                return i
        raise RegionError(f"region {self.name!r} has no segment {segment!r}")
