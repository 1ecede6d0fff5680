"""Re-occurring first write (RFW) analysis -- Algorithm 1.

Definition 5: a write reference to ``x`` in segment ``R_i`` is a RFW if,
following any roll-back of ``R_i``, a live ``x`` is guaranteed to be
written before the end of the enclosing region without a preceding read
reference.

The analysis has two ingredients:

1. **Node marking** (Algorithm 1, step 1).  Every segment is marked, per
   variable, ``Write`` (defined on all paths through the segment without
   an exposed read), ``Read`` (has an exposed read) or ``Null`` (no
   reference); the exit pseudo-node is marked ``Read`` when the variable
   is live out of the region.  The marks come from
   :mod:`repro.analysis.access`.

2. **Colouring** (Algorithm 1, steps 2-3).  A segment that can reach an
   exposed read through zero or more ``Null`` segments makes *all of its
   control-flow descendants* non-RFW (Black): after a roll-back of a
   descendant, execution restarts at the end of one of its ancestors and
   may follow exactly such a path, consuming the stale value the
   descendant's misspeculated write left in non-speculative storage.
   Writes in segments that stay White *and* are marked ``Write`` *and*
   whose references have statically deterministic addresses are RFW.

For loop regions (segments = iterations of a counted loop) the graph
degenerates: after a roll-back the same iteration always re-executes
before any younger iteration commits, so a write is RFW exactly when the
body is marked ``Write`` for the variable and the references are
address-deterministic.  The paper's same-address requirement excludes
subscripted subscripts such as ``K(E)`` in Figure 2.

The mark is per variable, but Definition 5 is per element, so in both
region kinds a *conditional* write is RFW only when an unconditional
write in the same segment has the same subscripts under the same
enclosing loops.  Otherwise a misspeculated attempt can take the guard
and write the element straight to memory, and the re-execution, which
skips the guard, never rewrites it: ``if (a(i + 1) > 5.0) c(i + 2) = i``
beside ``c(i) = a(i)`` leaves a wrong-path ``c(i + 2)`` behind.

Soundness note on arrays: a segment that writes only *part* of an array
does not rewrite every element a later read might consume, so for the
danger propagation only scalar ``Write`` segments block the exposure of
downstream reads; array writes are treated as transparent (``Null``)
when deciding whether an exposed read is reachable.  This is strictly
conservative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.access import AccessSummary, summarize_region_segments
from repro.analysis.cfg import SegmentGraph
from repro.analysis.readonly import read_only_variables
from repro.ir.reference import MemoryReference
from repro.ir.region import EXIT_NODE, ExplicitRegion, LOOP_BODY_SEGMENT, LoopRegion, Region
from repro.ir.types import NodeColor, NodeMark


@dataclass
class RFWResult:
    """Result of the RFW analysis of one region."""

    region: str
    #: variable -> segment -> Algorithm-1 node mark.
    marks: Dict[str, Dict[str, NodeMark]] = field(default_factory=dict)
    #: variable -> segment -> Algorithm-1 node colour (explicit regions).
    colors: Dict[str, Dict[str, NodeColor]] = field(default_factory=dict)
    #: uids of write references that are re-occurring first writes.
    rfw_write_uids: Set[str] = field(default_factory=set)
    #: segment -> set of variables whose writes in that segment are RFW
    #: (the ``RFW(R_i)`` sets used in the Figure 2 walk-through; a
    #: guarded write of such a variable may still be outside ``rfw_write_uids``).
    rfw_variables: Dict[str, Set[str]] = field(default_factory=dict)

    def is_rfw(self, ref: MemoryReference) -> bool:
        """True when the given write reference is a re-occurring first write."""
        return ref.uid in self.rfw_write_uids

    def mark_of(self, variable: str, segment: str) -> NodeMark:
        return self.marks.get(variable, {}).get(segment, NodeMark.NULL)

    def color_of(self, variable: str, segment: str) -> NodeColor:
        return self.colors.get(variable, {}).get(segment, NodeColor.WHITE)

    def rfw_set(self, segment: str) -> Set[str]:
        """Variables whose writes in ``segment`` are RFW."""
        return set(self.rfw_variables.get(segment, set()))


# ----------------------------------------------------------------------
def _segment_blocks_danger(summary: AccessSummary, variable: str) -> bool:
    """True when the segment certainly rewrites every location of
    ``variable`` a later read could consume (used for danger propagation).

    Only scalar must-writes block; partial array writes are transparent.
    """
    info = summary.info(variable)
    if info is None or info.mark is not NodeMark.WRITE:
        return False
    return all(not w.subscripts for w in info.writes)


def _rewritten_writes(writes: List[MemoryReference]) -> List[MemoryReference]:
    """The writes of one variable in a ``Write``-marked segment that
    every re-execution rewrites: the unconditional ones, and each
    conditional one with the same subscripts under the same enclosing
    loops as an unconditional one."""
    unconditional = {
        (w.subscripts, w.enclosing_loops) for w in writes if not w.conditional
    }
    return [
        w
        for w in writes
        if not w.conditional or (w.subscripts, w.enclosing_loops) in unconditional
    ]


def _compute_danger(
    graph: SegmentGraph,
    marks: Dict[str, NodeMark],
    blocks: Dict[str, bool],
    live_out: bool,
) -> Dict[str, bool]:
    """Fixed point of: danger(u) = exposed-read(u) or
    (u does not block and some successor is dangerous).

    The exit node is dangerous when the variable is live out of the
    region.
    """
    danger: Dict[str, bool] = {node: False for node in graph.nodes}
    danger[EXIT_NODE] = live_out
    changed = True
    while changed:
        changed = False
        for node in graph.real_nodes():
            if danger[node]:
                continue
            if marks.get(node, NodeMark.NULL) is NodeMark.READ:
                danger[node] = True
                changed = True
                continue
            if blocks.get(node, False):
                continue
            if any(danger[s] for s in graph.successors(node)):
                danger[node] = True
                changed = True
    return danger


def analyze_rfw(
    region: Region,
    live_out: Set[str],
    summaries: Optional[Dict[str, AccessSummary]] = None,
    read_only: Optional[Set[str]] = None,
) -> RFWResult:
    """Run Algorithm 1 on ``region``.

    ``live_out`` is the region's live-out set;  ``summaries`` and
    ``read_only`` can be supplied to reuse earlier analysis results.
    """
    if read_only is None:
        read_only = read_only_variables(region)
    if summaries is None:
        summaries = summarize_region_segments(region, read_only_vars=read_only)

    result = RFWResult(region=region.name)
    if isinstance(region, LoopRegion):
        _analyze_loop(region, live_out, summaries, result)
    elif isinstance(region, ExplicitRegion):
        _analyze_explicit(region, live_out, summaries, result)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown region type {type(region).__name__}")
    return result


# ----------------------------------------------------------------------
def _analyze_loop(
    region: LoopRegion,
    live_out: Set[str],
    summaries: Dict[str, AccessSummary],
    result: RFWResult,
) -> None:
    summary = summaries[LOOP_BODY_SEGMENT]
    result.rfw_variables[LOOP_BODY_SEGMENT] = set()
    for variable, info in summary.variables.items():
        result.marks.setdefault(variable, {})[LOOP_BODY_SEGMENT] = info.mark
        result.colors.setdefault(variable, {})[LOOP_BODY_SEGMENT] = NodeColor.WHITE
        if not info.writes:
            continue
        # After a roll-back the same iteration re-executes before any
        # younger iteration commits; the body rewrites the stale location
        # (deterministic addresses) before any read can expose it (mark is
        # Write, i.e. no exposed reads of the variable in the body).
        if info.mark is NodeMark.WRITE and info.deterministic:
            for write in _rewritten_writes(info.writes):
                result.rfw_write_uids.add(write.uid)
            result.rfw_variables[LOOP_BODY_SEGMENT].add(variable)
        else:
            result.colors[variable][LOOP_BODY_SEGMENT] = NodeColor.BLACK


def _analyze_explicit(
    region: ExplicitRegion,
    live_out: Set[str],
    summaries: Dict[str, AccessSummary],
    result: RFWResult,
) -> None:
    graph = SegmentGraph.from_region(region)
    variables: Set[str] = set()
    for summary in summaries.values():
        variables |= summary.referenced_variables()

    for segment in region.segment_names():
        result.rfw_variables.setdefault(segment, set())

    for variable in sorted(variables):
        marks: Dict[str, NodeMark] = {}
        blocks: Dict[str, bool] = {}
        for segment in region.segment_names():
            summary = summaries[segment]
            marks[segment] = summary.mark(variable)
            blocks[segment] = _segment_blocks_danger(summary, variable)
        marks[EXIT_NODE] = (
            NodeMark.READ if variable in live_out else NodeMark.NULL
        )
        result.marks[variable] = dict(marks)

        danger = _compute_danger(graph, marks, blocks, variable in live_out)

        colors: Dict[str, NodeColor] = {
            segment: NodeColor.WHITE for segment in region.segment_names()
        }
        # Algorithm 1 step 2: breadth-first; a White node whose successors
        # can reach an exposed read through Null nodes blackens all of its
        # White descendants.
        for node in graph.breadth_first():
            if node == EXIT_NODE:
                continue
            if colors.get(node) is not NodeColor.WHITE:
                continue
            if any(danger[s] for s in graph.successors(node)):
                for descendant in graph.descendants(node):
                    if descendant == EXIT_NODE:
                        continue
                    colors[descendant] = NodeColor.BLACK
        result.colors[variable] = colors

        # Step 3: writes in White nodes marked Write with deterministic
        # addresses are re-occurring first writes.
        for segment in region.segment_names():
            summary = summaries[segment]
            info = summary.info(variable)
            if info is None or not info.writes:
                continue
            if (
                colors[segment] is NodeColor.WHITE
                and marks[segment] is NodeMark.WRITE
                and info.deterministic
            ):
                for write in _rewritten_writes(info.writes):
                    result.rfw_write_uids.add(write.uid)
                result.rfw_variables[segment].add(variable)
