"""Segment control-flow graphs.

Algorithm 1 (the RFW analysis) and the control-dependence check both
operate on a graph whose nodes are the segments of one region plus a
distinguished exit node.  :class:`SegmentGraph` wraps the adjacency
information exposed by :meth:`repro.ir.region.Region.segment_edges`
and provides the reachability and ancestry queries the analyses need.

For loop regions the graph is the single iteration-template node with a
self edge (iteration ``i`` is followed by iteration ``i+1``) and an edge
to the exit; the age-ordering of segments is the iteration order.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set

from repro.ir.region import EXIT_NODE, ExplicitRegion, Region


class SegmentGraph:
    """Directed graph over segment names (plus :data:`EXIT_NODE`)."""

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Dict[str, Sequence[str]],
        entry: str,
        age_order: Optional[Sequence[str]] = None,
    ):
        self.nodes: List[str] = list(nodes)
        if EXIT_NODE not in self.nodes:
            self.nodes.append(EXIT_NODE)
        self.entry = entry
        self._succ: Dict[str, List[str]] = {n: [] for n in self.nodes}
        self._pred: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for src, dsts in edges.items():
            for dst in dsts:
                if dst not in self._succ:
                    raise ValueError(f"edge to unknown node {dst!r}")
                if src not in self._succ:
                    raise ValueError(f"edge from unknown node {src!r}")
                if dst not in self._succ[src]:
                    self._succ[src].append(dst)
                    self._pred[dst].append(src)
        #: Sequential program order of the real segments (oldest first).
        self.age_order: List[str] = list(
            age_order if age_order is not None else [n for n in nodes]
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_region(cls, region: Region) -> "SegmentGraph":
        """Build the graph for ``region``."""
        names = region.segment_names()
        edges = region.segment_edges()
        entry = names[0]
        if isinstance(region, ExplicitRegion):
            entry = region.entry
        return cls(names, edges, entry=entry, age_order=names)

    # ------------------------------------------------------------------
    def successors(self, node: str) -> List[str]:
        """Direct successors of ``node``."""
        return list(self._succ.get(node, []))

    def predecessors(self, node: str) -> List[str]:
        """Direct predecessors of ``node``."""
        return list(self._pred.get(node, []))

    def real_nodes(self) -> List[str]:
        """All nodes except the exit pseudo-node."""
        return [n for n in self.nodes if n != EXIT_NODE]

    # ------------------------------------------------------------------
    def reachable_from(self, node: str, include_self: bool = False) -> Set[str]:
        """All nodes reachable from ``node`` by following edges."""
        seen: Set[str] = set()
        queue = deque(self._succ.get(node, []))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self._succ.get(current, []))
        if include_self:
            seen.add(node)
        return seen

    def descendants(self, node: str) -> Set[str]:
        """Transitive successors of ``node`` (excluding the exit)."""
        return {n for n in self.reachable_from(node) if n != EXIT_NODE}

    def age_of(self, node: str) -> int:
        """Index of ``node`` in the age order (younger = larger)."""
        return self.age_order.index(node)

    # ------------------------------------------------------------------
    def breadth_first(self) -> List[str]:
        """Breadth-first node order from the entry (exit last)."""
        order: List[str] = []
        seen: Set[str] = set()
        queue = deque([self.entry])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            order.append(node)
            for succ in self._succ.get(node, []):
                if succ not in seen:
                    queue.append(succ)
        # Unreachable nodes (kept for completeness) and the exit go last.
        for node in self.nodes:
            if node not in seen:
                order.append(node)
        return order

    def has_multiple_successor_segments(self) -> bool:
        """True when any real segment has more than one real successor.

        Multiple successors mean the control-flow path through the region
        is data dependent, i.e. there are cross-segment control
        dependences.
        """
        for node in self.real_nodes():
            real_succs = [s for s in self._succ.get(node, []) if s != EXIT_NODE]
            all_succs = self._succ.get(node, [])
            if len(all_succs) > 1 and len(real_succs) >= 1:
                # A node that can either continue or leave the region, or
                # choose between two real successors, is a branch.
                if len(all_succs) > 1 and not (
                    len(real_succs) == 1 and real_succs[0] == node
                ):
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SegmentGraph {len(self.nodes)} nodes entry={self.entry!r}>"
