"""Dependence records and the queryable dependence graph.

A :class:`Dependence` connects a *source* reference to a *sink*
reference: the source executes first, the sink second.  The kind follows
the classic naming (flow = write before read, anti = read before write,
output = write before write) and the scope records whether the two
references belong to the same segment or to different segments.

A loop region's graph is *compact*: the analyzer records one
``(ref_a, ref_b, plan, variable)`` per reference pair
(:meth:`DependenceGraph.add_pair`), and the graph keeps summaries from
which the labeling algorithm's queries are answered in O(1), without
building a :class:`Dependence`:

* ``has_cross_segment_dependences()`` (Lemma 7, fully-independent
  regions);
* ``is_cross_segment_sink(ref)`` (Lemma 3 / Theorem 1);
* ``intra_sources_into(ref)`` (covered reads, Lemma 6 / Theorem 2).

Every list query (``dependences``, iteration, ``len``,
``deps_with_sink``/``deps_with_source``, ``summary()`` ...) builds the
edges once, in emission order, under the graph's lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type, TypeVar, cast

from repro.ir.reference import MemoryReference
from repro.ir.types import AccessType, DependenceKind, DependenceScope


_T = TypeVar("_T")


def _slotted(cls: Type[_T]) -> Type[_T]:
    """Rebuild a frozen dataclass with ``__slots__``.

    ``dataclass(slots=True)`` needs Python 3.10.  A region's graph holds
    tens of thousands of edges, and a per-instance ``__dict__`` is most
    of each one's memory.  The generated ``__init__``/``__eq__``/
    ``__hash__`` keep working because they read the field defaults from
    their own closure, not from the class.  ``__reduce__`` pickles
    through the constructor, since the frozen ``__setattr__`` refuses
    the slot-by-slot state restore.
    """
    names = tuple(f.name for f in fields(cast(Any, cls)))
    namespace = dict(cls.__dict__)
    for name in names + ("__dict__", "__weakref__"):
        namespace.pop(name, None)
    namespace["__slots__"] = names

    def __reduce__(self: Any) -> Tuple[Any, Tuple[Any, ...]]:
        return (type(self), tuple(getattr(self, name) for name in names))

    namespace["__reduce__"] = __reduce__
    slotted = type(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    return cast(Type[_T], slotted)


@_slotted
@dataclass(frozen=True)
class Dependence:
    """One may-dependence between two references."""

    source: MemoryReference
    sink: MemoryReference
    kind: DependenceKind
    scope: DependenceScope
    variable: str
    #: Execution-position distance (younger minus older segment) when
    #: statically known, e.g. 1 for a distance-1 loop-carried dependence.
    distance: Optional[int] = None

    @property
    def is_cross_segment(self) -> bool:
        return self.scope is DependenceScope.CROSS_SEGMENT

    def describe(self) -> str:
        """Human-readable one-liner for reports and tests."""
        dist = f" distance={self.distance}" if self.distance is not None else ""
        return (
            f"{self.kind.value} dep on {self.variable}: "
            f"{self.source.uid} -> {self.sink.uid} ({self.scope.value}{dist})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Dep {self.describe()}>"


def dependence_kind(source: MemoryReference, sink: MemoryReference) -> Optional[DependenceKind]:
    """Dependence kind implied by the access types (``None`` for read-read)."""
    if source.access is AccessType.WRITE and sink.access is AccessType.READ:
        return DependenceKind.FLOW
    if source.access is AccessType.READ and sink.access is AccessType.WRITE:
        return DependenceKind.ANTI
    if source.access is AccessType.WRITE and sink.access is AccessType.WRITE:
        return DependenceKind.OUTPUT
    return None


#: One edge of a loop-region pair plan: ``(source is ref_a, kind, scope,
#: distance)``.
PlanEdge = Tuple[bool, DependenceKind, DependenceScope, Optional[int]]


class PairPlan:
    """The edges a loop-region pair ``(ref_a, ref_b)`` emits, in order, as
    "source is ``ref_a``" -- shared by every pair with the same plan key --
    and which of the two references they sink into, by scope.  (A pair
    emits at most one intra-segment edge into each reference.)
    """

    __slots__ = ("edges", "cross_into_a", "cross_into_b", "intra_into_a", "intra_into_b")

    def __init__(self, edges: Tuple[PlanEdge, ...]):
        self.edges = edges
        into = {(a_is_source, scope) for a_is_source, _, scope, _ in edges}
        self.cross_into_a = (False, DependenceScope.CROSS_SEGMENT) in into
        self.cross_into_b = (True, DependenceScope.CROSS_SEGMENT) in into
        self.intra_into_a = (False, DependenceScope.INTRA_SEGMENT) in into
        self.intra_into_b = (True, DependenceScope.INTRA_SEGMENT) in into


class DependenceGraph:
    """All may-dependences of one region, with the queries labeling needs.

    Edges arrive as :class:`Dependence` records (:meth:`add`,
    :meth:`append`) or as loop-region pairs (:meth:`add_pair`), built on
    the first list query.  Either way the graph keeps the cross-segment
    sinks and, per sink, its intra-segment sources.
    """

    def __init__(self, region_name: str, dependences: Iterable[Dependence] = ()):
        self.region_name = region_name
        #: ``(ref_a, ref_b, plan, variable)`` of pairs not yet materialized.
        self._pending: List[Tuple[MemoryReference, MemoryReference, PairPlan, str]] = []
        self._edges: List[Dependence] = []
        self._by_sink: Dict[str, List[Dependence]] = {}
        self._by_source: Dict[str, List[Dependence]] = {}
        self._cross_sinks: Set[str] = set()
        self._intra_sources: Dict[str, List[MemoryReference]] = {}
        #: Serializes materialization: a cached graph is shared across
        #: daemon threads.
        self._lock = threading.Lock()
        for dep in dependences:
            self.add(dep)

    # ------------------------------------------------------------------
    def add(self, dep: Dependence) -> None:
        """Insert a dependence (duplicates with identical endpoints/kind/scope are merged)."""
        self._materialized()
        for existing in self._by_sink.get(dep.sink.uid, []):
            if (
                existing.source.uid == dep.source.uid
                and existing.kind == dep.kind
                and existing.scope == dep.scope
            ):
                return
        self.append(dep)

    def append(self, dep: Dependence) -> None:
        """Insert a dependence the caller knows is not a duplicate (no scan
        of the sink's edges)."""
        self._materialized().append(dep)
        self._by_sink.setdefault(dep.sink.uid, []).append(dep)
        self._by_source.setdefault(dep.source.uid, []).append(dep)
        if dep.is_cross_segment:
            self._cross_sinks.add(dep.sink.uid)
        else:
            self._intra_sources.setdefault(dep.sink.uid, []).append(dep.source)

    def add_pair(
        self,
        ref_a: MemoryReference,
        ref_b: MemoryReference,
        plan: PairPlan,
        variable: str,
    ) -> None:
        """Record one loop-region pair's edges without building them.  No
        duplicate check: the loop pass visits each unordered pair once and
        emits at most one edge per ``(source, sink, kind, scope)``."""
        self._pending.append((ref_a, ref_b, plan, variable))
        if plan.cross_into_a:
            self._cross_sinks.add(ref_a.uid)
        if plan.cross_into_b:
            self._cross_sinks.add(ref_b.uid)
        if plan.intra_into_a:
            self._intra_sources.setdefault(ref_a.uid, []).append(ref_b)
        if plan.intra_into_b:
            self._intra_sources.setdefault(ref_b.uid, []).append(ref_a)

    def _materialized(self) -> List[Dependence]:
        """The edge list, built from the pending pairs once, in order.
        ``_pending`` empties only after the last edge is in place."""
        if self._pending:
            with self._lock:
                if self._pending:
                    edges, by_sink, by_source = self._edges, self._by_sink, self._by_source
                    for ref_a, ref_b, plan, variable in self._pending:
                        for a_is_source, kind, scope, distance in plan.edges:
                            source, sink = (ref_a, ref_b) if a_is_source else (ref_b, ref_a)
                            dep = Dependence(source, sink, kind, scope, variable, distance)
                            edges.append(dep)
                            by_sink.setdefault(sink.uid, []).append(dep)
                            by_source.setdefault(source.uid, []).append(dep)
                    self._pending = []
        return self._edges

    @property
    def dependences(self) -> List[Dependence]:
        """Every edge, in insertion order (shared: do not mutate)."""
        return self._materialized()

    def __len__(self) -> int:
        return len(self._materialized())

    def __iter__(self) -> "Iterator[Dependence]":
        return iter(self._materialized())

    # ------------------------------------------------------------------
    # compact queries: answered from the summaries, no edge is built
    # ------------------------------------------------------------------
    def is_cross_segment_sink(self, ref: MemoryReference) -> bool:
        """True when ``ref`` is the sink of a cross-segment dependence (Lemma 3)."""
        return ref.uid in self._cross_sinks

    def intra_sources_into(self, ref: MemoryReference) -> List[MemoryReference]:
        """Sources of the intra-segment dependences whose sink is ``ref``."""
        return list(self._intra_sources.get(ref.uid, ()))

    def has_cross_segment_dependences(self) -> bool:
        """True when the region carries any cross-segment data dependence."""
        return bool(self._cross_sinks)

    # ------------------------------------------------------------------
    # list queries: materialize the edges
    # ------------------------------------------------------------------
    def deps_with_sink(self, ref: MemoryReference) -> List[Dependence]:
        """All dependences whose sink is ``ref``."""
        self._materialized()
        return list(self._by_sink.get(ref.uid, []))

    def deps_with_source(self, ref: MemoryReference) -> List[Dependence]:
        """All dependences whose source is ``ref``."""
        self._materialized()
        return list(self._by_source.get(ref.uid, []))

    def cross_segment_dependences(self) -> List[Dependence]:
        """All cross-segment dependences."""
        return [d for d in self._materialized() if d.is_cross_segment]

    def variables_with_cross_segment_dependences(self) -> Set[str]:
        """Variables involved in at least one cross-segment dependence."""
        return {d.variable for d in self._materialized() if d.is_cross_segment}

    def summary(self) -> Dict[str, int]:
        """Counts by kind and scope (useful in reports and tests)."""
        edges = self._materialized()
        out: Dict[str, int] = {
            "total": len(edges),
            "cross_segment": 0,
            "intra_segment": 0,
        }
        for dep in edges:
            out[dep.kind.value] = out.get(dep.kind.value, 0) + 1
            if dep.is_cross_segment:
                out["cross_segment"] += 1
            else:
                out["intra_segment"] += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DependenceGraph {self.region_name} deps={len(self)}>"
