"""Dependence records and the queryable dependence graph.

A :class:`Dependence` connects a *source* reference to a *sink*
reference: the source executes first, the sink second.  The kind follows
the classic naming (flow = write before read, anti = read before write,
output = write before write) and the scope records whether the two
references belong to the same segment or to different segments.

A loop region's graph is *compact*: per variable the analyzer hands it
one :class:`PatternTable` (:meth:`DependenceGraph.add_table`), which
answers the labeling algorithm's queries at pattern cost, without
visiting every reference pair or building a :class:`Dependence`:

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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple
from typing import Type, TypeVar, cast

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
        cross = [a for a, _, scope, _ in edges if scope is DependenceScope.CROSS_SEGMENT]
        intra = [a for a, _, scope, _ in edges if scope is DependenceScope.INTRA_SEGMENT]
        self.cross_into_a, self.cross_into_b = False in cross, True in cross
        self.intra_into_a, self.intra_into_b = False in intra, True in intra


#: ``(pattern of ref_a, pattern of ref_b, ref_a is ref_b, equal orders)`` of
#: a loop-region pair, ``ref_a`` first: pairs with equal keys emit equal edges.
PlanKey = Tuple[int, int, bool, bool]
#: A key's plan, from one representative pair; ``None`` when it emits no edge.
PlanDecider = Callable[[PlanKey, MemoryReference, MemoryReference], Optional[PairPlan]]
_UNDECIDED = object()


class PatternTable:
    """One variable's loop-region references at pattern granularity.

    ``refs`` are in order, ``pats`` holds each one's pattern id, and refs
    with equal ``order`` form an *order block*.  Pair ``i <= j`` has the
    plan of key ``(pats[i], pats[j], i == j, equal orders)``.  The table
    decides each key its own references produce once (``plans`` is shared
    by the region's tables, so its key set says nothing about this
    variable), and keeps per pattern two cross-segment thresholds and the
    patterns whose references are intra-segment sources into it.
    """

    def __init__(self, variable: str, refs: List[MemoryReference], pats: List[int],
                 plans: Dict[PlanKey, Optional[PairPlan]], decide: PlanDecider):
        self.variable, self.refs, self.pats, self.plans = variable, refs, pats, plans
        self._orders = orders = [ref.order for ref in refs]
        # Patterns in order of first occurrence: first orders do not decrease.
        members: Dict[int, List[int]] = {}
        for k, pat in enumerate(pats):
            members.setdefault(pat, []).append(k)
        ids = list(members)
        firsts = [orders[m[0]] for m in members.values()]
        writes = [p for p in ids if refs[members[p][0]].access is AccessType.WRITE]
        write_firsts = [orders[members[p][0]] for p in writes]
        # A reference is a cross-segment sink when into_b[pattern] < its
        # order or into_a[pattern] > its order.
        into_a = dict.fromkeys(ids, orders[0] - 1)
        into_b = dict.fromkeys(ids, orders[-1] + 1)
        earlier: Dict[int, List[int]] = {}
        later: Dict[int, List[int]] = {}
        self._members, self._earlier, self._later = members, earlier, later
        self._merged: Dict[Tuple[int, bool], List[int]] = {}
        plan: Any
        for q, positions in members.items():
            ref_b, last = refs[positions[-1]], orders[positions[-1]]
            if ref_b.access is AccessType.WRITE:
                plan = self._plan(positions[-1], positions[-1], decide)
                if plan is not None and (plan.cross_into_a or plan.cross_into_b):
                    into_b[q] = orders[0] - 1  # the self pair: every ref a sink
                cut = bisect_left(firsts, last)
                partners = zip(ids[:cut], firsts[:cut])
            else:  # read-read pairs carry no dependence
                cut = bisect_left(write_firsts, last)
                partners = zip(writes[:cut], write_firsts[:cut])
            for p, first in partners:
                key = (p, q, False, False)
                plan = plans.get(key, _UNDECIDED)
                if plan is _UNDECIDED:
                    plan = plans[key] = decide(key, refs[members[p][0]], ref_b)
                if plan is None:
                    continue
                if plan.cross_into_b and first < into_b[q]:
                    into_b[q] = first
                if plan.cross_into_a and last > into_a[p]:
                    into_a[p] = last
                if plan.intra_into_b:
                    earlier.setdefault(q, []).append(p)
                if plan.intra_into_a:
                    later.setdefault(p, []).append(q)
        self.cross_sinks = [
            ref.uid
            for ref, pat, order in zip(refs, pats, orders)
            if into_b[pat] < order or into_a[pat] > order
        ]
        if len(set(orders)) < len(orders):  # pairs inside an order block
            for i in range(len(refs)):
                for j in range(i + 1, bisect_right(orders, orders[i])):
                    plan = self._plan(i, j, decide)
                    if plan is not None and plan.cross_into_a:
                        self.cross_sinks.append(refs[i].uid)
                    if plan is not None and plan.cross_into_b:
                        self.cross_sinks.append(refs[j].uid)

    def _plan(self, i: int, j: int, decide: Optional[PlanDecider] = None) -> Optional[PairPlan]:
        """Plan of pair ``i <= j``; undecided without ``decide``: read-read."""
        key = (self.pats[i], self.pats[j], i == j, self._orders[i] == self._orders[j])
        plan = self.plans.get(key, _UNDECIDED)
        if plan is _UNDECIDED:
            if decide is None:
                return None
            plan = self.plans[key] = decide(key, self.refs[i], self.refs[j])
        return cast(Optional[PairPlan], plan)

    def intra_sources_into(self, ref: MemoryReference) -> List[MemoryReference]:
        """Sources of the intra-segment edges into ``ref``, in emission
        order: pairs ``(i, ref)`` from earlier blocks, then from its own
        block, then pairs ``(ref, j)`` likewise."""
        refs, orders = self.refs, self._orders
        lo = bisect_left(orders, ref.order)
        hi = bisect_right(orders, ref.order, lo)
        for k in range(lo, hi):
            if refs[k] is ref:
                break
        else:  # not a reference of this table
            return []
        earlier, later = self._sources(self.pats[k], True), self._sources(self.pats[k], False)
        out = earlier[: bisect_left(earlier, lo)]
        if hi - lo > 1:
            out += [i for i in range(lo, k) if getattr(self._plan(i, k), "intra_into_b", 0)]
            out += [j for j in range(k + 1, hi) if getattr(self._plan(k, j), "intra_into_a", 0)]
        out += later[bisect_left(later, hi):]
        return [refs[i] for i in out]

    def _sources(self, pat: int, earlier: bool) -> List[int]:
        """Sorted positions of the partners whose earlier (else later)
        references feed ``pat``'s, memoized (a benign race across threads)."""
        positions = self._merged.get((pat, earlier))
        if positions is None:
            partners = (self._earlier if earlier else self._later).get(pat, ())
            positions = sorted(i for s in partners for i in self._members[s])
            self._merged[(pat, earlier)] = positions
        return positions

    def edges(self) -> Iterator[Dependence]:
        """Every edge, replaying the pairs ``i <= j`` in order."""
        refs, pats, orders, plans = self.refs, self.pats, self._orders, self.plans
        for i, ref_a in enumerate(refs):
            for j in range(i, len(refs)):
                plan = plans.get((pats[i], pats[j], i == j, orders[i] == orders[j]))
                for a_is_source, kind, scope, distance in plan.edges if plan else ():
                    source, sink = (ref_a, refs[j]) if a_is_source else (refs[j], ref_a)
                    yield Dependence(source, sink, kind, scope, self.variable, distance)


class DependenceGraph:
    """All may-dependences of one region, with the queries labeling needs.

    Edges arrive as :class:`Dependence` records (:meth:`add`,
    :meth:`append`) or as loop-region pattern tables (:meth:`add_table`),
    whose edges are built on the first list query.  Either way the graph
    keeps the cross-segment sinks and answers intra-segment sources.
    """

    def __init__(self, region_name: str, dependences: Iterable[Dependence] = ()):
        self.region_name = region_name
        #: Pattern tables whose edges are not yet built.
        self._pending: List[PatternTable] = []
        self._tables: Dict[str, PatternTable] = {}
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

    def add_table(self, table: PatternTable) -> None:
        """Record one variable's loop-region pairs without building them
        (no duplicate check: no pair repeats an edge)."""
        self._pending.append(table)
        self._tables[table.variable] = table
        self._cross_sinks.update(table.cross_sinks)

    def _materialized(self) -> List[Dependence]:
        """The edge list, built from the pending tables once, in order.
        ``_pending`` empties only after the last edge is in place."""
        if self._pending:
            with self._lock:
                if self._pending:
                    edges, by_sink, by_source = self._edges, self._by_sink, self._by_source
                    for table in self._pending:
                        for dep in table.edges():
                            edges.append(dep)
                            by_sink.setdefault(dep.sink.uid, []).append(dep)
                            by_source.setdefault(dep.source.uid, []).append(dep)
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
        table = self._tables.get(ref.variable)
        sources = table.intra_sources_into(ref) if table is not None else []
        return sources + self._intra_sources.get(ref.uid, [])

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
