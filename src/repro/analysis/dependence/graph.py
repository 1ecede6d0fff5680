"""Dependence records and the queryable dependence graph.

A :class:`Dependence` connects a *source* reference to a *sink*
reference: the source executes first, the sink second.  The kind follows
the classic naming (flow = write before read, anti = read before write,
output = write before write) and the scope records whether the two
references belong to the same segment or to different segments.

The labeling algorithm's central queries are provided directly:
``is_cross_segment_sink(ref)`` (Lemma 3 / Theorem 1),
``flow_sources_into(ref)`` (covered reads, Lemma 6 / Theorem 2) and
``has_cross_segment_dependences()`` (Lemma 7, fully-independent
regions).
"""

from __future__ import annotations

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


class DependenceGraph:
    """All may-dependences of one region, with the queries labeling needs."""

    def __init__(self, region_name: str, dependences: Iterable[Dependence] = ()):
        self.region_name = region_name
        self.dependences: List[Dependence] = []
        self._by_sink: Dict[str, List[Dependence]] = {}
        self._by_source: Dict[str, List[Dependence]] = {}
        for dep in dependences:
            self.add(dep)

    # ------------------------------------------------------------------
    def add(self, dep: Dependence) -> None:
        """Insert a dependence (duplicates with identical endpoints/kind/scope are merged)."""
        for existing in self._by_sink.get(dep.sink.uid, []):
            if (
                existing.source.uid == dep.source.uid
                and existing.kind == dep.kind
                and existing.scope == dep.scope
            ):
                return
        self.append(dep)

    def append(self, dep: Dependence) -> None:
        """Insert a dependence the caller knows is not a duplicate.

        O(1): no scan of the sink's edges.  The loop-region pass visits
        each unordered reference pair once and emits at most one edge
        per ``(source, sink, kind, scope)``, so it appends directly.
        """
        self.dependences.append(dep)
        self._by_sink.setdefault(dep.sink.uid, []).append(dep)
        self._by_source.setdefault(dep.source.uid, []).append(dep)

    def __len__(self) -> int:
        return len(self.dependences)

    def __iter__(self) -> "Iterator[Dependence]":
        return iter(self.dependences)

    # ------------------------------------------------------------------
    # queries used by the labeling algorithm
    # ------------------------------------------------------------------
    def deps_with_sink(self, ref: MemoryReference) -> List[Dependence]:
        """All dependences whose sink is ``ref``."""
        return list(self._by_sink.get(ref.uid, []))

    def deps_with_source(self, ref: MemoryReference) -> List[Dependence]:
        """All dependences whose source is ``ref``."""
        return list(self._by_source.get(ref.uid, []))

    def is_sink(self, ref: MemoryReference) -> bool:
        """True when ``ref`` is the sink of any dependence."""
        return bool(self._by_sink.get(ref.uid))

    def is_cross_segment_sink(self, ref: MemoryReference) -> bool:
        """True when ``ref`` is the sink of a cross-segment dependence (Lemma 3)."""
        return any(d.is_cross_segment for d in self._by_sink.get(ref.uid, []))

    def flow_sources_into(self, ref: MemoryReference) -> List[Dependence]:
        """Flow dependences whose sink is ``ref`` (i.e. the writes it may read)."""
        return [
            d for d in self._by_sink.get(ref.uid, []) if d.kind is DependenceKind.FLOW
        ]

    def cross_segment_dependences(self) -> List[Dependence]:
        """All cross-segment dependences."""
        return [d for d in self.dependences if d.is_cross_segment]

    def has_cross_segment_dependences(self) -> bool:
        """True when the region carries any cross-segment data dependence."""
        return any(d.is_cross_segment for d in self.dependences)

    def variables_with_cross_segment_dependences(self) -> Set[str]:
        """Variables involved in at least one cross-segment dependence."""
        return {d.variable for d in self.dependences if d.is_cross_segment}

    def dependences_on(self, variable: str) -> List[Dependence]:
        """All dependences on ``variable``."""
        return [d for d in self.dependences if d.variable == variable]

    def summary(self) -> Dict[str, int]:
        """Counts by kind and scope (useful in reports and tests)."""
        out: Dict[str, int] = {
            "total": len(self.dependences),
            "cross_segment": 0,
            "intra_segment": 0,
        }
        for dep in self.dependences:
            out[dep.kind.value] = out.get(dep.kind.value, 0) + 1
            if dep.is_cross_segment:
                out["cross_segment"] += 1
            else:
                out["intra_segment"] += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DependenceGraph {self.region_name} deps={len(self.dependences)}>"
