"""Timing event streams emitted by the speculative engines.

The engines used to bump scalar counters only; with a
:class:`TimingRecorder` attached they additionally emit a **per-segment
-attempt event stream**: segment issue, every operation with its cost
(priced by the :class:`~repro.timing.cost.CostModel` at emission time),
overflow stalls, overflow drains, squashes (tagged with the age of the
violating writer), wrong-path discards and commits.  The recorder folds
the stream into a :class:`Recording` -- alternating non-speculative
:class:`DirectSection` blocks (init / finale) and per-region
:class:`RegionRecording` blocks holding one :class:`SegmentRecord` per
segment occurrence, in age order -- which is exactly the shape the
processor scheduler of :mod:`repro.timing.schedule` consumes.

An attempt's run cycles are coalesced into ``("run", cycles)`` phases
(interleaved with ``("stall",)`` and ``("drain", entries)`` markers), so
a recording stays small even for long segments: its size is linear in
the number of *speculation events*, not operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.timing.cost import CostModel

#: Attempt outcomes.
OUTCOME_ACTIVE = "active"
OUTCOME_COMMITTED = "committed"
OUTCOME_SQUASHED = "squashed"
OUTCOME_DISCARDED = "discarded"

#: Phase tags inside one attempt.
PHASE_RUN = "run"
PHASE_STALL = "stall"
PHASE_DRAIN = "drain"


@dataclass
class AttemptRecord:
    """One execution attempt of one segment occurrence."""

    #: ``["run", cycles]`` / ``("stall",)`` / ``("drain", entries)`` in
    #: execution order (run phases are mutable lists so they coalesce).
    phases: List = field(default_factory=list)
    #: Total run cycles of the attempt (sum of run phases).
    busy_cycles: int = 0
    outcome: str = OUTCOME_ACTIVE
    #: Squashed attempts: the violating writer's age, which of its
    #: attempts performed the violating write, and the priced cycles
    #: that attempt had executed at that moment -- the scheduler uses
    #: these to gate the restart at the write's actual time.
    squashed_by: Optional[int] = None
    squashed_by_attempt: Optional[int] = None
    squashed_at_elapsed: int = 0
    #: Entries drained at commit (committed attempts only).
    commit_entries: int = 0

    def add_run(self, cycles: int) -> None:
        if cycles <= 0:
            return
        phases = self.phases
        if phases and phases[-1][0] is PHASE_RUN:
            phases[-1][1] += cycles
        else:
            phases.append([PHASE_RUN, cycles])
        self.busy_cycles += cycles

    def as_dict(self) -> Dict:
        return {
            "phases": [list(phase) for phase in self.phases],
            "busy_cycles": self.busy_cycles,
            "outcome": self.outcome,
            "squashed_by": self.squashed_by,
            "squashed_by_attempt": self.squashed_by_attempt,
            "squashed_at_elapsed": self.squashed_at_elapsed,
            "commit_entries": self.commit_entries,
        }


@dataclass
class SegmentRecord:
    """All attempts of one segment occurrence."""

    key: Tuple
    age: int
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        return self.attempts[-1].outcome if self.attempts else OUTCOME_ACTIVE

    def as_dict(self) -> Dict:
        return {
            "key": list(self.key),
            "age": self.age,
            "outcome": self.outcome,
            "attempts": [attempt.as_dict() for attempt in self.attempts],
        }


@dataclass
class DirectSection:
    """A non-speculative stretch (init / finale / region entry code)."""

    label: str = "direct"
    cycles: int = 0

    def as_dict(self) -> Dict:
        return {"type": "direct", "label": self.label, "cycles": self.cycles}


@dataclass
class RegionRecording:
    """Event streams of one region execution."""

    name: str
    kind: str  # "loop" | "explicit"
    #: Segment occurrences in age (= dispatch) order.
    segments: List[SegmentRecord] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "type": "region",
            "name": self.name,
            "kind": self.kind,
            "segments": [segment.as_dict() for segment in self.segments],
        }


Section = Union[DirectSection, RegionRecording]


@dataclass
class Recording:
    """A whole program execution as consumed by the scheduler."""

    cost: CostModel
    window: int = 1
    engine: str = "speculative"
    program: str = ""
    sections: List[Section] = field(default_factory=list)

    def regions(self) -> List[RegionRecording]:
        return [s for s in self.sections if isinstance(s, RegionRecording)]

    def direct_cycles(self) -> int:
        return sum(s.cycles for s in self.sections if isinstance(s, DirectSection))

    def as_dict(self) -> Dict:
        """The whole recording under one shared, versioned schema.

        Traces, bench artifacts and the Chrome-trace exporter all
        consume this shape -- nobody hand-rolls recording dicts.
        """
        return {
            "schema": "repro.timing.recording/v1",
            "program": self.program,
            "engine": self.engine,
            "window": self.window,
            "cost": self.cost.as_dict(),
            "sections": [section.as_dict() for section in self.sections],
        }

    def summary(self) -> Dict[str, int]:
        """Scalar totals of the recording (metrics / bench rows)."""
        segments = attempts = squashed = discarded = committed = busy = 0
        for region in self.regions():
            segments += len(region.segments)
            for segment in region.segments:
                attempts += len(segment.attempts)
                if segment.outcome is OUTCOME_COMMITTED:
                    committed += 1
                for attempt in segment.attempts:
                    busy += attempt.busy_cycles
                    if attempt.outcome is OUTCOME_SQUASHED:
                        squashed += 1
                    elif attempt.outcome is OUTCOME_DISCARDED:
                        discarded += 1
        return {
            "regions": len(self.regions()),
            "segments": segments,
            "attempts": attempts,
            "squashed_attempts": squashed,
            "discarded_attempts": discarded,
            "committed_segments": committed,
            "busy_cycles": busy,
            "direct_cycles": self.direct_cycles(),
        }


class TimingRecorder:
    """Folds engine timing events into a :class:`Recording`.

    All hooks are cheap (dictionary lookup + list append); the engines
    guard every call with ``if recorder is not None`` so an unattached
    engine pays nothing.
    """

    def __init__(self, cost: Optional[CostModel] = None):
        self.cost = cost or CostModel()
        self._recording = Recording(cost=self.cost)
        self._active: Dict[int, SegmentRecord] = {}
        self._region: Optional[RegionRecording] = None
        self._direct: Optional[DirectSection] = None

    # ------------------------------------------------------------------
    # engine-facing hooks
    # ------------------------------------------------------------------
    def run_begin(self, program: str, engine: str, window: int) -> None:
        self._recording.program = program
        self._recording.engine = engine
        self._recording.window = window

    def direct(self, cycles: int, accesses: int) -> None:
        """One non-speculative section (init / finale) of ``cycles``
        compute cycles and ``accesses`` memory accesses; a section that
        executed no operation records nothing."""
        if not cycles and not accesses:
            return
        if self._direct is None:
            self._direct = DirectSection()
            self._recording.sections.append(self._direct)
        self._direct.cycles += self.cost.direct_cost(cycles, accesses)

    def region_begin(self, name: str, kind: str) -> None:
        self._direct = None
        self._region = RegionRecording(name=name, kind=kind)
        self._recording.sections.append(self._region)
        self._active.clear()

    def region_end(self) -> None:
        self._region = None
        self._direct = None
        self._active.clear()

    def segment_started(self, key: Tuple, age: int) -> None:
        record = SegmentRecord(key=key, age=age, attempts=[AttemptRecord()])
        self._active[age] = record
        if self._region is not None:
            self._region.segments.append(record)

    def op(self, age: int, kind: str, cycles: int, route: Optional[str]) -> None:
        """One operation of an in-flight segment, priced by the cost model."""
        record = self._active.get(age)
        if record is None:  # pragma: no cover - defensive
            return
        record.attempts[-1].add_run(self.cost.op_cost(kind, cycles, route))

    def batched(self, age: int, cycles: int) -> None:
        """One whole batched attempt, priced by ``CostModel.batch_price``."""
        record = self._active.get(age)
        if record is None:  # pragma: no cover - defensive
            return
        record.attempts[-1].add_run(cycles)

    def stalled(self, age: int) -> None:
        record = self._active.get(age)
        if record is not None:
            record.attempts[-1].phases.append((PHASE_STALL,))

    def drained(self, age: int, entries: int) -> None:
        record = self._active.get(age)
        if record is not None:
            record.attempts[-1].phases.append((PHASE_DRAIN, entries))

    def squashed(self, age: int, by_age: Optional[int]) -> None:
        record = self._active.get(age)
        if record is None:  # pragma: no cover - defensive
            return
        attempt = record.attempts[-1]
        attempt.outcome = OUTCOME_SQUASHED
        attempt.squashed_by = by_age
        writer = self._active.get(by_age) if by_age is not None else None
        if writer is not None:
            # Snapshot the violating write's position in the writer's
            # own timeline (the write itself is priced just after the
            # violation check, so this is a tight lower bound).
            attempt.squashed_by_attempt = len(writer.attempts) - 1
            attempt.squashed_at_elapsed = writer.attempts[-1].busy_cycles
        record.attempts.append(AttemptRecord())

    def discarded(self, age: int) -> None:
        record = self._active.pop(age, None)
        if record is not None:
            record.attempts[-1].outcome = OUTCOME_DISCARDED

    def committed(self, age: int, entries: int) -> None:
        record = self._active.pop(age, None)
        if record is not None:
            attempt = record.attempts[-1]
            attempt.outcome = OUTCOME_COMMITTED
            attempt.commit_entries = entries

    # ------------------------------------------------------------------
    def recording(self) -> Recording:
        """The folded recording (valid once the engine run returned)."""
        return self._recording
