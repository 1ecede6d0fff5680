"""Processor assignment and per-region schedule construction.

Consumes one :class:`~repro.timing.events.RegionRecording` and lays its
segment occurrences out on ``P`` logical processors:

* **window-ordered dispatch** -- segments are dispatched strictly in age
  order (sequential program order, Definition 1), each paying
  ``dispatch_overhead``; at most ``window`` segments are in flight, so
  segment *i* cannot dispatch before segment *i - window* retired;
* **earliest-free processor assignment** -- a dispatched segment starts
  on the processor that frees up first (with ``P >= window`` every
  in-flight segment has its own processor, exactly the engine's model;
  with ``P < window`` segments queue);
* **attempt replay** -- a segment's recorded attempts run back to back
  on its processor: run phases advance the clock, an overflow stall
  waits until every older segment retired (the engine drains an
  overflowed buffer only once the segment is the oldest) and then pays
  the drain's commit cost, and a squashed attempt's restart is **gated
  at the violating write's time** -- the recorder snapshots which of
  the (older, already scheduled) writer's attempts performed the write
  and how many priced cycles into it, so a restart never begins before
  the value it re-reads exists -- then pays ``squash_penalty``;
* **commit-in-age-order arbitration** -- a finished segment cannot
  commit before its older neighbour committed; the wait is accounted as
  stall time, the drain itself as commit cost.

The result is a :class:`RegionSchedule` with per-segment start / finish
/ commit times and per-processor busy / wasted / stall cycle breakdowns;
:mod:`repro.timing.makespan` chains region schedules and direct sections
into the whole-program makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.timing.cost import CostModel
from repro.timing.events import (
    OUTCOME_COMMITTED,
    OUTCOME_DISCARDED,
    PHASE_DRAIN,
    PHASE_RUN,
    PHASE_STALL,
    RegionRecording,
)


@dataclass
class SegmentTiming:
    """Scheduled times of one segment occurrence."""

    key: Tuple
    age: int
    processor: int
    dispatch_time: int
    start_time: int
    #: End of the last attempt's execution (before commit arbitration).
    finish_time: int
    #: Retirement: commit completed, or wrong-path discard.
    commit_time: int
    attempts: int
    outcome: str
    busy_cycles: int = 0
    wasted_cycles: int = 0
    stall_cycles: int = 0
    #: Scheduled ``(begin, end, outcome)`` interval of every attempt --
    #: the slices the Perfetto exporter renders on this segment's lane.
    attempt_windows: List[Tuple[int, int, str]] = field(default_factory=list)
    #: ``(begin, end, reason)`` intervals the segment spent waiting:
    #: ``drain-wait`` (overflowed, waiting to become oldest),
    #: ``commit-arbitration`` (finished, waiting for the older commit),
    #: ``squash-gate`` (restart gated at the violating write's time).
    stall_windows: List[Tuple[int, int, str]] = field(default_factory=list)


@dataclass
class ProcessorLane:
    """Cycle breakdown of one logical processor within a schedule."""

    processor: int
    busy: int = 0
    wasted: int = 0
    stall: int = 0
    segments: int = 0


@dataclass
class RegionSchedule:
    """One region laid out on ``processors`` logical processors."""

    name: str
    kind: str
    processors: int
    window: int
    start: int
    end: int
    segments: List[SegmentTiming] = field(default_factory=list)
    lanes: List[ProcessorLane] = field(default_factory=list)

    @property
    def span(self) -> int:
        return self.end - self.start

    def longest_segment_cycles(self) -> int:
        """The longest single-segment critical path (final-attempt work).

        Any valid parallel execution of the region is at least this
        long; the makespan tests assert ``span >= longest``.
        """
        longest = 0
        for seg in self.segments:
            if seg.busy_cycles > longest:
                longest = seg.busy_cycles
        return longest


def schedule_region(
    region: RegionRecording,
    processors: int,
    cost: CostModel,
    window: int,
    start: int = 0,
) -> RegionSchedule:
    """Lay ``region``'s recorded segments out on ``processors`` lanes."""
    processors = max(1, int(processors))
    window = max(1, int(window))
    lanes = [ProcessorLane(processor=p) for p in range(processors)]
    schedule = RegionSchedule(
        name=region.name,
        kind=region.kind,
        processors=processors,
        window=window,
        start=start,
        end=start,
        lanes=lanes,
    )
    segments = schedule.segments
    # ``cost.commit_cost`` inlined: commit_base + commit_per_entry * entries.
    dispatch_overhead = cost.dispatch_overhead
    commit_base = cost.commit_base
    commit_per_entry = cost.commit_per_entry
    squash_penalty = cost.squash_penalty
    proc_free = [start] * processors
    #: Retirement times in age order (frees the segment's window slot).
    retire_times: List[int] = []
    #: age -> start time of each scheduled attempt (squash-gate lookups;
    #: violating writers are older, hence already scheduled).
    attempt_starts: Dict[int, List[int]] = {}
    #: Latest retirement among all older segments (overflow-drain gate).
    all_retired = start
    #: Commit time of the youngest committed segment (age-order arbitration).
    last_commit = start
    last_dispatch = start
    end = start

    for index, seg in enumerate(region.segments):
        # Window-ordered dispatch: in age order, gated on the segment
        # window slots, one dispatch_overhead each.
        gate = retire_times[index - window] if index >= window else start
        dispatch = (last_dispatch if last_dispatch > gate else gate) + dispatch_overhead
        last_dispatch = dispatch
        # Earliest-free processor (the first one on a tie).
        free = min(proc_free)
        processor = proc_free.index(free)
        t = dispatch if dispatch > free else free
        seg_start = t
        busy = wasted = stall = 0
        finish = t
        commit_time = t
        pending_stall = False
        starts = attempt_starts[seg.age] = []
        attempt_windows: List[Tuple[int, int, str]] = []
        stall_windows: List[Tuple[int, int, str]] = []
        attempts = seg.attempts
        for attempt in attempts:
            starts.append(t)
            attempt_begin = t
            overhead = 0
            for phase in attempt.phases:
                tag = phase[0]
                if tag is PHASE_RUN:
                    t += phase[1]
                elif tag is PHASE_STALL:
                    pending_stall = True
                elif tag is PHASE_DRAIN:
                    if pending_stall:
                        # Drained only once oldest: wait for every older
                        # segment to retire.
                        if all_retired > t:
                            stall += all_retired - t
                            stall_windows.append((t, all_retired, "drain-wait"))
                            t = all_retired
                        pending_stall = False
                    entries = phase[1]
                    drain_cost = commit_base + commit_per_entry * (
                        entries if entries > 0 else 0
                    )
                    t += drain_cost
                    overhead += drain_cost
            outcome = attempt.outcome
            if outcome is OUTCOME_COMMITTED:
                finish = t
                # Commit arbitration: strictly after the older commit.
                if last_commit > t:
                    stall += last_commit - t
                    stall_windows.append((t, last_commit, "commit-arbitration"))
                    t = last_commit
                entries = attempt.commit_entries
                commit_cost = commit_base + commit_per_entry * (
                    entries if entries > 0 else 0
                )
                t += commit_cost
                commit_time = t
                last_commit = t
                busy += attempt.busy_cycles + overhead + commit_cost
            else:
                wasted += attempt.busy_cycles + overhead
                if outcome is OUTCOME_DISCARDED:
                    finish = t
                    commit_time = t
                else:  # squashed (a squash interrupts any pending wait)
                    # Causality gate: the restart re-reads the violating
                    # writer's value, so it cannot begin before that
                    # write happened on the writer's (older, already
                    # scheduled) timeline.
                    writer_starts = attempt_starts.get(attempt.squashed_by)
                    widx = attempt.squashed_by_attempt
                    if writer_starts is not None and widx is not None and widx < len(
                        writer_starts
                    ):
                        violation = writer_starts[widx] + attempt.squashed_at_elapsed
                        if violation > t:
                            stall += violation - t
                            stall_windows.append((t, violation, "squash-gate"))
                            t = violation
                    t += squash_penalty
                    wasted += squash_penalty
                pending_stall = False
            attempt_windows.append((attempt_begin, t, outcome))
        proc_free[processor] = t
        retire_times.append(t)
        if t > all_retired:
            all_retired = t
        lane = lanes[processor]
        lane.busy += busy
        lane.wasted += wasted
        lane.stall += stall
        lane.segments += 1
        segments.append(
            SegmentTiming(
                seg.key,
                seg.age,
                processor,
                dispatch,
                seg_start,
                finish,
                commit_time,
                len(attempts),
                seg.outcome,
                busy,
                wasted,
                stall,
                attempt_windows,
                stall_windows,
            )
        )
        if t > end:
            end = t
    schedule.end = end
    return schedule
