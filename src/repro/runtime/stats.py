"""Execution statistics collected by the interpreters and engines."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple


@dataclass
class ExecutionStats:
    """Counters shared by the sequential interpreter and the speculative engines."""

    #: Total executor compute cycles (memory accesses are priced by
    #: :mod:`repro.timing`, not here).
    cycles: int = 0
    #: Dynamic memory reference counts keyed by static reference uid.
    reference_counts: Dict[str, int] = field(default_factory=dict)
    #: Dynamic reads / writes (totals).
    reads: int = 0
    writes: int = 0
    #: References that went to speculative storage / bypassed it / were
    #: served from a private frame (the three routes of Definition 4).
    speculative_accesses: int = 0
    idempotent_accesses: int = 0
    private_accesses: int = 0
    #: Speculation events.
    violations: int = 0
    control_mispredictions: int = 0
    rollbacks: int = 0
    segments_started: int = 0
    segments_committed: int = 0
    overflow_stalls: int = 0
    overflow_entries: int = 0
    commit_entries: int = 0
    #: Wasted work: cycles spent in executions that were rolled back.
    wasted_cycles: int = 0
    #: Rollbacks forced by the resilience layer rather than by a real
    #: data dependence: poisoned-buffer scrubs and restarts after an
    #: injected mid-segment exception or corrupted address (a subset of
    #: ``rollbacks``).
    fault_restarts: int = 0
    #: Scheduling rounds a stalled segment sat waiting to become oldest
    #: -- a raw engine-level pressure metric, reported alongside (but
    #: independent of) the timing model's stall cycles.
    stall_rounds: int = 0
    #: Batched-replay counters (``runtime.batch``): whole-segment
    #: attempts executed as one batch, the ops they covered, attempts
    #: resolved through the overflow/validation fallback, post-hoc
    #: validation failures, and read/write-log entries carried per batch
    #: (an occupancy proxy for the segment-local logs).
    batched_attempts: int = 0
    batched_ops: int = 0
    batch_fallbacks: int = 0
    batch_violations: int = 0
    batch_log_entries: int = 0
    #: The two reasons a fallback resolves: the overflowed head's logs
    #: still validated and its buffer drained early, or they were stale
    #: and it re-executed in write-through mode
    #: (``batch_fallbacks == batch_drains + batch_reexecutions``).
    batch_drains: int = 0
    batch_reexecutions: int = 0

    # ------------------------------------------------------------------
    def count_reference(self, uid: str) -> None:
        self.reference_counts[uid] = self.reference_counts.get(uid, 0) + 1

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Combine two stats objects (cycles add; counters add).

        The counter list is derived from the dataclass fields, so a new
        engine counter is covered automatically.
        """
        merged = ExecutionStats()
        for name in scalar_counter_names():
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.reference_counts = dict(self.reference_counts)
        for uid, count in other.reference_counts.items():
            merged.reference_counts[uid] = merged.reference_counts.get(uid, 0) + count
        return merged

    def as_dict(self) -> Dict[str, int]:
        """Scalar counters as a plain dict (reference counts omitted)."""
        return {name: getattr(self, name) for name in scalar_counter_names()}


def scalar_counter_names() -> Tuple[str, ...]:
    """All scalar counter fields of :class:`ExecutionStats`.

    Every field except the ``reference_counts`` mapping; both
    :meth:`ExecutionStats.merge` and :meth:`ExecutionStats.as_dict`
    iterate this list so the two can never drift apart (or silently
    drop a newly added counter).
    """
    global _SCALAR_COUNTERS
    if _SCALAR_COUNTERS is None:
        _SCALAR_COUNTERS = tuple(
            f.name for f in fields(ExecutionStats) if f.name != "reference_counts"
        )
    return _SCALAR_COUNTERS


_SCALAR_COUNTERS: "Tuple[str, ...] | None" = None
