"""The benchmark's own arithmetic.

Percentiles with the sample-count rule, the geometric mean, self-time
folding of nested spans, failure accounting and the run-to-run spread.
Everything here is pure and covered by ``test_arith.py``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile counts only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated linearly between closest ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    frac = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q``-th rank."""
    if n <= 0:
        return 0
    return n - 1 - math.floor((q / 100.0) * (n - 1))


def tail_counts(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when the ``q``-th percentile of ``n`` samples has enough beyond it."""
    return samples_beyond(n, q) >= min_beyond


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def covered_length(
    intervals: Iterable[Tuple[int, int]], start: int, end: int
) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if min(hi, end) > max(lo, start)
    )
    total = 0
    cur_lo: Optional[int] = None
    cur_hi = 0
    for lo, hi in clipped:
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence) -> List[Tuple[object, int]]:
    """``(span, self_ns)`` for each span: its duration minus what children cover.

    ``spans`` carry ``span_id``, ``parent_id``, ``start_ns`` and
    ``end_ns``.  Children that overlap each other are counted once.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start_ns, span.end_ns)
            )
    out = []
    for span in spans:
        duration = max(0, span.end_ns - span.start_ns)
        covered = covered_length(
            children.get(span.span_id, ()), span.start_ns, span.end_ns
        )
        out.append((span, duration - covered))
    return out


def fold(
    pairs: Iterable[Tuple[str, float]]
) -> Dict[str, Dict[str, float]]:
    """Fold ``(key, ms)`` pairs into count, total, p50 and share of the total."""
    groups: Dict[str, List[float]] = {}
    for key, ms in pairs:
        groups.setdefault(key, []).append(ms)
    grand = sum(sum(v) for v in groups.values())
    return {
        key: {
            "count": len(v),
            "total_ms": sum(v),
            "p50_ms": percentile(v, 50),
            "share": sum(v) / grand if grand > 0 else 0.0,
        }
        for key, v in groups.items()
    }


def faster_half(durations: Sequence[float]) -> List[int]:
    """Indices of the rounds that took no longer than the median round."""
    cut = statistics.median(durations)
    return [i for i, d in enumerate(durations) if d <= cut]


def steady_figures(
    rounds: Sequence[Tuple[float, Sequence[float]]]
) -> Dict[str, float]:
    """Throughput and median latency over the faster half of equal-work
    rounds, and the p95 over every round.

    ``rounds`` are ``(wall seconds, latencies in ms)``.  The shared host
    the benchmark was written on switches each CPU between two speeds
    about 1.4x apart, for seconds to tens of seconds at a time, so the
    share of a run spent slow varies from run to run.  Rounds do equal
    work, so the faster half are those that ran at the quicker speed
    whenever the host gave it for at least half the run.  A round's time
    hangs on its slowest requests, though, so the faster half are also
    the rounds whose tail was shortest: the p95 over them spread two to
    three times as much from run to run as the p95 over every round.
    """
    keep = faster_half([wall for wall, _ in rounds])
    wall = sum(rounds[i][0] for i in keep)
    latencies = [ms for i in keep for ms in rounds[i][1]]
    return {
        "req_per_s": len(latencies) / wall,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile([ms for _, lat in rounds for ms in lat], 95),
    }


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(reason)

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
