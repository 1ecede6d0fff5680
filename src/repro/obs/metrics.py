"""Process-wide metrics registry: counters, gauges, histograms.

The registry does **not** re-implement the accounting the runtime
already performs -- :class:`~repro.runtime.stats.ExecutionStats`,
:class:`~repro.timing.events.TimingRecorder` recordings and
:class:`~repro.runtime.engines.DegradationReport` payloads stay the
single source of truth.  The adapters at the bottom of this module
*ingest* those objects into named instruments, so every subsystem's
telemetry lands in one snapshot with one schema
(``repro.obs.metrics/v1``) that ``python -m repro.obs validate`` can
check and CI can archive.

Live instrumentation sites (e.g. the
:class:`~repro.analysis.cache.AnalysisCache` hit/miss hook) guard on
:meth:`MetricsRegistry.collecting`, which is ``False`` by default --
like the tracer, disabled metrics cost one attribute check per site.

The histogram keeps exact ``count`` / ``sum`` / ``min`` / ``max`` plus a
bounded sample buffer for p50 / p95 / stddev.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional

SCHEMA = "repro.obs.metrics/v1"

#: Retained histogram samples (count/sum/min/max stay exact beyond it).
HISTOGRAM_SAMPLE_CAP = 4096


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "help", "_lock", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A distribution with exact totals and bounded percentile samples."""

    __slots__ = ("name", "help", "_lock", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._samples) < HISTOGRAM_SAMPLE_CAP:
                self._samples.append(value)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            samples = list(self._samples)
            count, total = self.count, self.total
            lo = self.min if count else 0.0
            hi = self.max if count else 0.0
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count if count else 0.0,
            "p50": percentile(samples, 50.0),
            "p95": percentile(samples, 95.0),
            "stddev": stddev(samples),
        }


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank-interpolated percentile (0.0 for empty input)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    frac = rank - lower
    return ordered[lower] * (1.0 - frac) + ordered[upper] * frac


def stddev(samples: List[float]) -> float:
    """Population standard deviation (0.0 below two samples)."""
    n = len(samples)
    if n < 2:
        return 0.0
    mean = sum(samples) / n
    return math.sqrt(sum((s - mean) ** 2 for s in samples) / n)


class MetricsRegistry:
    """Create-or-get instruments by name; snapshot everything at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Gate for *live* instrumentation sites (cache hit/miss etc.);
        #: adapters ingest regardless -- their cost is explicit.
        self.collecting = False

    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.collecting = True

    def disable(self) -> None:
        self.collecting = False

    def reset(self) -> None:
        """Drop every instrument (the collecting flag is kept)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, help)
            return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, help)
            return instrument

    def histogram(self, name: str, help: str = "") -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, help)
            return instrument

    # ------------------------------------------------------------------
    def snapshot(self, meta: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """All instruments as one schema-tagged JSON-ready payload."""
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            gauges = {name: g.value for name, g in sorted(self._gauges.items())}
            histograms = dict(sorted(self._histograms.items()))
        return {
            "schema": SCHEMA,
            "meta": dict(meta) if meta else {},
            "counters": counters,
            "gauges": gauges,
            "histograms": {name: h.summary() for name, h in histograms.items()},
        }


#: The process-wide registry (module-private; use :func:`metrics_registry`).
_REGISTRY = MetricsRegistry()


def metrics_registry() -> MetricsRegistry:
    """The process-wide registry every adapter defaults to."""
    return _REGISTRY


# ----------------------------------------------------------------------
# Adapters: existing telemetry objects -> named instruments.
#
# All adapters are duck-typed on purpose: this module must stay a leaf
# (the runtime, analysis and timing layers import *it*), so it never
# imports their classes.
# ----------------------------------------------------------------------
def ingest_execution_stats(
    stats: Any,
    prefix: str = "runtime",
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """Fold an ``ExecutionStats`` into ``<prefix>.<counter>`` counters.

    Returns the ingested name -> increment mapping (the round-trip the
    tests assert: ingesting into a fresh registry reproduces
    ``stats.as_dict()`` exactly).
    """
    registry = registry or _REGISTRY
    ingested: Dict[str, int] = {}
    for name, value in stats.as_dict().items():
        full = f"{prefix}.{name}"
        registry.counter(full).inc(int(value))
        ingested[full] = int(value)
    return ingested


def ingest_recording(
    recording: Any,
    prefix: str = "timing",
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """Fold a timing ``Recording`` into counters + attempt histograms."""
    registry = registry or _REGISTRY
    summary = recording.summary()
    ingested: Dict[str, int] = {}
    for name in (
        "regions",
        "segments",
        "attempts",
        "squashed_attempts",
        "discarded_attempts",
        "committed_segments",
        "busy_cycles",
        "direct_cycles",
    ):
        full = f"{prefix}.{name}"
        registry.counter(full).inc(int(summary[name]))
        ingested[full] = int(summary[name])
    histogram = registry.histogram(f"{prefix}.attempt_cycles")
    for section in recording.regions():
        for segment in section.segments:
            for attempt in segment.attempts:
                histogram.observe(attempt.busy_cycles)
    return ingested


def ingest_degradation(
    report: Any,
    prefix: str = "resilience",
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, int]:
    """Fold a ``DegradationReport`` into degradation/fault counters."""
    registry = registry or _REGISTRY
    payload = report.as_dict()
    ingested: Dict[str, int] = {}

    def bump(name: str, amount: int) -> None:
        registry.counter(name).inc(amount)
        ingested[name] = ingested.get(name, 0) + amount

    bump(f"{prefix}.degradations", 1)
    bump(f"{prefix}.degradations.{payload['error_type']}", 1)
    bump(f"{prefix}.degraded_rollbacks", int(payload["rollbacks"]))
    bump(f"{prefix}.degraded_fault_restarts", int(payload["fault_restarts"]))
    for kind, count in payload["fault_counts"].items():
        bump(f"{prefix}.faults.{kind}", int(count))
    return ingested


def ingest_cache_stats(
    cache: Any,
    prefix: str = "analysis.cache",
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, float]:
    """Fold an ``AnalysisCache``'s hit/miss/entry stats into gauges."""
    registry = registry or _REGISTRY
    ingested: Dict[str, float] = {}
    for name, value in cache.stats().items():
        full = f"{prefix}.{name}"
        registry.gauge(full).set(float(value))
        ingested[full] = float(value)
    return ingested


# ----------------------------------------------------------------------
# Snapshot validation (python -m repro.obs validate).
# ----------------------------------------------------------------------
_HISTOGRAM_KEYS = frozenset(
    ("count", "sum", "min", "max", "mean", "p50", "p95", "stddev")
)


def validate_metrics(payload: Any) -> List[str]:
    """Schema-check one metrics snapshot; returns error strings."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"metrics payload must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != SCHEMA:
        errors.append(
            f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(payload.get(section), dict):
            errors.append(f"missing or non-object section {section!r}")
    for name, value in (payload.get("counters") or {}).items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"counter {name!r} must be a non-negative int")
    for name, value in (payload.get("gauges") or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"gauge {name!r} must be a number")
    for name, summary in (payload.get("histograms") or {}).items():
        if not isinstance(summary, dict):
            errors.append(f"histogram {name!r} must be an object")
            continue
        missing = _HISTOGRAM_KEYS.difference(summary)
        if missing:
            errors.append(
                f"histogram {name!r} missing keys {sorted(missing)}"
            )
    return errors
