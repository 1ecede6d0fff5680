"""Timing harness: analyze-throughput and simulate-throughput.

Two instruments, both per workload family:

* **analyze** -- repeatedly runs the full labeling pipeline
  (:func:`repro.idempotency.labeling.label_region`) on the workload's
  region and reports *references classified per second*.  Each
  repetition uses a fresh :class:`AnalysisCache`, so the number is the
  *cold* analysis cost (intra-pass signature bucketing only); a second
  number reports the *warm* cost with a shared cache (cross-pass
  reuse).
* **simulate** -- repeatedly executes the program through the
  sequential interpreter (trace record-and-replay where the region is
  eligible) and reports *memory operations (reads + writes) per
  second*.

Repetitions adapt to the workload: each measurement repeats until
``min_seconds`` of wall-clock time is accumulated (at least
``min_repeats`` times) and the *best* repetition is used, which is the
standard way to suppress scheduler noise in micro-benchmarks.  Every
per-repetition sample is kept alongside the best, so the reported
numbers carry p50 / p95 / stddev dispersion next to the headline rate
(the same summary shape :mod:`repro.obs.metrics` histograms report).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.cache import AnalysisCache
from repro.bench.workloads import Workload
from repro.idempotency.labeling import label_region
from repro.obs.metrics import percentile, stddev
from repro.runtime.interpreter import SequentialInterpreter


@dataclass
class Measurement:
    """One throughput measurement."""

    seconds: float
    work_units: int
    repeats: int
    #: Wall-clock seconds of every repetition (``seconds`` is their min).
    samples: List[float] = field(default_factory=list)

    @property
    def per_second(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.work_units / self.seconds

    def rate_stats(self) -> Dict[str, float]:
        """Dispersion of the per-repetition throughput (units / s)."""
        rates = [self.work_units / s for s in self.samples if s > 0]
        return {
            "p50": round(percentile(rates, 50.0), 1),
            "p95": round(percentile(rates, 95.0), 1),
            "stddev": round(stddev(rates), 1),
        }


@dataclass
class FamilyResult:
    """All numbers of one workload family."""

    family: str
    size: int
    statements: int
    references: int
    analyze: Measurement
    analyze_warm: Measurement
    simulate: Measurement
    simulate_ops: int
    replayed: bool
    replay_reason: str
    idempotent_fraction: float
    signature_stats: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "family": self.family,
            "size": self.size,
            "statements": self.statements,
            "references": self.references,
            "analyze_refs_per_s": round(self.analyze.per_second, 1),
            "analyze_warm_refs_per_s": round(self.analyze_warm.per_second, 1),
            "analyze_repeats": self.analyze.repeats,
            "analyze_stats": self.analyze.rate_stats(),
            "analyze_warm_stats": self.analyze_warm.rate_stats(),
            "simulate_ops_per_s": round(self.simulate.per_second, 1),
            "simulate_ops": self.simulate_ops,
            "simulate_repeats": self.simulate.repeats,
            "simulate_stats": self.simulate.rate_stats(),
            "replayed": self.replayed,
            "replay_reason": self.replay_reason,
            "idempotent_fraction": round(self.idempotent_fraction, 4),
            "signature_stats": self.signature_stats,
        }


def _timed_best(fn, min_seconds: float, min_repeats: int, max_repeats: int) -> tuple:
    """Best (min) duration of ``fn()``, all samples, and the last result."""
    best = float("inf")
    total = 0.0
    samples: List[float] = []
    last = None
    while (total < min_seconds or len(samples) < min_repeats) and len(
        samples
    ) < max_repeats:
        t0 = time.perf_counter()
        last = fn()
        dt = time.perf_counter() - t0
        total += dt
        samples.append(dt)
        if dt < best:
            best = dt
    return best, samples, last


def measure_family(
    workload: Workload,
    min_seconds: float = 0.4,
    min_repeats: int = 2,
    max_repeats: int = 200,
    op_budget: Optional[int] = None,
) -> FamilyResult:
    """Measure one workload family."""
    region = workload.region
    refs = len(region.references)

    # -- analysis, cold (fresh cache per repetition) --------------------
    def analyze_cold():
        return label_region(region, cache=AnalysisCache())

    analyze_best, analyze_samples, labeling = _timed_best(
        analyze_cold, min_seconds, min_repeats, max_repeats
    )

    # -- analysis, warm (shared cache across repetitions) ---------------
    shared_cache = AnalysisCache()
    label_region(region, cache=shared_cache)

    def analyze_warm():
        return label_region(region, cache=shared_cache)

    warm_best, warm_samples, _ = _timed_best(
        analyze_warm, min_seconds / 4, min_repeats, max_repeats
    )

    signature_stats: Dict[str, int] = {}
    index = shared_cache.peek(
        region, ("signature_index", frozenset(labeling.read_only_vars))
    )
    if index is not None:
        signature_stats = index.stats()

    # -- simulation ------------------------------------------------------
    def simulate():
        return SequentialInterpreter(workload.program, op_budget=op_budget).run()

    simulate_best, simulate_samples, result = _timed_best(
        simulate, min_seconds, min_repeats, max_repeats
    )
    sim_ops = result.stats.reads + result.stats.writes
    region_name = region.name
    return FamilyResult(
        family=workload.family,
        size=workload.size,
        statements=workload.statements,
        references=refs,
        analyze=Measurement(
            analyze_best, refs, len(analyze_samples), analyze_samples
        ),
        analyze_warm=Measurement(warm_best, refs, len(warm_samples), warm_samples),
        simulate=Measurement(
            simulate_best, sim_ops, len(simulate_samples), simulate_samples
        ),
        simulate_ops=sim_ops,
        replayed=result.replayed_regions.get(region_name, False),
        replay_reason=result.replay_reasons.get(region_name, "n/a"),
        idempotent_fraction=labeling.static_fraction_idempotent(),
        signature_stats=signature_stats,
    )
