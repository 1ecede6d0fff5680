"""The traced run: bench-side spans, engine counts and the per-layer table.

The program already emits ``analysis.*`` spans from ``label_region`` and
``engine.*`` spans from the engines.  For the calls that have no span of
their own, :func:`instrument` swaps traced wrappers into the names
``repro.serve.dispatch`` calls through, for the duration of the traced
run only: program parsing, the sequential verdict, the timing model and
the dispatcher itself.  Each span's self time (its duration minus what
its children cover) is charged to one layer metric.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Sequence

from arith import fold, geomean, percentile, self_times

#: Span name -> the per-layer metric its self time is charged to.
SPAN_METRIC: Dict[str, str] = {
    "ir.parse": "ir.parse_ms",
    "analysis.access": "analysis.access_ms",
    "analysis.liveness": "analysis.liveness_ms",
    "analysis.dependence": "analysis.dependence_ms",
    "analysis.rfw": "idempotency.rfw_ms",
    "analysis.labeling": "idempotency.labeling_ms",
    "analysis.label_region": "idempotency.labeling_ms",
    "engine.run": "runtime.engine_ms",
    "engine.region": "runtime.engine_ms",
    "engine.batch": "runtime.batch_ms",
    "runtime.verdict": "runtime.verdict_ms",
    "timing.baseline": "timing.baseline_ms",
    "timing.makespan": "timing.makespan_ms",
    "serve.dispatch": "serve.self_ms",
}

#: Serve methods with a dispatch-time metric of their own.
METHODS = ("analyze", "label", "simulate", "speedup_sweep")

#: Every per-layer metric: (name, unit, better).
LAYER_METRICS = (
    ("ir.parse_ms", "ms", "lower"),
    ("analysis.access_ms", "ms", "lower"),
    ("analysis.liveness_ms", "ms", "lower"),
    ("analysis.dependence_ms", "ms", "lower"),
    ("analysis.cache_hit_share", "ratio", "higher"),
    ("idempotency.rfw_ms", "ms", "lower"),
    ("idempotency.labeling_ms", "ms", "lower"),
    ("runtime.verdict_ms", "ms", "lower"),
    ("runtime.engine_ms", "ms", "lower"),
    ("runtime.batch_ms", "ms", "lower"),
    ("runtime.engine_ops_per_s", "1/s", "higher"),
    ("runtime.overflow_ops_per_s", "1/s", "higher"),
    ("runtime.batch_fallback_share", "ratio", "lower"),
    ("runtime.overflow_stalls", "count", "lower"),
    ("runtime.commit_share", "ratio", "higher"),
    ("runtime.spec_peak_entries", "count", "lower"),
    ("runtime.idempotent_access_share", "ratio", "higher"),
    ("timing.baseline_ms", "ms", "lower"),
    ("timing.makespan_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.self_ms", "ms", "lower"),
    *((f"serve.dispatch_ms.{m}", "ms", "lower") for m in METHODS),
    ("trace.overhead_share", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


class EngineLog:
    """Stats of every engine run: ops, wall seconds and the paper's counts."""

    def __init__(self) -> None:
        self.runs: List[Dict] = []

    def add(self, engine: str, capacity, seconds: float, result) -> None:
        s = result.stats
        self.runs.append({
            "engine": engine, "capacity": capacity, "seconds": seconds,
            "ops": s.reads + s.writes, "committed": s.segments_committed,
            "rollbacks": s.rollbacks, "stalls": s.overflow_stalls,
            "attempts": s.batched_attempts, "fallbacks": s.batch_fallbacks,
            "idempotent": s.idempotent_accesses,
            "routed": s.speculative_accesses + s.idempotent_accesses + s.private_accesses,
            "peak": result.spec_peak_entries,
        })

    def ops_per_s(self, engine: Optional[str] = None, capacity=None) -> float:
        """Geomean over runs of ops / run() wall time (0 with no such run)."""
        rates = [r["ops"] / r["seconds"] for r in self.runs
                 if (engine is None or r["engine"] == engine)
                 and (capacity is None or r["capacity"] == capacity)
                 and r["seconds"] > 0]
        return geomean(rates) if rates else 0.0

    def counts(self) -> Dict[str, float]:
        runs = self.runs

        def total(key, rows=runs):
            return sum(r[key] for r in rows)

        def share(num, den):
            return num / den if den else 0.0

        case = [r for r in runs if r["engine"] == "case"]
        return {
            "runtime.batch_fallback_share": share(total("fallbacks"), total("attempts")),
            "runtime.overflow_stalls": share(total("stalls"), len(runs)),
            "runtime.commit_share": share(
                total("committed"), total("committed") + total("rollbacks")),
            "runtime.spec_peak_entries": share(total("peak"), len(runs)),
            "runtime.idempotent_access_share": share(
                total("idempotent", case), total("routed", case)),
        }


def _recording(engine_cls, name: str, log: EngineLog):
    class Recorded(engine_cls):
        def run(self):
            started = time.perf_counter()
            result = super().run()
            log.add(name, self.capacity, time.perf_counter() - started, result)
            return result

    Recorded.__name__ = engine_cls.__name__
    return Recorded


def _spanned(tracer, span_name: str, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(span_name, category="bench"):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(dispatcher, log: EngineLog) -> Iterator[None]:
    """Wrap the calls ``dispatcher`` makes into other layers in bench spans.

    The wrappers cost one ``enabled`` check while the tracer is off, so
    the untraced half of a traced run sees the same code.
    """
    from repro.obs.tracer import TRACER
    from repro.serve import dispatch as mod

    interpreter = mod.SequentialInterpreter

    class VerdictInterpreter(interpreter):
        def run(self):
            with TRACER.span("runtime.verdict", category="bench"):
                return super().run()

    hose = _recording(mod.HOSEEngine, "hose", log)
    case = _recording(mod.CASEEngine, "case", log)
    patches = {
        "parse_program": _spanned(TRACER, "ir.parse", mod.parse_program),
        "SequentialInterpreter": VerdictInterpreter,
        "sequential_baseline": _spanned(TRACER, "timing.baseline", mod.sequential_baseline),
        "compute_makespan": _spanned(TRACER, "timing.makespan", mod.compute_makespan),
        "HOSEEngine": hose,
        "CASEEngine": case,
        "ENGINES": {"hose": hose, "case": case},
    }
    saved = {name: getattr(mod, name) for name in patches}
    dispatch = dispatcher.dispatch

    def traced_dispatch(request):
        with TRACER.span("serve.dispatch", category="bench", method=request.method):
            return dispatch(request)

    for name, value in patches.items():
        setattr(mod, name, value)
    dispatcher.dispatch = traced_dispatch
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(mod, name, value)
        del dispatcher.dispatch


def layer_table(spans: Sequence, units: int) -> Dict:
    """Per-layer metrics (self ms per unit of work) and the table behind them."""
    pairs = [(span.name, ns / 1e6) for span, ns in self_times(spans)]
    table = fold(pairs)
    metrics = {name: 0.0 for name, unit, _ in LAYER_METRICS if unit == "ms"}
    for span_name, row in table.items():
        metric = SPAN_METRIC.get(span_name)
        if metric is not None:
            metrics[metric] += row["total_ms"] / max(units, 1)
    by_method: Dict[str, List[float]] = {m: [] for m in METHODS}
    for span in spans:
        method = span.attributes.get("method") if span.name == "serve.dispatch" else None
        if method in by_method:
            by_method[method].append((span.end_ns - span.start_ns) / 1e6)
    for method, durations in by_method.items():
        metrics[f"serve.dispatch_ms.{method}"] = percentile(durations, 50) if durations else 0.0
    return {"metrics": metrics, "table": table}


def format_table(table: Dict, wall_s: float, units: int) -> List[str]:
    """The per-layer table, one line per span name, grouped by layer."""
    def layer(span_name: str) -> str:
        return SPAN_METRIC.get(span_name, span_name).split(".")[0]

    lines = [f"  traced wall {wall_s:.3f} s over {units} units; self time by span:",
             f"  {'layer':<12}{'span':<24}{'count':>8}{'total_ms':>12}{'p50_ms':>10}{'share':>8}"]
    for name in sorted(table, key=lambda n: (layer(n), -table[n]["total_ms"])):
        row = table[name]
        lines.append(f"  {layer(name):<12}{name:<24}{row['count']:>8}"
                     f"{row['total_ms']:>12.1f}{row['p50_ms']:>10.3f}{row['share']:>8.1%}")
    return lines
