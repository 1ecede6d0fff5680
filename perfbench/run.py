"""Benchmark of the analysis daemon and the speculative engines behind it.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 40 --trace 0

Workloads:

``serve-mix``
    The daemon (``python -m repro.serve --listen 127.0.0.1:0 --workers 2``)
    under its everyday mix: analyze, label, simulate CASE and HOSE at
    capacity 8, and speedup_sweep, over four warm sources.
``analyze-cold``
    The daemon answering analyze/label for programs it has never seen,
    so the interner and the analysis cache miss on every request.

Both are a closed loop: one client process with two TCP connections,
each sending its next request when the previous response arrives.  The
loop runs in rounds of equal work after one warm-up round; throughput
and the median come from the faster half of the rounds, the p95 from
all of them.  ``--trace 0`` reports the end-to-end metrics with tracing
off.  ``--trace 1`` drives the same inputs through an in-process server,
first untraced and then with ``repro.obs`` armed, and reports the
per-layer metrics.  Every response is checked; the last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit status is 0 only when nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from arith import (
    Tally,
    faster_half,
    percentile,
    samples_beyond,
    steady_figures,
    tail_counts,
)
from inputs import (
    MIX_CYCLE,
    OVERFLOW_CAPACITY,
    cold_pool,
    cold_request,
    mix_request,
    mix_sources,
)
from layers import UNITS, EngineLog, format_table, instrument, layer_table
from serveload import Daemon, Sample, closed_loop, fastest_cpus, move, pin

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = 2
WORKERS = 2
#: Set-ups per run, spread over its rounds; ``setup_s`` is the median
#: of the faster half of them (their 25th percentile), for the reason
#: ``steady_figures`` gives.
SERVE_SETUPS = 7
#: End-to-end metrics: (name, unit).
E2E = (
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

Result = Tuple[Dict[str, float], List[str]]


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def expected_answers(source: str) -> Dict:
    """What analyze and label must return for ``source``, computed in process."""
    from repro.idempotency.labeling import label_region
    from repro.ir.dsl import parse_program

    program = parse_program(source)
    region = program.regions[0]
    result = label_region(region, program=program)
    return {
        "labels": {
            ref.uid: {"label": result.label_of(ref).value,
                      "category": result.category_of(ref).value}
            for ref in region.references
        },
        "categories": {c.value: n for c, n in result.counts_by_category().items()},
        "fully_independent": result.fully_independent,
    }


def check_response(sample: Sample, expected: Dict) -> Tuple[bool, str]:
    """Whether one daemon response is correct, and why not."""
    tag = f"{sample.method} #{sample.session}.{sample.n}"
    response = sample.response
    if response is None:
        return False, f"{tag}: connection dropped"
    if "error" in response:
        return False, f"{tag}: error {response['error']}"
    result = response["result"]
    if sample.method == "simulate":
        return result["bit_identical"] is True, f"{tag}: not bit-identical"
    if sample.method == "speedup_sweep":
        ok = all(e["bit_identical"] is True for e in result["engines"].values())
        return ok, f"{tag}: not bit-identical"
    if sample.method == "label":
        return result["labels"] == expected["labels"], f"{tag}: labels differ"
    region = result["regions"][0]
    ok = (region["categories"] == expected["categories"]
          and region["fully_independent"] == expected["fully_independent"])
    return ok, f"{tag}: analysis summary differs"


class ServeMix:
    """Two sessions cycling analyze, label, simulate x2, speedup_sweep."""

    def __init__(self, seed: int):
        self.sources = mix_sources(seed)
        #: One cycle over every source per session.
        self.round_size = len(MIX_CYCLE) * len(self.sources)

    def prepare(self, tally: Tally) -> None:
        self.expected = {s: expected_answers(s) for s in self.sources}

    def next_request(self, session: int, n: int) -> Tuple[str, Dict]:
        return mix_request(self.sources, session, n)

    def expected_for(self, sample: Sample) -> Dict:
        return self.expected[sample.params["dsl"]]


class AnalyzeCold:
    """Two sessions sending analyze/label, each for a program never seen."""

    def __init__(self, seed: int):
        self.pool = cold_pool(seed)
        #: One pass over the pool per session.
        self.round_size = len(self.pool)
        self._base_of: Dict[str, object] = {}

    def prepare(self, tally: Tally) -> None:
        from repro.analysis.checker import check_program
        from repro.ir.dsl import parse_program

        self.expected = {}
        for base in self.pool:
            self.expected[base.source] = expected_answers(base.source)
            report = check_program(parse_program(base.source))
            unsound, suspect = report.count("unsound"), report.count("suspect")
            tally.record(unsound == 0 and suspect == 0,
                         f"checker on {base.family}/{base.statements}: "
                         f"{unsound} unsound, {suspect} suspect")

    def next_request(self, session: int, n: int) -> Tuple[str, Dict]:
        method, params, base = cold_request(self.pool, session, n)
        self._base_of[params["dsl"]] = base
        return method, params

    def expected_for(self, sample: Sample) -> Dict:
        return self.expected[self._base_of[sample.params["dsl"]].source]


def check_samples(workload, samples: List[Sample], tally: Tally) -> None:
    peaks: Dict[Tuple[str, int, str], int] = {}
    for sample in samples:
        tally.record(*check_response(sample, workload.expected_for(sample)))
        if sample.method == "simulate" and sample.response and "result" in sample.response:
            result = sample.response["result"]
            key = (result["program"], result["capacity"], result["engine"])
            peaks[key] = max(peaks.get(key, 0), result["spec_peak_entries"])
    check_peaks(peaks, tally)


def check_peaks(peaks: Dict[Tuple[str, int, str], int], tally: Tally) -> None:
    """The paper's storage claim: CASE never needs more speculative
    entries than HOSE on the same program and capacity."""
    for (program, capacity, engine), case in sorted(peaks.items()):
        hose = peaks.get((program, capacity, "hose"))
        if engine == "case" and hose is not None:
            tally.record(case <= hose, f"{program} cap {capacity}: CASE peak "
                                       f"{case} > HOSE peak {hose}")


def tail_line(n: int, what: str) -> str:
    return (f"  {n} {what}; p95 has {samples_beyond(n, 95)} samples beyond it"
            + ("" if tail_counts(n, 95) else " (fewer than 10: it does not count)"))


def latency_lines(samples: List[Sample]) -> List[str]:
    lines = [tail_line(len(samples), "requests")]
    by_method: Dict[str, List[float]] = {}
    for s in samples:
        by_method.setdefault(s.method, []).append(s.latency_ms)
    for method, lat in sorted(by_method.items()):
        lines.append(f"  {method:<14} n={len(lat):<5} p50 {percentile(lat, 50):9.2f} ms"
                     f"   p95 {percentile(lat, 95):9.2f} ms")
    return lines


def round_lines(walls: List[float], what: str) -> List[str]:
    kept = faster_half(walls)
    return [f"  {len(walls)} {what} of {statistics.median(walls):.3f} s median; "
            f"rate and p50 over the faster {len(kept)}, p95 over all"]


def run_serve(cls, seed: int, seconds: float, tally: Tally) -> Result:
    """Timed run against the daemon child.

    Set-up is input generation plus daemon spawn to port-ready; after
    the first, one more is timed between rounds (with a spare daemon)
    until there are ``SERVE_SETUPS``.  Teardown is not measured.

    The daemon's threads share one interpreter lock, so it runs on one
    CPU and the client on another (unpinned, lock hand-offs across CPUs
    made throughput vary by a quarter from run to run); both are chosen
    afresh by ``fastest_cpus`` before every round.
    """
    server_cpu, client_cpu = fastest_cpus()
    pin(client_cpu)
    setups: List[float] = []

    def set_up():
        started = time.perf_counter()
        workload = cls(seed)
        daemon = Daemon(ROOT, WORKERS, server_cpu)
        setups.append(time.perf_counter() - started)
        return workload, daemon

    def between() -> None:
        nonlocal server_cpu, client_cpu
        if len(setups) < SERVE_SETUPS:
            set_up()[1].stop()
        server_cpu, client_cpu = fastest_cpus()
        move(daemon.proc.pid, server_cpu)
        move(os.getpid(), client_cpu)

    workload, daemon = set_up()
    try:
        workload.prepare(tally)
        rounds = closed_loop(daemon.port, SESSIONS, workload.round_size,
                             workload.next_request, seconds, between)
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    samples = [s for r in rounds for s in r.samples]
    check_samples(workload, samples, tally)
    metrics = {
        "setup_s": percentile(setups, 25),
        **steady_figures([(r.seconds, [s.latency_ms for s in r.samples]) for r in rounds]),
        "peak_rss_mb": rss,
    }
    return metrics, round_lines([r.seconds for r in rounds],
                                f"rounds of {len(rounds[0].samples)} requests") + \
        latency_lines(samples)


def stop_server(server, pool) -> None:
    # TCPServer.shutdown closes its listener, which does not wake the
    # thread blocked in accept(); shutting the socket down first does.
    try:
        server._listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    server.shutdown()
    pool.close()


def trace_serve(cls, seed: int, seconds: float, tally: Tally) -> Result:
    """Traced run: an in-process server, half untraced, half traced."""
    from repro.obs.log import configure_logging
    from repro.obs.metrics import metrics_registry
    from repro.obs.tracer import TRACER
    from repro.serve.dispatch import Dispatcher
    from repro.serve.pool import WorkerPool
    from repro.serve.sockets import TCPServer

    configure_logging(quiet=True)
    pin(fastest_cpus()[0])  # server and client threads share one interpreter lock
    workload = cls(seed)
    workload.prepare(tally)
    registry = metrics_registry()
    registry.enable()  # as the daemon does at start-up
    dispatcher = Dispatcher()
    pool = WorkerPool(workers=WORKERS)
    server = TCPServer(dispatcher, pool)
    log = EngineLog()
    calls, start, split = 0, 0.0, None
    plain_runs: List = []
    cache_before: Dict = {}

    def between() -> None:
        # After the warm-up round and after every round: rounds in the
        # first half of the time run untraced, the rest traced.
        nonlocal calls, start, split, plain_runs, cache_before
        calls += 1
        if calls == 1:
            start = time.perf_counter()
            log.runs = []
        elif split is None and time.perf_counter() - start >= seconds / 2:
            split = calls - 1
            plain_runs, log.runs = log.runs, []
            cache_before = dispatcher.cache.stats()
            TRACER.reset()
            TRACER.enable()

    with instrument(dispatcher, log):
        server.start()
        try:
            try:
                rounds = closed_loop(server.port, SESSIONS, workload.round_size,
                                     workload.next_request, seconds, between)
            finally:
                TRACER.disable()
            spans = TRACER.finished_spans()
            TRACER.reset()
            cache_after = dispatcher.cache.stats()
        finally:
            stop_server(server, pool)
            registry.disable()
    if split is None or split >= len(rounds):
        raise SystemExit(f"--seconds {seconds} leaves no traced rounds")
    plain = [s for r in rounds[:split] for s in r.samples]
    traced = [s for r in rounds[split:] for s in r.samples]
    wall_plain = sum(r.seconds for r in rounds[:split])
    wall_traced = sum(r.seconds for r in rounds[split:])
    check_samples(workload, plain + traced, tally)

    layers = layer_table(spans, len(traced))
    metrics = dict(layers["metrics"])
    metrics.update(log.counts())
    plain_log = EngineLog()
    plain_log.runs = plain_runs
    metrics["runtime.engine_ops_per_s"] = plain_log.ops_per_s()
    metrics["runtime.overflow_ops_per_s"] = plain_log.ops_per_s("hose", OVERFLOW_CAPACITY)
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    metrics["analysis.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    overheads = [s.latency_ms - s.response["result"]["meta"]["elapsed_ms"]
                 for s in traced if s.response and "result" in s.response]
    metrics["serve.overhead_ms"] = percentile(overheads, 50) if overheads else 0.0
    metrics["trace.overhead_share"] = (
        (wall_traced / len(traced)) / (wall_plain / len(plain)) - 1.0)
    lines = format_table(layers["table"], wall_traced, len(traced))
    lines.append(f"  untraced {len(plain) / wall_plain:.2f} req/s, "
                 f"traced {len(traced) / wall_traced:.2f} req/s")
    return metrics, lines


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Tuple[Callable[..., Result], Callable[..., Result]]] = {
    "serve-mix": (lambda *a: run_serve(ServeMix, *a), lambda *a: trace_serve(ServeMix, *a)),
    "analyze-cold": (lambda *a: run_serve(AnalyzeCold, *a),
                     lambda *a: trace_serve(AnalyzeCold, *a)),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tally = Tally()
    timed, traced = WORKLOADS[args.workload]
    metrics, lines = (traced if args.trace else timed)(args.seed, args.seconds, tally)
    units = UNITS if args.trace else dict(E2E)
    print(f"{args.workload} seed {args.seed} ({'traced' if args.trace else 'timed'})")
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>16.4f} {units[name]}")
    print(f"  error_share {tally.error_share:.4f} ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
