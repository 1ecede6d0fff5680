"""Benchmark entry point: ``python -m repro.bench``.

Six scenarios, all selected by default (``--scenarios`` narrows the
run, ``--list-scenarios`` enumerates them):

``families``
    Analyze-throughput (references classified per second) and
    simulate-throughput (memory operations per second) for every
    workload family.

``engines``
    HOSE vs CASE speculative-storage pressure across buffer capacities,
    every run checked bit-for-bit against the sequential interpreter
    (the ``engines`` key of the report).

``speedup``
    The multiprocessor timing model: HOSE/CASE makespans and
    speedup-vs-sequential across processors x window x capacity (the
    ``speedup`` key; see ``docs/PERFORMANCE.md`` section 5).

``chaos``
    The robustness sweep: every fault kind of ``repro.resilience``
    injected at each swept rate into every workload family (plus a
    branchy explicit-region program) on both engines, asserting that
    each run recovers -- in place or by graceful degradation -- to a
    final state bit-identical to the sequential interpreter (the
    ``chaos`` key; exit 1 on any unrecovered run; see
    ``docs/ROBUSTNESS.md``).

``precision``
    The differential label-soundness checker over the workload families
    plus a seeded fuzz batch: idempotent labels vs provably-conservative
    gaps vs the dynamic upper bound from the trace oracle (the
    ``precision`` key; exit 1 on any unsound or suspect label; see
    ``docs/ANALYSIS.md``).

``serve``
    The analysis daemon under concurrent load: N client sessions over
    real TCP sockets against one shared ``AnalysisCache``, reporting
    requests/sec and p50/p95 latency per method (the ``serve`` key;
    exit 1 on any error envelope, zero cross-request warm hits, or a
    simulate that is not bit-identical to sequential; see
    ``docs/SERVING.md``).

Common invocations::

    python -m repro.bench                 # full run, all scenarios
    python -m repro.bench --smoke         # tiny sizes, CI-friendly
    python -m repro.bench --scenarios speedup   # one scenario only
    python -m repro.bench --list-scenarios
    python -m repro.bench --no-engines    # skip the HOSE/CASE scenario
    python -m repro.bench --verify-engines  # equivalence check only:
                                          # HOSE/CASE final state vs
                                          # sequential, exit 1 on drift
    python -m repro.bench --scenarios speedup --check-speedup
                                          # also assert HOSE on P=4 beats
                                          # sequential on the parallel
                                          # families (CI smoke)
    python -m repro.bench --scenarios engines --check-batch
                                          # also assert the batched replay
                                          # protocol beats op-interleaving
                                          # in engine-sim throughput on
                                          # reduction (CI smoke)
    python -m repro.bench --no-batch      # run the engines with the
                                          # op-interleaved replay only
    python -m repro.bench --scenarios speedup \
        --trace BENCH_trace.json --metrics BENCH_metrics.json
                                          # arm the observability layer:
                                          # Perfetto-loadable timeline +
                                          # metrics snapshot (validate
                                          # with python -m repro.obs)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict

from repro._version import __version__
from repro.obs.export import ChromeTraceBuilder
from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    ingest_execution_stats,
    ingest_recording,
    metrics_registry,
)
from repro.obs.tracer import TRACER
from repro.bench.chaos import (
    CHAOS_RATES,
    CHAOS_SIZE,
    CHAOS_SMOKE_RATES,
    CHAOS_SMOKE_SIZE,
    CHAOS_STATEMENTS,
    measure_chaos,
)
from repro.bench.engines import (
    BATCH_SMOKE_FAMILIES,
    BATCH_SMOKE_SIZE,
    ENGINE_CAPACITIES,
    ENGINE_SIZE,
    ENGINE_SMOKE_SIZE,
    ENGINE_STATEMENTS,
    ENGINE_WINDOW,
    check_batch_throughput,
    measure_engine_throughput,
    measure_engines,
    verify_engines,
)
from repro.bench.harness import measure_family
from repro.bench.precision import (
    PRECISION_FUZZ,
    PRECISION_SEED,
    PRECISION_SIZE,
    PRECISION_SMOKE_FUZZ,
    PRECISION_SMOKE_SIZE,
    PRECISION_SMOKE_STATEMENTS,
    PRECISION_STATEMENTS,
    measure_precision,
)
from repro.bench.serve import (
    SERVE_MAX_INFLIGHT,
    SERVE_REQUESTS,
    SERVE_SESSIONS,
    SERVE_SIZE,
    SERVE_SMOKE_REQUESTS,
    SERVE_SMOKE_SIZE,
    SERVE_STATEMENTS,
    SERVE_WORKERS,
    check_serve,
    measure_serve,
)
from repro.bench.speedup import (
    SPEEDUP_CAPACITIES,
    SPEEDUP_PROCESSORS,
    SPEEDUP_SIZE,
    SPEEDUP_SMOKE_SIZE,
    SPEEDUP_STATEMENTS,
    SPEEDUP_WINDOWS,
    check_embarrassing_speedup,
    measure_speedups,
)
from repro.bench.workloads import (
    DEFAULT_STATEMENTS,
    FAMILIES,
    SMOKE_SIZE,
    SMOKE_STATEMENTS,
    generate_suite,
)
from repro.timing.cost import DEFAULT_COST_MODEL

LOG = get_logger("bench")

#: Scenario registry: name -> one-line description (--list-scenarios).
SCENARIOS: Dict[str, str] = {
    "families": "analyze/simulate throughput per workload family",
    "engines": "HOSE vs CASE speculative-storage pressure across "
    "buffer capacities",
    "speedup": "multiprocessor timing model: HOSE/CASE makespans and "
    "speedup vs sequential",
    "chaos": "fault injection sweep: every fault kind x rate x family "
    "x engine must recover bit-identically to sequential",
    "precision": "labeling precision vs the differential checker: "
    "idempotent labels, provable gaps, dynamic upper bound",
    "serve": "analysis daemon under concurrent sessions: requests/sec "
    "and latency percentiles against one shared cache",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Analysis & simulation throughput benchmark.",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=0,
        help="dynamic size for every family (0 = per-family default)",
    )
    parser.add_argument(
        "--statements",
        type=int,
        default=DEFAULT_STATEMENTS,
        help="unrolled statements per region body",
    )
    parser.add_argument(
        "--families",
        nargs="+",
        choices=list(FAMILIES),
        default=list(FAMILIES),
        help="workload families to run",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes and minimal repetitions (CI smoke test)",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        choices=sorted(SCENARIOS),
        default=None,
        help="scenarios to run (default: all)",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the available scenarios and exit",
    )
    parser.add_argument(
        "--no-engines",
        action="store_true",
        help="skip the HOSE/CASE speculative-storage scenario",
    )
    parser.add_argument(
        "--engine-capacities",
        type=int,
        nargs="+",
        default=list(ENGINE_CAPACITIES),
        help="speculative-buffer capacities swept by the engine scenario",
    )
    parser.add_argument(
        "--engine-window",
        type=int,
        default=ENGINE_WINDOW,
        help="in-flight segments per region in the engine scenario",
    )
    parser.add_argument(
        "--processors",
        type=int,
        nargs="+",
        default=list(SPEEDUP_PROCESSORS),
        help="processor counts swept by the speedup scenario",
    )
    parser.add_argument(
        "--speedup-windows",
        type=int,
        nargs="+",
        default=list(SPEEDUP_WINDOWS),
        help="in-flight windows swept by the speedup scenario",
    )
    parser.add_argument(
        "--speedup-capacities",
        type=int,
        nargs="+",
        default=[c for c in SPEEDUP_CAPACITIES if c is not None],
        help="speculative capacities swept by the speedup scenario "
        "(0 = unbounded)",
    )
    parser.add_argument(
        "--check-speedup",
        action="store_true",
        help="exit 1 unless HOSE on 4 processors beats the sequential "
        "cycle total on the embarrassingly-parallel families",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="run the speculative engines with op-interleaved replay "
        "only (disable the batched segment-replay protocol everywhere)",
    )
    parser.add_argument(
        "--check-batch",
        action="store_true",
        help="exit 1 unless batched replay beats op-interleaved replay "
        "in engine-sim throughput on reduction (both bit-identical to "
        "sequential); requires the engines scenario",
    )
    parser.add_argument(
        "--verify-engines",
        action="store_true",
        help="only check HOSE/CASE final-state equivalence vs the "
        "sequential interpreter (exit 1 on any divergence)",
    )
    parser.add_argument(
        "--chaos-rates",
        type=float,
        nargs="+",
        default=list(CHAOS_RATES),
        help="fault-injection rates swept by the chaos scenario",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="fault-injection seed for the chaos scenario "
        "(default: the scenario's fixed seed)",
    )
    parser.add_argument(
        "--precision-fuzz",
        type=int,
        default=PRECISION_FUZZ,
        help="fuzzed programs appended to the precision scenario's "
        "family sweep",
    )
    parser.add_argument(
        "--precision-seed",
        type=int,
        default=PRECISION_SEED,
        help="generator seed for the precision scenario's fuzz batch",
    )
    parser.add_argument(
        "--serve-sessions",
        type=int,
        default=SERVE_SESSIONS,
        help="concurrent client sessions driven by the serve scenario",
    )
    parser.add_argument(
        "--serve-requests",
        type=int,
        default=0,
        help="requests per session in the serve scenario "
        "(0 = per-mode default)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.4,
        help="minimum accumulated wall-clock per measurement",
    )
    parser.add_argument(
        "--out",
        default="BENCH_results.json",
        help="output JSON path",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="arm the span tracer and write a Chrome-trace (Perfetto) "
        "JSON timeline here (speedup runs additionally export their "
        "P-processor schedules as per-lane timelines)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="arm the metrics registry and write a "
        "repro.obs.metrics/v1 snapshot here",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational log output (warnings still shown)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log output as JSON lines instead of human text",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    configure_logging(quiet=args.quiet, json_lines=args.log_json)
    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            print(f"{name:<10} {SCENARIOS[name]}")
        return 0
    selected = set(args.scenarios) if args.scenarios else set(SCENARIOS)
    if args.no_engines:
        selected.discard("engines")
    if not selected:
        LOG.error(
            "nothing to run: the scenario selection is empty "
            "(--no-engines removed the only selected scenario)"
        )
        return 2
    if args.check_speedup and "speedup" not in selected:
        LOG.error("--check-speedup requires the speedup scenario")
        return 2
    if args.check_speedup and 4 not in args.processors:
        LOG.error("--check-speedup requires 4 in --processors")
        return 2
    if args.check_speedup and args.verify_engines:
        LOG.error(
            "--verify-engines runs the equivalence check only and never "
            "reaches the speedup scenario; drop one of the two flags"
        )
        return 2
    if args.check_batch and args.no_batch:
        LOG.error("--check-batch and --no-batch are mutually exclusive")
        return 2
    if args.check_batch and "engines" not in selected:
        LOG.error("--check-batch requires the engines scenario")
        return 2
    if args.check_batch and "reduction" not in args.families:
        LOG.error("--check-batch requires reduction in --families")
        return 2
    if args.check_batch and args.verify_engines:
        LOG.error(
            "--verify-engines runs the equivalence check only and never "
            "reaches the engine throughput sweep; drop one of the two "
            "flags"
        )
        return 2
    batch = not args.no_batch

    # Observability is armed only when an artifact was asked for, so
    # the default bench run measures the disabled fast path (this is
    # the run the <= 2% overhead gate compares against the seed).
    registry = metrics_registry()
    if args.trace:
        TRACER.reset()
        TRACER.enable()
    if args.metrics:
        registry.reset()
        registry.enable()
    trace_builder = ChromeTraceBuilder() if args.trace else None

    if args.verify_engines:
        verify_size = args.size if args.size else ENGINE_SMOKE_SIZE
        verify_statements = (
            SMOKE_STATEMENTS if args.smoke else min(args.statements, 4)
        )
        windows = tuple(sorted({1, args.engine_window}))
        LOG.info(
            f"engine equivalence: HOSE/CASE vs sequential "
            f"(size={verify_size}, statements={verify_statements}, "
            f"windows={list(windows)}, "
            f"capacities={args.engine_capacities}) ..."
        )
        failures = verify_engines(
            size=verify_size,
            statements=verify_statements,
            families=tuple(args.families),
            windows=windows,
            capacities=tuple(args.engine_capacities),
            batch_modes=(False,) if args.no_batch else (False, True),
        )
        for failure in failures:
            LOG.error(f"FAIL {failure}")
        if failures:
            return 1
        LOG.info("engine equivalence OK (all final states bit-identical)")
        return 0

    # An explicit --size uniformly overrides every scenario's default
    # (smoke or full); 0 keeps the per-scenario defaults.
    size = args.size if args.size else (SMOKE_SIZE if args.smoke else 0)
    statements = SMOKE_STATEMENTS if args.smoke else args.statements
    min_seconds = 0.02 if args.smoke else args.min_seconds

    families: Dict[str, Dict] = {}
    t_start = time.perf_counter()
    if "families" in selected:
        suite = generate_suite(
            size=size, statements=statements, families=tuple(args.families)
        )
        with TRACER.span("bench.scenario", category="bench", scenario="families"):
            for workload in suite:
                LOG.info(
                    f"{workload.family:<10} (size={workload.size}, "
                    f"statements={workload.statements}) ..."
                )
                families[workload.family] = measure_family(
                    workload, min_seconds=min_seconds
                ).as_dict()

    engines_section = None
    if "engines" in selected:
        engine_size = args.size if args.size else (
            ENGINE_SMOKE_SIZE if args.smoke else ENGINE_SIZE
        )
        engine_statements = (
            SMOKE_STATEMENTS if args.smoke else ENGINE_STATEMENTS
        )
        LOG.info(
            f"engines: HOSE vs CASE "
            f"(size={engine_size}, statements={engine_statements}, "
            f"window={args.engine_window}, "
            f"capacities={args.engine_capacities}, "
            f"batch={batch}) ..."
        )
        with TRACER.span("bench.scenario", category="bench", scenario="engines"):
            engines_section = {
                "size": engine_size,
                "statements": engine_statements,
                "window": args.engine_window,
                "capacities": list(args.engine_capacities),
                "batch": batch,
                "families": measure_engines(
                    size=engine_size,
                    statements=engine_statements,
                    families=tuple(args.families),
                    capacities=tuple(args.engine_capacities),
                    window=args.engine_window,
                    batch=batch,
                ),
            }
        if batch:
            # Batched vs op-interleaved replay throughput.  The smoke
            # sweep sticks to the family/size the --check-batch gate
            # needs (tiny sizes make the comparison timing-noisy); the
            # full sweep runs every selected family at the per-family
            # DEFAULT_SIZES (size=0 sentinel) unless --size overrides.
            if args.smoke:
                throughput_families = tuple(
                    f for f in args.families if f in BATCH_SMOKE_FAMILIES
                )
                throughput_size = args.size if args.size else BATCH_SMOKE_SIZE
            else:
                throughput_families = tuple(args.families)
                throughput_size = args.size
            if throughput_families:
                LOG.info(
                    f"engines: batched vs interleaved replay throughput "
                    f"(families={list(throughput_families)}, "
                    f"size={throughput_size or 'default'}, "
                    f"window={args.engine_window}) ..."
                )
                with TRACER.span(
                    "bench.scenario",
                    category="bench",
                    scenario="engine-throughput",
                ):
                    engines_section["throughput"] = measure_engine_throughput(
                        families=throughput_families,
                        size=throughput_size,
                        window=args.engine_window,
                    )

    speedup_section = None
    if "speedup" in selected:
        speedup_size = args.size if args.size else (
            SPEEDUP_SMOKE_SIZE if args.smoke else SPEEDUP_SIZE
        )
        speedup_statements = (
            SMOKE_STATEMENTS if args.smoke else SPEEDUP_STATEMENTS
        )
        capacities = [c if c else None for c in args.speedup_capacities]
        windows = list(args.speedup_windows)
        LOG.info(
            f"speedup: HOSE/CASE makespans "
            f"(size={speedup_size}, statements={speedup_statements}, "
            f"processors={args.processors}, windows={windows}, "
            f"capacities={capacities}) ..."
        )

        # The speedup scenario is where the Perfetto timeline comes
        # from: every engine run hands its recording + makespans to
        # this observer, which lays the P-processor schedule out as
        # per-lane slices and folds the telemetry into the registry.
        schedule_p = 4 if 4 in args.processors else max(args.processors)
        export_window = max(windows)
        observing = trace_builder is not None or registry.collecting

        def speedup_observer(
            *, workload, engine, window, capacity, recording, stats, makespans
        ):
            if registry.collecting:
                ingest_recording(recording, registry=registry)
                ingest_execution_stats(stats, registry=registry)
            if trace_builder is not None and window == export_window:
                makespan = makespans.get(schedule_p)
                if makespan is not None:
                    cap = "inf" if capacity is None else capacity
                    trace_builder.add_schedule(
                        makespan,
                        label=(
                            f"{engine} {workload.family} "
                            f"P={schedule_p} w={window} c={cap}"
                        ),
                    )

        with TRACER.span("bench.scenario", category="bench", scenario="speedup"):
            speedup_section = {
                "size": speedup_size,
                "statements": speedup_statements,
                "processors": list(args.processors),
                "windows": windows,
                "capacities": capacities,
                "cost_model": DEFAULT_COST_MODEL.as_dict(),
                "batch": batch,
                "families": measure_speedups(
                    size=speedup_size,
                    statements=speedup_statements,
                    families=tuple(args.families),
                    processors=tuple(args.processors),
                    windows=tuple(windows),
                    capacities=tuple(capacities),
                    cost=DEFAULT_COST_MODEL,
                    observer=speedup_observer if observing else None,
                    batch=batch,
                ),
            }

    chaos_section = None
    if "chaos" in selected:
        chaos_size = args.size if args.size else (
            CHAOS_SMOKE_SIZE if args.smoke else CHAOS_SIZE
        )
        chaos_rates = (
            list(CHAOS_SMOKE_RATES) if args.smoke else list(args.chaos_rates)
        )
        LOG.info(
            f"chaos: fault injection sweep "
            f"(size={chaos_size}, statements={CHAOS_STATEMENTS}, "
            f"rates={chaos_rates}) ..."
        )
        chaos_kwargs = {}
        if args.chaos_seed is not None:
            chaos_kwargs["seed"] = args.chaos_seed
        with TRACER.span("bench.scenario", category="bench", scenario="chaos"):
            chaos_section = measure_chaos(
                size=chaos_size,
                statements=CHAOS_STATEMENTS,
                families=tuple(args.families),
                rates=tuple(chaos_rates),
                batch=batch,
                **chaos_kwargs,
            )

    precision_section = None
    if "precision" in selected:
        precision_size = args.size if args.size else (
            PRECISION_SMOKE_SIZE if args.smoke else PRECISION_SIZE
        )
        precision_statements = (
            PRECISION_SMOKE_STATEMENTS if args.smoke else PRECISION_STATEMENTS
        )
        precision_fuzz = (
            PRECISION_SMOKE_FUZZ if args.smoke else args.precision_fuzz
        )
        LOG.info(
            f"precision: labels vs differential checker "
            f"(size={precision_size}, statements={precision_statements}, "
            f"fuzz={precision_fuzz}, seed={args.precision_seed}) ..."
        )
        with TRACER.span(
            "bench.scenario", category="bench", scenario="precision"
        ):
            precision_section = measure_precision(
                size=precision_size,
                statements=precision_statements,
                families=tuple(args.families),
                fuzz=precision_fuzz,
                seed=args.precision_seed,
            )

    serve_section = None
    if "serve" in selected:
        serve_size = args.size if args.size else (
            SERVE_SMOKE_SIZE if args.smoke else SERVE_SIZE
        )
        serve_requests = args.serve_requests if args.serve_requests else (
            SERVE_SMOKE_REQUESTS if args.smoke else SERVE_REQUESTS
        )
        LOG.info(
            f"serve: daemon under concurrent load "
            f"(sessions={args.serve_sessions}, "
            f"requests/session={serve_requests}, size={serve_size}, "
            f"workers={SERVE_WORKERS}, "
            f"max_inflight={SERVE_MAX_INFLIGHT}) ..."
        )
        with TRACER.span("bench.scenario", category="bench", scenario="serve"):
            serve_section = measure_serve(
                sessions=args.serve_sessions,
                requests_per_session=serve_requests,
                size=serve_size,
                statements=SERVE_STATEMENTS,
            )

    report = {
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "size": size,
            "statements": statements,
            "smoke": args.smoke,
            "scenarios": sorted(selected),
            "wall_seconds": round(time.perf_counter() - t_start, 2),
        },
        "families": families,
    }
    if engines_section is not None:
        report["engines"] = engines_section
    if speedup_section is not None:
        report["speedup"] = speedup_section
    if chaos_section is not None:
        report["chaos"] = chaos_section
    if precision_section is not None:
        report["precision"] = precision_section
    if serve_section is not None:
        report["serve"] = serve_section

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    LOG.info(f"wrote {args.out}")

    artifact_meta = {
        "version": __version__,
        "scenarios": sorted(selected),
        "smoke": args.smoke,
        "source": "python -m repro.bench",
    }
    if trace_builder is not None:
        trace_builder.add_spans(TRACER.finished_spans(), TRACER.events())
        trace_builder.write(args.trace, meta=artifact_meta)
        LOG.info(
            f"wrote {args.trace} "
            f"(open at https://ui.perfetto.dev or chrome://tracing)"
        )
    if args.metrics:
        snapshot = registry.snapshot(meta=artifact_meta)
        with open(args.metrics, "w") as handle:
            json.dump(snapshot, handle, indent=1, sort_keys=True)
            handle.write("\n")
        LOG.info(f"wrote {args.metrics}")

    for family, r in families.items():
        LOG.info(
            f"{family:<10}  analyze={r['analyze_refs_per_s']:,.0f} refs/s"
            f"  simulate={r['simulate_ops_per_s']:,.0f} ops/s"
        )
    if engines_section is not None:
        mismatches = 0
        for family, entry in engines_section["families"].items():
            for capacity, row in entry["capacities"].items():
                hose, case = row["hose"], row["case"]
                for side in (hose, case):
                    if not side["matches_sequential"]:
                        mismatches += 1
                LOG.info(
                    f"{family:<10} cap={capacity:>4}  "
                    f"commit: hose={hose['commit_entries']:>6} "
                    f"case={case['commit_entries']:>6}  "
                    f"peak: hose={hose['spec_peak_entries']:>5} "
                    f"case={case['spec_peak_entries']:>5}  "
                    f"stalls: hose={hose['overflow_stalls']:>4} "
                    f"case={case['overflow_stalls']:>4}"
                )
        throughput = engines_section.get("throughput")
        if throughput is not None:
            for family, row in throughput["families"].items():
                for side in ("interleaved", "batched"):
                    if not row[side]["matches_sequential"]:
                        mismatches += 1
                LOG.info(
                    f"{family:<10} size={row['size']:>5}  throughput: "
                    f"interleaved="
                    f"{row['interleaved']['ops_per_s']:>10,.0f} ops/s  "
                    f"batched={row['batched']['ops_per_s']:>10,.0f} ops/s  "
                    f"speedup={row['speedup']}x"
                )
            LOG.info(
                f"batched replay speedup geomean: "
                f"{throughput['speedup_geomean']}x"
            )
        if mismatches:
            LOG.warning(
                f"{mismatches} engine runs diverged from "
                f"the sequential interpreter"
            )
            return 1
        if args.check_batch:
            failures = check_batch_throughput(throughput)
            for failure in failures:
                LOG.error(f"FAIL {failure}")
            if failures:
                return 1
            LOG.info(
                "batch check OK (batched replay beats op-interleaved "
                "replay on reduction, both bit-identical to sequential)"
            )
    if speedup_section is not None:
        mismatches = 0
        top = str(max(args.processors))
        for family, entry in speedup_section["families"].items():
            for side in ("hose", "case"):
                for row in entry["configs"].values():
                    if not row[side]["matches_sequential"]:
                        mismatches += 1
            LOG.info(
                f"{family:<10} sequential={entry['sequential_cycles']:>8} "
                f"best speedup @P={top}: "
                f"hose={entry['best_hose_speedup']}x "
                f"case={entry['best_case_speedup']}x"
            )
        if mismatches:
            LOG.warning(
                f"{mismatches} speedup-scenario runs "
                f"diverged from the sequential interpreter"
            )
            return 1
        if args.check_speedup:
            failures = check_embarrassing_speedup(speedup_section, processors=4)
            for failure in failures:
                LOG.error(f"FAIL {failure}")
            if failures:
                return 1
            LOG.info(
                "speedup check OK (HOSE on 4 processors beats "
                "sequential on the embarrassingly-parallel families)"
            )
    if chaos_section is not None:
        for name, entry in chaos_section["programs"].items():
            injected = 0
            degraded = 0
            runs = 0
            for per_kind in entry["faults"].values():
                for per_rate in per_kind.values():
                    for row in per_rate.values():
                        runs += 1
                        injected += row["total_injected"]
                        degraded += 1 if row["degraded"] else 0
            audits = sum(
                side["audits"] for side in entry["baseline"].values()
            )
            LOG.info(
                f"{name:<10} chaos: {runs} runs, "
                f"{injected} faults injected, {degraded} degraded, "
                f"{audits} fault-free audits"
            )
        if chaos_section["unrecovered"]:
            for failure in chaos_section["unrecovered"]:
                LOG.error(f"FAIL {failure}")
            LOG.warning(
                f"{len(chaos_section['unrecovered'])} "
                f"chaos runs did not recover to the sequential state"
            )
            return 1
        LOG.info(
            "chaos check OK (every faulted run recovered "
            "bit-identically to sequential)"
        )
    if precision_section is not None:
        rows = dict(precision_section["families"])
        rows["fuzzed"] = precision_section["fuzzed"]
        for name, entry in rows.items():
            pct = entry["precision_percent"]
            LOG.info(
                f"{name:<10} precision: "
                f"{entry['idempotent_labels']:>5} idempotent, "
                f"{entry['production_conservative']:>3} provably "
                f"conservative, "
                f"{entry['dynamically_clean_speculative']:>4} dynamically "
                f"clean  "
                f"({pct if pct is not None else '-'}%)"
            )
        totals = precision_section["totals"]
        if totals["unsound"] or totals["suspect"]:
            LOG.warning(
                f"checker found {totals['unsound']} "
                f"unsound and {totals['suspect']} suspect labels"
            )
            return 1
        LOG.info(
            f"precision check OK (0 unsound labels; overall "
            f"{totals['precision_percent']}% of provably-idempotent "
            f"references labeled)"
        )
    if serve_section is not None:
        latency = serve_section["latency_ms"]
        LOG.info(
            f"serve: {serve_section['sessions']} sessions x "
            f"{serve_section['requests_per_session']} requests  "
            f"{serve_section['requests_per_second']:,.1f} req/s  "
            f"p50={latency['p50']}ms p95={latency['p95']}ms  "
            f"warm hits={serve_section['warm_hits']}  "
            f"errors={serve_section['errors']}"
        )
        failures = check_serve(serve_section)
        for failure in failures:
            LOG.error(f"FAIL {failure}")
        if failures:
            return 1
        LOG.info(
            "serve check OK (all sessions served, shared cache warm, "
            "every simulate bit-identical to sequential)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
