"""Benchmark entry point: ``python -m repro.bench``.

Three scenarios, all selected by default (``--scenarios`` narrows the
run, ``--list-scenarios`` enumerates them).  Each is a gate for what the
``perfbench`` daemon workloads do not cover:

``engines``
    HOSE vs CASE speculative-storage pressure across buffer capacities,
    every run checked bit-for-bit against the sequential interpreter
    (the ``engines`` key of the report), plus batched vs op-interleaved
    replay throughput (``--check-batch`` gates it).

``speedup``
    The multiprocessor timing model: HOSE/CASE makespans and
    speedup-vs-sequential across processors x window x capacity (the
    ``speedup`` key; ``--check-speedup`` gates it; see
    ``docs/PERFORMANCE.md`` section 5).

``chaos``
    The robustness sweep: every fault kind of ``repro.resilience``
    injected at each swept rate into every workload family (plus a
    branchy explicit-region program) on both engines, asserting that
    each run recovers -- in place or by graceful degradation -- to a
    final state bit-identical to the sequential interpreter (the
    ``chaos`` key; exit 1 on any unrecovered run; see
    ``docs/ROBUSTNESS.md``).

The scenarios run the op-stepped executor, whose violations and
overflow stalls are the model's dynamics; the throughput row and
``--verify-engines`` also run the batched segment replay.

Common invocations::

    python -m repro.bench                 # full run, all scenarios
    python -m repro.bench --smoke --check-batch --check-speedup
                                          # tiny sizes plus both gates
                                          # (the CI step)
    python -m repro.bench --scenarios speedup   # one scenario only
    python -m repro.bench --list-scenarios
    python -m repro.bench --verify-engines  # equivalence check only:
                                          # HOSE/CASE final state vs
                                          # sequential, exit 1 on drift
    python -m repro.bench --scenarios speedup --check-speedup
                                          # also assert HOSE on P=4 beats
                                          # sequential on the parallel
                                          # families and CASE doubles
                                          # HOSE's speedup at capacity 8
    python -m repro.bench --scenarios engines --check-batch
                                          # also assert the batched replay
                                          # protocol beats op-interleaving
                                          # in engine-sim throughput on
                                          # reduction
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
    VERIFY_STATEMENTS,
    check_batch_throughput,
    measure_engine_throughput,
    measure_engines,
    verify_engines,
)
from repro.bench.speedup import (
    SPEEDUP_CAPACITIES,
    SPEEDUP_PROCESSORS,
    SPEEDUP_SIZE,
    SPEEDUP_SMOKE_SIZE,
    SPEEDUP_STATEMENTS,
    SPEEDUP_WINDOWS,
    check_embarrassing_speedup,
    check_overflow_speedup,
    measure_speedups,
)
from repro.bench.workloads import FAMILIES, SMOKE_STATEMENTS
from repro.timing.cost import DEFAULT_COST_MODEL

LOG = get_logger("bench")

#: Scenario registry: name -> one-line description (--list-scenarios).
SCENARIOS: Dict[str, str] = {
    "engines": "HOSE vs CASE speculative-storage pressure across "
    "buffer capacities",
    "speedup": "multiprocessor timing model: HOSE/CASE makespans and "
    "speedup vs sequential",
    "chaos": "fault injection sweep: every fault kind x rate x family "
    "x engine must recover bit-identically to sequential",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="HOSE/CASE engine, speedup and chaos gates.",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=0,
        help="dynamic size for every family (0 = each scenario's default)",
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
        "--engine-capacities",
        type=int,
        nargs="+",
        default=list(ENGINE_CAPACITIES),
        help="speculative-buffer capacities swept by the engine scenario",
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
        "cycle total on the embarrassingly-parallel families, and CASE's "
        "speedup on reduction at capacity 8 is at least twice HOSE's",
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

    # Observability is armed only when an artifact was asked for, so
    # the default bench run measures the disabled fast path.
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
            SMOKE_STATEMENTS if args.smoke else VERIFY_STATEMENTS
        )
        windows = (1, ENGINE_WINDOW)
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
        )
        for failure in failures:
            LOG.error(f"FAIL {failure}")
        if failures:
            return 1
        LOG.info("engine equivalence OK (all final states bit-identical)")
        return 0

    t_start = time.perf_counter()
    # An explicit --size uniformly overrides every scenario's default
    # (smoke or full); 0 keeps the per-scenario defaults.
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
            f"window={ENGINE_WINDOW}, "
            f"capacities={args.engine_capacities}) ..."
        )
        with TRACER.span("bench.scenario", category="bench", scenario="engines"):
            engines_section = {
                "size": engine_size,
                "statements": engine_statements,
                "window": ENGINE_WINDOW,
                "capacities": list(args.engine_capacities),
                "families": measure_engines(
                    size=engine_size,
                    statements=engine_statements,
                    families=tuple(args.families),
                    capacities=tuple(args.engine_capacities),
                    window=ENGINE_WINDOW,
                ),
            }
        # Batched vs op-interleaved replay throughput.  The smoke sweep
        # sticks to the family/size the --check-batch gate needs (tiny
        # sizes make the comparison timing-noisy); the full sweep runs
        # every selected family at the per-family DEFAULT_SIZES (size=0
        # sentinel) unless --size overrides.
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
                f"window={ENGINE_WINDOW}) ..."
            )
            with TRACER.span(
                "bench.scenario",
                category="bench",
                scenario="engine-throughput",
            ):
                engines_section["throughput"] = measure_engine_throughput(
                    families=throughput_families,
                    size=throughput_size,
                    window=ENGINE_WINDOW,
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
                "families": measure_speedups(
                    size=speedup_size,
                    statements=speedup_statements,
                    families=tuple(args.families),
                    processors=tuple(args.processors),
                    windows=tuple(windows),
                    capacities=tuple(capacities),
                    cost=DEFAULT_COST_MODEL,
                    observer=speedup_observer if observing else None,
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
        with TRACER.span("bench.scenario", category="bench", scenario="chaos"):
            chaos_section = measure_chaos(
                size=chaos_size,
                statements=CHAOS_STATEMENTS,
                families=tuple(args.families),
                rates=tuple(chaos_rates),
            )

    report = {
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "size": args.size,
            "smoke": args.smoke,
            "scenarios": sorted(selected),
            "wall_seconds": round(time.perf_counter() - t_start, 2),
        },
    }
    if engines_section is not None:
        report["engines"] = engines_section
    if speedup_section is not None:
        report["speedup"] = speedup_section
    if chaos_section is not None:
        report["chaos"] = chaos_section

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
            failures = check_embarrassing_speedup(
                speedup_section, processors=4
            ) + check_overflow_speedup(speedup_section, processors=4)
            for failure in failures:
                LOG.error(f"FAIL {failure}")
            if failures:
                return 1
            LOG.info(
                "speedup check OK (HOSE on 4 processors beats "
                "sequential on the embarrassingly-parallel families; CASE "
                "at least doubles HOSE's speedup where HOSE overflows)"
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
