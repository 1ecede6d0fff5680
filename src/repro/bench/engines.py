"""HOSE vs CASE speculative-storage scenario (the paper's headline).

For every workload family, run the hardware-only engine (HOSE) and the
compiler-assisted engine (CASE) over a sweep of speculative-storage
capacities and report the pressure metrics the paper's evaluation is
about: entries committed from speculative storage, occupancy high-water
marks, overflow stalls, violations and rollbacks.  CASE consumes the
idempotency labels of Algorithm 2, so idempotent references never
occupy buffer entries -- the expected shape is CASE at or below HOSE on
every storage metric, with the gap widening as the idempotent fraction
grows.

Every engine run is checked bit-for-bit against the sequential
interpreter (``matches_sequential``); a mismatch in the report is a
correctness bug, not noise.  :func:`verify_engines` packages that check
as a standalone pass for CI.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.bench.workloads import DEFAULT_SIZES, FAMILIES, Workload, generate
from repro.runtime.engines import CASEEngine, HOSEEngine, SpeculativeResult
from repro.runtime.interpreter import run_program

#: Per-segment buffer capacities swept by the scenario.
ENGINE_CAPACITIES: Tuple[int, ...] = (4, 16, 64)
#: Dynamic size of the engine workloads.  The engines simulate an
#: age-ordered round-robin op interleave in pure Python, so the
#: scenario uses smaller programs than the throughput measurements.
ENGINE_SIZE = 24
ENGINE_SMOKE_SIZE = 10
ENGINE_STATEMENTS = 3
ENGINE_WINDOW = 4
#: Throughput comparison (batched vs op-interleaved replay).  The
#: batched protocol makes the full workload sizes tractable for the
#: engines, so the full sweep runs at ``DEFAULT_SIZES``; the smoke
#: sweep sticks to the families/sizes the ``--check-batch`` gate needs.
BATCH_THROUGHPUT_CAPACITY = 64
BATCH_SMOKE_SIZE = 512
BATCH_SMOKE_FAMILIES: Tuple[str, ...] = ("reduction",)


def _engine_row(result: SpeculativeResult, matches: bool) -> Dict:
    stats = result.stats
    return {
        "commit_entries": stats.commit_entries,
        "spec_peak_entries": result.spec_peak_entries,
        "spec_peak_segment_entries": result.spec_peak_segment_entries,
        "overflow_stalls": stats.overflow_stalls,
        "overflow_entries": stats.overflow_entries,
        "violations": stats.violations,
        "rollbacks": stats.rollbacks,
        "wasted_cycles": stats.wasted_cycles,
        "speculative_accesses": stats.speculative_accesses,
        "idempotent_accesses": stats.idempotent_accesses,
        "private_accesses": stats.private_accesses,
        "segments_committed": stats.segments_committed,
        "batched_attempts": stats.batched_attempts,
        "batch_fallbacks": stats.batch_fallbacks,
        "batch_violations": stats.batch_violations,
        "matches_sequential": matches,
    }


def measure_engine_family(
    workload: Workload,
    capacities: Sequence[int] = ENGINE_CAPACITIES,
    window: int = ENGINE_WINDOW,
    batch: bool = True,
) -> Dict:
    """HOSE vs CASE storage pressure for one workload, per capacity."""
    sequential = run_program(workload.program)
    entry: Dict = {
        "family": workload.family,
        "size": workload.size,
        "statements": workload.statements,
        "window": window,
        "capacities": {},
    }
    # Labels do not depend on the buffer capacity; one shared cache
    # labels the program once and every CASE run reuses the result.
    analysis_cache = AnalysisCache()
    for capacity in capacities:
        row: Dict[str, Dict] = {}
        for name, engine_cls in (("hose", HOSEEngine), ("case", CASEEngine)):
            kwargs = {"window": window, "capacity": capacity, "batch": batch}
            if engine_cls is CASEEngine:
                kwargs["cache"] = analysis_cache
            result = engine_cls(workload.program, **kwargs).run()
            # A degraded run re-executed sequentially, so its memory
            # trivially matches -- flag it, it means the speculative
            # engine itself failed.
            matches = not result.degraded and not sequential.memory.differences(
                result.memory, tolerance=0.0
            )
            row[name] = _engine_row(result, matches)
        row["case_vs_hose_commit_entries"] = (
            row["case"]["commit_entries"] - row["hose"]["commit_entries"]
        )
        entry["capacities"][str(capacity)] = row
    return entry


def measure_engines(
    size: int = ENGINE_SIZE,
    statements: int = ENGINE_STATEMENTS,
    families: Sequence[str] = FAMILIES,
    capacities: Sequence[int] = ENGINE_CAPACITIES,
    window: int = ENGINE_WINDOW,
    batch: bool = True,
) -> Dict[str, Dict]:
    """The whole scenario: every family, every capacity."""
    return {
        family: measure_engine_family(
            generate(family, size, statements),
            capacities=capacities,
            window=window,
            batch=batch,
        )
        for family in families
    }


def measure_engine_throughput(
    families: Sequence[str] = FAMILIES,
    size: int = 0,
    window: int = ENGINE_WINDOW,
    capacity: Optional[int] = BATCH_THROUGHPUT_CAPACITY,
    engine: str = "case",
) -> Dict:
    """Engine-simulation throughput: batched vs op-interleaved replay.

    Runs each family once per mode on one engine and reports simulated
    memory operations per wall-clock second plus the batched/interleaved
    speedup (and its geometric mean over the swept families).  Every run
    is checked bit-for-bit against the sequential interpreter.
    ``size=0`` uses the per-family ``DEFAULT_SIZES`` -- the scale the
    op-interleaved engines could never afford, which is the point of the
    batched protocol.
    """
    engine_cls = {"hose": HOSEEngine, "case": CASEEngine}[engine]
    section: Dict = {
        "engine": engine,
        "window": window,
        "capacity": capacity,
        "families": {},
    }
    ratios: List[float] = []
    for family in families:
        family_size = size if size else DEFAULT_SIZES[family]
        workload = generate(family, family_size)
        sequential = run_program(workload.program)
        analysis_cache = AnalysisCache()
        row: Dict = {"size": family_size}
        for label, batch in (("interleaved", False), ("batched", True)):
            kwargs = {"window": window, "capacity": capacity, "batch": batch}
            if engine_cls is CASEEngine:
                kwargs["cache"] = analysis_cache
            started = time.perf_counter()
            result = engine_cls(workload.program, **kwargs).run()
            seconds = time.perf_counter() - started
            stats = result.stats
            ops = stats.reads + stats.writes
            matches = not result.degraded and not sequential.memory.differences(
                result.memory, tolerance=0.0
            )
            side = {
                "ops": ops,
                "seconds": round(seconds, 4),
                "ops_per_s": round(ops / seconds, 1) if seconds > 0 else 0.0,
                "matches_sequential": matches,
            }
            if batch:
                side["batched_attempts"] = stats.batched_attempts
                side["batched_ops"] = stats.batched_ops
                side["batch_fallbacks"] = stats.batch_fallbacks
                side["batch_violations"] = stats.batch_violations
            row[label] = side
        speedup = row["batched"]["ops_per_s"] / max(
            row["interleaved"]["ops_per_s"], 1e-9
        )
        row["speedup"] = round(speedup, 2)
        ratios.append(max(speedup, 1e-9))
        section["families"][family] = row
    if ratios:
        section["speedup_geomean"] = round(
            math.exp(sum(map(math.log, ratios)) / len(ratios)), 2
        )
    return section


def check_batch_throughput(section: Optional[Dict]) -> List[str]:
    """CI invariant for ``--check-batch``: on ``reduction`` the batched
    engine must beat the op-interleaved one in simulated ops/s, and both
    modes must match the sequential interpreter bit for bit."""
    families = (section or {}).get("families", {})
    row = families.get("reduction")
    if row is None:
        return [
            "the batch-throughput check needs the reduction family in "
            "the engine throughput sweep (run without --families "
            "filters that exclude it, and without --no-batch)"
        ]
    failures: List[str] = []
    for label in ("interleaved", "batched"):
        if not row[label]["matches_sequential"]:
            failures.append(
                f"reduction: {label} engine run diverged from the "
                f"sequential interpreter"
            )
    batched = row["batched"]["ops_per_s"]
    interleaved = row["interleaved"]["ops_per_s"]
    if batched <= interleaved:
        failures.append(
            f"reduction: batched engine throughput {batched:,.0f} ops/s "
            f"does not beat interleaved {interleaved:,.0f} ops/s"
        )
    return failures


def verify_engines(
    size: int = ENGINE_SMOKE_SIZE,
    statements: int = 2,
    families: Sequence[str] = FAMILIES,
    windows: Sequence[int] = (1, ENGINE_WINDOW),
    capacities: Sequence[Optional[int]] = (4, 64),
    batch_modes: Sequence[bool] = (False, True),
) -> List[str]:
    """Engine-equivalence check: HOSE/CASE final state vs sequential.

    Returns a list of human-readable failure descriptions (empty =
    everything bit-identical).  Used by ``python -m repro.bench
    --verify-engines`` and the CI smoke step.  ``batch_modes`` sweeps
    the replay protocol too, so the batched path is held to the same
    equivalence bar as the op-interleaved one.
    """
    failures: List[str] = []
    for family in families:
        workload = generate(family, size, statements)
        sequential = run_program(workload.program)
        analysis_cache = AnalysisCache()
        for engine_cls in (HOSEEngine, CASEEngine):
            for window in windows:
                for capacity in capacities:
                    for batch in batch_modes:
                        kwargs = {
                            "window": window,
                            "capacity": capacity,
                            "batch": batch,
                        }
                        if engine_cls is CASEEngine:
                            kwargs["cache"] = analysis_cache
                        result = engine_cls(workload.program, **kwargs).run()
                        mode = "batched" if batch else "interleaved"
                        if result.degraded:
                            report = result.degradation
                            failures.append(
                                f"{family}: {engine_cls.engine_name} "
                                f"(window={window}, capacity={capacity}, "
                                f"{mode}) degraded to sequential execution "
                                f"({report.error_type}: {report.reason})"
                            )
                            continue
                        diffs = sequential.memory.differences(
                            result.memory, tolerance=0.0
                        )
                        if diffs:
                            sample = sorted(diffs.items())[:3]
                            failures.append(
                                f"{family}: {engine_cls.engine_name} "
                                f"(window={window}, capacity={capacity}, "
                                f"{mode}) diverges from sequential at "
                                f"{len(diffs)} addresses, e.g. {sample}"
                            )
    return failures
