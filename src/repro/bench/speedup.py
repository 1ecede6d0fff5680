"""Speedup scenario: HOSE/CASE parallel makespan vs sequential time.

The paper's evaluation is ultimately about *speedup*: how speculative
execution performs relative to sequential runs, not just how much
speculative storage it needs.  For every workload family this scenario

1. prices one sequential execution with the timing cost model
   (:func:`repro.timing.makespan.sequential_baseline`) -- the baseline;
2. runs HOSE and CASE once per (window, capacity) configuration with a
   :class:`~repro.timing.events.TimingRecorder` attached (each run
   checked bit-for-bit against the sequential interpreter);
3. schedules every recording onto each processor count in
   ``processors`` (the engine op stream does not depend on P, so one
   recording yields the whole processor sweep) and reports makespan,
   speedup-vs-sequential and the busy / wasted / stall / idle split.

The expected shape mirrors the storage scenario in the time domain:
``reduction`` is embarrassingly parallel, so HOSE scales until its
buffers overflow -- at tight capacities every segment stalls until it
is the oldest and the run serializes -- while CASE's labels route the
same references around speculative storage and keep scaling;
``stencil`` / ``sparse`` / ``guarded`` pay real violation rollbacks.
:func:`check_embarrassing_speedup` packages the headline invariant
(best HOSE makespan on 4 processors strictly below the sequential cycle
total on ``reduction``) for the CI smoke step, and
:func:`check_overflow_speedup` the paper's claim in time (CASE at least
twice HOSE's speedup on ``reduction`` where HOSE overflows).  The runs
are op-stepped: batched attempts never overflow partway through.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.bench.workloads import FAMILIES, Workload, generate
from repro.runtime.engines import CASEEngine, HOSEEngine
from repro.runtime.interpreter import SequentialInterpreter
from repro.timing.cost import CostModel
from repro.timing.events import TimingRecorder
from repro.timing.makespan import compute_makespan, sequential_baseline

#: Processor counts of the makespan sweep.
SPEEDUP_PROCESSORS: Tuple[int, ...] = (1, 2, 4, 8)
#: In-flight windows swept (crossed with capacities).
SPEEDUP_WINDOWS: Tuple[int, ...] = (4, 8)
#: A deliberately tight capacity: it overflows HOSE on every family
#: (read access info counts against capacity) and shows the labels'
#: effect on *time*, not just storage.
OVERFLOW_CAPACITY = 8
#: How many times HOSE's speedup CASE must reach there on ``reduction``.
OVERFLOW_SPEEDUP_RATIO = 2.0
#: Per-segment speculative capacities swept.
SPEEDUP_CAPACITIES: Tuple[Optional[int], ...] = (OVERFLOW_CAPACITY, 64)
#: Workload shape (the engines interleave ops in pure Python, so the
#: scenario uses the engine-bench sizes, not the throughput sizes).
SPEEDUP_SIZE = 20
SPEEDUP_SMOKE_SIZE = 10
SPEEDUP_STATEMENTS = 3

#: Families with no cross-segment dependences: speculation must win.
EMBARRASSINGLY_PARALLEL: Tuple[str, ...] = ("reduction",)


def _config_key(window: int, capacity: Optional[int]) -> str:
    return f"w{window}_c{'inf' if capacity is None else capacity}"


def measure_speedup_family(
    workload: Workload,
    processors: Sequence[int] = SPEEDUP_PROCESSORS,
    windows: Sequence[int] = SPEEDUP_WINDOWS,
    capacities: Sequence[Optional[int]] = SPEEDUP_CAPACITIES,
    cost: Optional[CostModel] = None,
    observer: Optional[Callable[..., None]] = None,
) -> Dict:
    """Makespans and speedups of one workload, per configuration.

    ``observer`` (when given) is called once per engine run with the
    raw telemetry -- ``observer(workload=..., engine=..., window=...,
    capacity=..., recording=..., makespans={P: MakespanResult})`` -- so
    the bench CLI can export Perfetto timelines and metrics without
    this scenario knowing anything about the exporter.
    """
    cost = cost or CostModel()
    sequential = SequentialInterpreter(workload.program).run()
    baseline = sequential_baseline(sequential.stats, cost)
    analysis_cache = AnalysisCache()
    entry: Dict = {
        "family": workload.family,
        "size": workload.size,
        "statements": workload.statements,
        "sequential_cycles": baseline,
        "configs": {},
    }
    for window in windows:
        for capacity in capacities:
            row: Dict[str, Dict] = {
                "window": window,
                "capacity": capacity,
            }
            for name, engine_cls in (("hose", HOSEEngine), ("case", CASEEngine)):
                recorder = TimingRecorder(cost)
                kwargs = {
                    "window": window,
                    "capacity": capacity,
                    "recorder": recorder,
                }
                if engine_cls is CASEEngine:
                    kwargs["cache"] = analysis_cache
                result = engine_cls(workload.program, **kwargs).run()
                matches = not sequential.memory.differences(
                    result.memory, tolerance=0.0
                )
                stats = result.stats
                recording = recorder.recording()
                side: Dict = {
                    "matches_sequential": matches,
                    "violations": stats.violations,
                    "rollbacks": stats.rollbacks,
                    "overflow_stalls": stats.overflow_stalls,
                    "stall_rounds": stats.stall_rounds,
                    "spec_peak_entries": result.spec_peak_entries,
                    # The recording's own schema -- the same totals the
                    # metrics adapter and trace exporter consume.
                    "recording": recording.summary(),
                    "processors": {},
                }
                makespans = {}
                for p in processors:
                    makespan = compute_makespan(
                        recording, p, sequential_cycles=baseline
                    )
                    makespans[p] = makespan
                    side["processors"][str(p)] = makespan.as_dict()
                row[name] = side
                if observer is not None:
                    observer(
                        workload=workload,
                        engine=name,
                        window=window,
                        capacity=capacity,
                        recording=recording,
                        stats=stats,
                        makespans=makespans,
                    )
            entry["configs"][_config_key(window, capacity)] = row
    # Headline numbers: the best speedup each engine reaches at P=max.
    top = str(max(processors))
    for name in ("hose", "case"):
        entry[f"best_{name}_speedup"] = round(
            max(
                row[name]["processors"][top]["speedup"]
                for row in entry["configs"].values()
            ),
            3,
        )
    return entry


def measure_speedups(
    size: int = SPEEDUP_SIZE,
    statements: int = SPEEDUP_STATEMENTS,
    families: Sequence[str] = FAMILIES,
    processors: Sequence[int] = SPEEDUP_PROCESSORS,
    windows: Sequence[int] = SPEEDUP_WINDOWS,
    capacities: Sequence[Optional[int]] = SPEEDUP_CAPACITIES,
    cost: Optional[CostModel] = None,
    observer: Optional[Callable[..., None]] = None,
) -> Dict[str, Dict]:
    """The whole scenario: every family, every configuration."""
    return {
        family: measure_speedup_family(
            generate(family, size, statements),
            processors=processors,
            windows=windows,
            capacities=capacities,
            cost=cost,
            observer=observer,
        )
        for family in families
    }


def check_embarrassing_speedup(
    section: Dict, processors: int = 4
) -> List[str]:
    """CI invariant: HOSE must beat sequential on parallel families.

    On every measured embarrassingly-parallel family (no cross-segment
    dependences; ``reduction`` in the default suite), the *best* HOSE
    makespan on ``processors`` processors must be strictly below the
    sequential cycle total.  Returns failure descriptions (empty = OK).
    """
    failures: List[str] = []
    key = str(processors)
    measured = [
        family
        for family in EMBARRASSINGLY_PARALLEL
        if family in section.get("families", {})
    ]
    if not measured:
        return [
            "no embarrassingly-parallel family was measured "
            f"(need one of {list(EMBARRASSINGLY_PARALLEL)}); "
            "the speedup check cannot pass vacuously"
        ]
    for family in measured:
        entry = section["families"][family]
        baseline = entry["sequential_cycles"]
        best = min(
            row["hose"]["processors"][key]["makespan"]
            for row in entry["configs"].values()
        )
        if best >= baseline:
            failures.append(
                f"{family}: best HOSE makespan on P={processors} is {best}, "
                f"not below the sequential total {baseline}"
            )
    return failures


def check_overflow_speedup(section: Dict, processors: int = 4) -> List[str]:
    """CI invariant: CASE keeps scaling where HOSE overflows.

    On ``reduction`` at capacity ``OVERFLOW_CAPACITY``, CASE's speedup
    on ``processors`` processors must be at least
    ``OVERFLOW_SPEEDUP_RATIO`` times HOSE's at every swept window.  A
    sweep without that row fails rather than passing vacuously.
    """
    configs = section.get("families", {}).get("reduction", {}).get("configs", {})
    rows = [row for row in configs.values() if row["capacity"] == OVERFLOW_CAPACITY]
    if not rows:
        return [
            f"reduction at capacity {OVERFLOW_CAPACITY} was not measured; "
            "the overflow speedup check cannot pass vacuously"
        ]
    key = str(processors)
    failures: List[str] = []
    for row in rows:
        hose, case = (row[side]["processors"][key]["speedup"] for side in ("hose", "case"))
        if case < OVERFLOW_SPEEDUP_RATIO * hose:
            failures.append(
                f"reduction (window {row['window']}, capacity "
                f"{OVERFLOW_CAPACITY}): CASE speedup {case}x on P={processors} "
                f"is not {OVERFLOW_SPEEDUP_RATIO}x HOSE's {hose}x"
            )
    return failures
