"""Whole-program makespan and speedup-vs-sequential computation.

Chains the sections of a :class:`~repro.timing.events.Recording` --
non-speculative :class:`DirectSection` stretches run on processor 0,
every :class:`RegionRecording` is laid out by
:func:`~repro.timing.schedule.schedule_region` on ``P`` logical
processors -- into one :class:`MakespanResult`: the overall makespan,
per-processor busy / wasted / stall / idle breakdowns, per-region spans,
and the longest single-segment critical path (the floor any parallel
execution must respect).

The **sequential baseline** prices the sequential interpreter's
operation stream with the *same* cost model: a closed form of one run's
stats, ``compute_scale * cycles + memory_latency * (reads + writes)``
(:meth:`~repro.timing.cost.CostModel.direct_cost`), so
``speedup = sequential_cycles / makespan`` compares identical work under
identical prices -- the only differences are parallelism and the
explicit speculation overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.program import Program
from repro.runtime.stats import ExecutionStats
from repro.timing.cost import CostModel
from repro.timing.events import (
    DirectSection,
    Recording,
    TimingRecorder,
)
from repro.timing.schedule import RegionSchedule, schedule_region


@dataclass
class MakespanResult:
    """Parallel time of one recorded execution on ``processors``."""

    engine: str
    program: str
    processors: int
    window: int
    makespan: int
    #: Non-speculative (init / finale) cycles, executed on processor 0.
    direct_cycles: int
    #: Longest single-segment critical path across all regions.
    longest_segment_cycles: int
    #: Whole-run totals across processors.
    busy_cycles: int = 0
    wasted_cycles: int = 0
    stall_cycles: int = 0
    idle_cycles: int = 0
    #: Cost-modelled sequential cycle total (when supplied).
    sequential_cycles: Optional[int] = None
    per_processor: List[Dict[str, int]] = field(default_factory=list)
    regions: List[RegionSchedule] = field(default_factory=list)

    @property
    def speedup(self) -> Optional[float]:
        """Speedup over the cost-modelled sequential execution."""
        if self.sequential_cycles is None or self.makespan <= 0:
            return None
        return self.sequential_cycles / self.makespan

    def as_dict(self) -> Dict:
        payload = {
            "processors": self.processors,
            "makespan": self.makespan,
            "busy_cycles": self.busy_cycles,
            "wasted_cycles": self.wasted_cycles,
            "stall_cycles": self.stall_cycles,
            "idle_cycles": self.idle_cycles,
            "direct_cycles": self.direct_cycles,
            "longest_segment_cycles": self.longest_segment_cycles,
        }
        if self.sequential_cycles is not None:
            payload["sequential_cycles"] = self.sequential_cycles
            speedup = self.speedup
            payload["speedup"] = round(speedup, 3) if speedup else 0.0
        return payload


def compute_makespan(
    recording: Recording,
    processors: int,
    sequential_cycles: Optional[int] = None,
) -> MakespanResult:
    """Makespan of ``recording`` on ``processors`` logical processors."""
    processors = max(1, int(processors))
    cost = recording.cost
    t = 0
    direct = 0
    longest = 0
    regions: List[RegionSchedule] = []
    busy = wasted = stall = 0
    #: Per-processor totals; processor 0 also runs the direct sections.
    lanes = [[0, 0, 0] for _ in range(processors)]  # busy, wasted, stall
    for section in recording.sections:
        if isinstance(section, DirectSection):
            t += section.cycles
            direct += section.cycles
            lanes[0][0] += section.cycles
            continue
        schedule = schedule_region(
            section, processors, cost, recording.window, start=t
        )
        regions.append(schedule)
        t = schedule.end
        section_longest = schedule.longest_segment_cycles()
        if section_longest > longest:
            longest = section_longest
        for lane in schedule.lanes:
            lanes[lane.processor][0] += lane.busy
            lanes[lane.processor][1] += lane.wasted
            lanes[lane.processor][2] += lane.stall
    makespan = t
    per_processor = []
    for p, (lane_busy, lane_wasted, lane_stall) in enumerate(lanes):
        idle = makespan - lane_busy - lane_wasted - lane_stall
        per_processor.append(
            {
                "processor": p,
                "busy": lane_busy,
                "wasted": lane_wasted,
                "stall": lane_stall,
                "idle": idle,
            }
        )
        busy += lane_busy
        wasted += lane_wasted
        stall += lane_stall
    return MakespanResult(
        engine=recording.engine,
        program=recording.program,
        processors=processors,
        window=recording.window,
        makespan=makespan,
        direct_cycles=direct,
        longest_segment_cycles=longest,
        busy_cycles=busy,
        wasted_cycles=wasted,
        stall_cycles=stall,
        idle_cycles=processors * makespan - busy - wasted - stall,
        sequential_cycles=sequential_cycles,
        per_processor=per_processor,
        regions=regions,
    )


def sequential_baseline(stats: ExecutionStats, cost: CostModel) -> int:
    """Cost-modelled cycle total of a sequential run with ``stats``.

    Every operation of a sequential run is priced like a direct
    section's: memory accesses at ``memory_latency``, compute at the
    executor's operator-weighted cycles times ``compute_scale``.
    """
    return cost.direct_cost(stats.cycles, stats.reads + stats.writes)


def sequential_cycles(program: Program, cost: Optional[CostModel] = None) -> int:
    """Cost-modelled cycle total of one sequential execution."""
    from repro.runtime.interpreter import SequentialInterpreter

    stats = SequentialInterpreter(program).run().stats
    return sequential_baseline(stats, cost or CostModel())


def speculative_makespan(
    program: Program,
    engine: str = "hose",
    processors: int = 4,
    window: int = 4,
    capacity: Optional[int] = 64,
    cost: Optional[CostModel] = None,
    baseline: Optional[int] = None,
    **engine_kwargs,
) -> Tuple["SpeculativeResult", MakespanResult]:
    """Run an engine with a recorder attached and compute its makespan.

    Returns ``(speculative_result, makespan_result)``; the speculative
    result's memory is still bit-identical to the sequential
    interpreter (the recorder only observes).
    """
    from repro.runtime.engines import ENGINES

    try:
        engine_cls = ENGINES[engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {engine!r}; have {sorted(ENGINES)}"
        ) from None
    cost = cost or CostModel()
    if baseline is None:
        baseline = sequential_cycles(program, cost)
    recorder = TimingRecorder(cost)
    result = engine_cls(
        program,
        window=window,
        capacity=capacity,
        recorder=recorder,
        **engine_kwargs,
    ).run()
    makespan = compute_makespan(
        recorder.recording(), processors, sequential_cycles=baseline
    )
    return result, makespan
