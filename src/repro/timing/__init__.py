"""Multiprocessor timing model: from engine op streams to speedups.

The speculative engines (:mod:`repro.runtime.engines`) prove the paper's
*storage* claims; this package closes the loop to its *performance*
claims by turning the engines' operation streams into parallel time:

* :mod:`repro.timing.cost` -- the configurable cost model: operation
  costs (the executor's operator-weighted compute cycles times a
  scale), per-route access latencies (conventional memory /
  speculative store / private frame), and the speculation overheads
  (dispatch, commit arbitration, overflow drain, squash penalty);
* :mod:`repro.timing.events` -- the per-segment-attempt timing event
  stream the engines emit through a :class:`TimingRecorder` (issue,
  priced operations, overflow stall / drain, squash with violating
  writer, discard, commit), folded into a compact :class:`Recording`;
* :mod:`repro.timing.schedule` -- the processor-assignment scheduler:
  ``P`` logical processors, window-ordered dispatch in age order,
  earliest-free-processor assignment, commit-in-age-order arbitration;
* :mod:`repro.timing.makespan` -- critical-path makespan over a whole
  recording plus the sequential baseline (a closed form of one
  sequential run's stats), yielding
  per-processor busy / wasted / stall / idle breakdowns and
  speedup-vs-sequential.

The bench's ``speedup`` scenario (:mod:`repro.bench.speedup`) sweeps
processors x window x speculative capacity over the workload families
and reports HOSE/CASE speedup curves in ``BENCH_results.json``.
"""

from repro.timing.cost import (
    DEFAULT_COST_MODEL,
    KIND_COMPUTE,
    KIND_READ,
    KIND_WRITE,
    CostModel,
)
from repro.timing.events import (
    AttemptRecord,
    DirectSection,
    Recording,
    RegionRecording,
    SegmentRecord,
    TimingRecorder,
)
from repro.timing.makespan import (
    MakespanResult,
    compute_makespan,
    sequential_baseline,
    sequential_cycles,
    speculative_makespan,
)
from repro.timing.schedule import (
    ProcessorLane,
    RegionSchedule,
    SegmentTiming,
    schedule_region,
)

__all__ = [
    "AttemptRecord",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DirectSection",
    "KIND_COMPUTE",
    "KIND_READ",
    "KIND_WRITE",
    "MakespanResult",
    "ProcessorLane",
    "Recording",
    "RegionRecording",
    "RegionSchedule",
    "SegmentRecord",
    "SegmentTiming",
    "TimingRecorder",
    "compute_makespan",
    "schedule_region",
    "sequential_baseline",
    "sequential_cycles",
    "speculative_makespan",
]
