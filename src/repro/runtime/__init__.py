"""Execution substrates.

* :mod:`repro.runtime.memory` -- the non-speculative storage: a flat
  value store (the "conventional memory hierarchy" of the paper).
* :mod:`repro.runtime.executor` -- a generator-based micro-interpreter
  that turns a segment body into a stream of compute / read / write
  operations tagged with their static memory references.
* :mod:`repro.runtime.trace` -- the record-and-replay fast path: loop
  regions with input-independent control flow are recorded once into a
  flat event schedule and replayed per iteration, bypassing AST
  re-interpretation while yielding bit-identical operation streams.
* :mod:`repro.runtime.interpreter` -- the sequential reference
  interpreter (ground truth for all correctness checks, and the source
  of dynamic reference counts), driving either execution path.
* :mod:`repro.runtime.specstore` -- per-segment speculative storage:
  bounded buffers keyed by address, with forwarding from older
  in-flight segments, cross-segment violation detection against
  segment age, commit and squash.
* :mod:`repro.runtime.engines` -- the speculative engines driving the
  same operation streams: :class:`HOSEEngine` (Definition 2, every
  reference through speculative storage) and :class:`CASEEngine`
  (Definition 4, idempotent references bypass it using the labels of
  Algorithm 2).  Both produce final memory states bit-identical to the
  sequential interpreter.

The executor prices compute once, in operator-weighted cycles (the
trace path yields the same), and :mod:`repro.timing` consumes what the
runtime counts: the engines emit a per-segment-attempt timing event
stream through an attached :class:`~repro.timing.events.TimingRecorder`,
and a sequential run's stats are its baseline price.  The timing
package turns those into multiprocessor makespans and HOSE/CASE
speedups.
"""

from repro.runtime.errors import (
    AddressError,
    EngineLivelockError,
    FaultInjected,
    InvariantViolation,
    SimulationError,
)
from repro.runtime.memory import MemoryImage
from repro.runtime.interpreter import (
    SequentialInterpreter,
    SequentialResult,
    run_program,
)
from repro.runtime.engines import (
    CASEEngine,
    DegradationReport,
    HOSEEngine,
    SpeculativeEngine,
    SpeculativeResult,
    run_speculative,
)
from repro.runtime.specstore import SegmentBuffer, SpeculativeStore, SpecStoreError
from repro.runtime.stats import ExecutionStats
from repro.runtime.trace import (
    SegmentTrace,
    TraceError,
    record_trace,
    replay_segment,
    trace_eligibility,
)

__all__ = [
    "AddressError",
    "CASEEngine",
    "DegradationReport",
    "EngineLivelockError",
    "ExecutionStats",
    "FaultInjected",
    "HOSEEngine",
    "InvariantViolation",
    "MemoryImage",
    "SegmentBuffer",
    "SegmentTrace",
    "SequentialInterpreter",
    "SequentialResult",
    "SimulationError",
    "SpecStoreError",
    "SpeculativeEngine",
    "SpeculativeResult",
    "SpeculativeStore",
    "TraceError",
    "record_trace",
    "replay_segment",
    "run_program",
    "run_speculative",
    "trace_eligibility",
]
