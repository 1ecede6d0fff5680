"""Benchmark subsystem.

* :mod:`repro.bench.workloads` -- parameterized synthetic loop-nest
  families (stencil, reduction, sparse-indirection, guarded-update).
* :mod:`repro.bench.harness` -- throughput measurement: analysis
  references/s and simulation memory-ops/s.
* :mod:`repro.bench.engines` -- the HOSE vs CASE speculative-storage
  scenario: pressure metrics across buffer capacities, each run checked
  bit-for-bit against the sequential interpreter.
* :mod:`repro.bench.speedup` -- the multiprocessor timing scenario:
  HOSE/CASE makespans and speedup-vs-sequential across processors x
  window x capacity, on the :mod:`repro.timing` cost model.
* ``python -m repro.bench`` -- CLI entry point writing
  ``BENCH_results.json`` (see :mod:`repro.bench.__main__`;
  ``--scenarios`` / ``--list-scenarios`` select scenarios).
"""

from repro.bench.engines import (
    ENGINE_CAPACITIES,
    measure_engine_family,
    measure_engines,
    verify_engines,
)
from repro.bench.speedup import (
    SPEEDUP_CAPACITIES,
    SPEEDUP_PROCESSORS,
    SPEEDUP_WINDOWS,
    check_embarrassing_speedup,
    measure_speedup_family,
    measure_speedups,
)
from repro.bench.harness import FamilyResult, Measurement, measure_family
from repro.bench.workloads import (
    DEFAULT_SIZES,
    DEFAULT_STATEMENTS,
    FAMILIES,
    Workload,
    generate,
    generate_suite,
)

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_STATEMENTS",
    "ENGINE_CAPACITIES",
    "FAMILIES",
    "FamilyResult",
    "Measurement",
    "SPEEDUP_CAPACITIES",
    "SPEEDUP_PROCESSORS",
    "SPEEDUP_WINDOWS",
    "Workload",
    "check_embarrassing_speedup",
    "generate",
    "generate_suite",
    "measure_engine_family",
    "measure_engines",
    "measure_family",
    "measure_speedup_family",
    "measure_speedups",
    "verify_engines",
]
