"""Request dispatch: method table, program interning, per-request metrics.

One :class:`Dispatcher` is shared by every session of a daemon.  It
owns the two cross-request resources:

* the **analysis cache** -- a single thread-safe
  :class:`~repro.analysis.cache.AnalysisCache` reused by every
  ``analyze``/``label``/``simulate`` request, and
* the **program interner** -- submitted programs are keyed by their
  exact source (DSL text or canonicalized JSON IR), so re-submitting
  the same program resolves to the *same* :class:`Program` object.
  This is what makes the shared cache effective across requests: the
  cache keys by region object identity, and interning guarantees two
  requests for the same source share region objects.  The interner is
  a bounded LRU; eviction invalidates the program's cache entries so
  neither side grows without bound, and
* the **ground-truth memo** -- each interned program carries its
  sequential final memory and cost-model baseline cycles, both filled
  by one sequential run for the first request that needs either.
  ``simulate`` and ``speedup_sweep`` compare every engine run against
  the memoized memory bit for bit, so a program runs sequentially once
  per interner lifetime instead of once per request.  The memo lives in
  the interner entry and is dropped with it.

Every response result carries a ``meta`` object:
``{"elapsed_ms", "cache": {"hits", "misses"}}`` -- the wall time of
the handler and the analysis-cache delta attributable to the request.
With the :mod:`repro.obs` registry collecting (the daemon arms it at
startup), the delta is scoped by snapshotting the process-wide
``analysis.cache.hits``/``misses`` counters around the handler, and
the registry additionally accumulates ``serve.requests``,
``serve.errors`` and a ``serve.request_ms`` histogram.  Deltas are
per-process counters sampled around one handler, so concurrent
requests can bleed into each other's delta -- they are a throughput
diagnostic, not an exact attribution.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro._version import __version__
from repro.analysis.cache import AnalysisCache
from repro.idempotency.labeling import label_region
from repro.ir.builder import JsonIRError, program_from_json
from repro.ir.dsl import DSLSyntaxError, parse_program
from repro.ir.program import Program
from repro.obs.metrics import metrics_registry
# HOSEEngine is looked up here by the benchmark's traced run, which
# patches it beside ENGINES and CASEEngine.
from repro.runtime.engines import ENGINES, CASEEngine, HOSEEngine  # noqa: F401
from repro.runtime.errors import AddressError, BoundError
from repro.runtime.interpreter import SequentialInterpreter
from repro.runtime.memory import MemoryImage
from repro.serve.pool import FAILURES_COUNTER
from repro.serve.protocol import (
    INTERNAL_ERROR,
    INVALID_PARAMS,
    METHOD_NOT_FOUND,
    ProtocolError,
    Request,
    error_response,
    ok_response,
)
from repro.timing.cost import DEFAULT_COST_MODEL
from repro.timing.events import TimingRecorder
from repro.timing.makespan import compute_makespan, sequential_baseline

#: Default interner capacity (distinct programs held live).
DEFAULT_MAX_PROGRAMS = 64

#: Bounds on ``speedup_sweep``'s ``processors``: scheduling one
#: recording costs time linear in the processor count, so each count
#: and the number of counts are capped (larger values get
#: INVALID_PARAMS with both limits in ``data``).
MAX_SWEEP_PROCESSORS = 1024
MAX_SWEEP_COUNTS = 16

#: Upper bound on the ``sleep`` diagnostic (seconds) so a hostile
#: client cannot park a worker for long.
MAX_SLEEP_SECONDS = 2.0


class _Interned:
    """One interner entry: a program and its memoized ground truth.

    ``memory`` (the sequential final memory) and ``baseline`` (the
    :data:`DEFAULT_COST_MODEL` sequential cycles) start empty and are
    filled together, once, under the interner lock.  A fill that
    finishes after the entry was evicted lands on this detached object
    only, so it can never reach a later program.
    """

    __slots__ = ("program", "memory", "baseline")

    def __init__(self, program: Program):
        self.program = program
        self.memory: Optional[MemoryImage] = None
        self.baseline: Optional[int] = None


def _param(
    params: Dict[str, Any],
    name: str,
    default: Any,
    valid: Callable[[Any], bool],
    expected: str,
) -> Any:
    """``params[name]`` (``default`` when absent), or INVALID_PARAMS."""
    value = params.get(name, default)
    if not valid(value):
        raise ProtocolError(INVALID_PARAMS, f"{name!r} must be {expected}")
    return value


def _is_count(value: Any) -> bool:
    """An int >= 1; JSON ``true``/``false`` are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _run_options(params: Dict[str, Any]) -> Dict[str, Any]:
    """The engine options shared by ``simulate`` and ``speedup_sweep``."""
    return {
        "window": _param(params, "window", 4, _is_count, "an int >= 1"),
        "capacity": _param(
            params,
            "capacity",
            64,
            lambda v: v is None or _is_count(v),
            "an int >= 1 or null",
        ),
        "batch": _param(
            params, "batch", True, lambda v: isinstance(v, bool), "a boolean"
        ),
    }


class Dispatcher:
    """Maps parsed requests to handlers over shared daemon state."""

    def __init__(
        self,
        cache: Optional[AnalysisCache] = None,
        max_programs: int = DEFAULT_MAX_PROGRAMS,
        diagnostics: bool = False,
    ):
        if max_programs < 1:
            raise ValueError("max_programs must be >= 1")
        self.cache = cache if cache is not None else AnalysisCache()
        self.max_programs = max_programs
        self._programs: "OrderedDict[str, _Interned]" = OrderedDict()
        #: Guards the interner and every ground-truth fill.
        self._programs_lock = threading.Lock()
        self._truth_hits = 0
        self._truth_misses = 0
        self._registry = metrics_registry()
        self.started = time.time()
        self._handlers: Dict[str, Callable[[Dict[str, Any]], Any]] = {
            "analyze": self._analyze,
            "label": self._label,
            "simulate": self._simulate,
            "speedup_sweep": self._speedup_sweep,
            "metrics": self._metrics,
            "ping": self._ping,
        }
        if diagnostics:
            # Lets any client park a worker, so only on request.
            self._handlers["sleep"] = self._sleep

    @property
    def methods(self) -> Tuple[str, ...]:
        return tuple(sorted(self._handlers))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: Request) -> Dict[str, Any]:
        """Run one request and return its response envelope."""
        handler = self._handlers.get(request.method)
        collecting = self._registry.collecting
        if collecting:
            self._registry.counter("serve.requests").inc()
        if handler is None:
            if collecting:
                self._registry.counter("serve.errors").inc()
            return error_response(
                request.id,
                METHOD_NOT_FOUND,
                f"unknown method {request.method!r}",
                data={"methods": list(self.methods)},
            )
        hits0, misses0 = self._cache_counters(collecting)
        t0 = time.perf_counter()
        try:
            result = handler(request.params)
        except ProtocolError as exc:
            if collecting:
                self._registry.counter("serve.errors").inc()
            return error_response(request.id, exc.code, exc.message, exc.data)
        except (JsonIRError, DSLSyntaxError, ValueError, KeyError, TypeError) as exc:
            if collecting:
                self._registry.counter("serve.errors").inc()
            return error_response(
                request.id, INVALID_PARAMS, f"invalid params: {exc}"
            )
        except (AddressError, BoundError) as exc:
            # The submitted program addresses memory it does not have or
            # runs a loop that cannot be iterated: a run-time fault of
            # the program, so the client's error.
            if collecting:
                self._registry.counter("serve.errors").inc()
            return error_response(
                request.id,
                INVALID_PARAMS,
                f"invalid program: {exc}",
                data={"type": type(exc).__name__},
            )
        except Exception as exc:  # noqa: BLE001 -- the envelope is the
            # daemon's error boundary; anything else is a bug report.
            if collecting:
                self._registry.counter("serve.errors").inc()
            return error_response(
                request.id,
                INTERNAL_ERROR,
                f"internal error: {type(exc).__name__}: {exc}",
            )
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        hits1, misses1 = self._cache_counters(collecting)
        if collecting:
            self._registry.histogram("serve.request_ms").observe(elapsed_ms)
        if isinstance(result, dict):
            result["meta"] = {
                "elapsed_ms": round(elapsed_ms, 3),
                "cache": {
                    "hits": hits1 - hits0,
                    "misses": misses1 - misses0,
                },
            }
        return ok_response(request.id, result)

    def _cache_counters(self, collecting: bool) -> Tuple[int, int]:
        # Scoped through the obs registry when armed (exactly the
        # counters AnalysisCache bumps); the cache's own totals are the
        # fallback so meta stays populated in bare library use.
        if collecting:
            return (
                self._registry.counter("analysis.cache.hits").value,
                self._registry.counter("analysis.cache.misses").value,
            )
        stats = self.cache.stats()
        return stats["hits"], stats["misses"]

    # ------------------------------------------------------------------
    # program interning
    # ------------------------------------------------------------------
    def resolve_program(self, params: Dict[str, Any]) -> Program:
        """The interned :class:`Program` of ``params``.

        ``params`` must carry exactly one of ``dsl`` (source text) or
        ``program`` (JSON IR).  Identical submissions return the same
        object, which is what turns the shared analysis cache into
        cross-request warm hits.
        """
        return self._intern(params).program

    def _intern(self, params: Dict[str, Any]) -> _Interned:
        dsl = params.get("dsl")
        ir = params.get("program")
        if (dsl is None) == (ir is None):
            raise ProtocolError(
                INVALID_PARAMS,
                "params need exactly one of 'dsl' (source text) or "
                "'program' (JSON IR)",
            )
        if dsl is not None:
            if not isinstance(dsl, str):
                raise ProtocolError(INVALID_PARAMS, "'dsl' must be a string")
            key = "dsl:" + dsl
            build: Callable[[], Program] = lambda: parse_program(dsl)
        else:
            if not isinstance(ir, dict):
                raise ProtocolError(
                    INVALID_PARAMS, "'program' must be a JSON IR object"
                )
            key = "ir:" + json.dumps(ir, sort_keys=True, separators=(",", ":"))
            build = lambda: program_from_json(ir)
        with self._programs_lock:
            entry = self._programs.get(key)
            if entry is not None:
                self._programs.move_to_end(key)
                return entry
        # Parse outside the lock (same rationale as the analysis
        # cache: a big program must not block other sessions), then
        # first insert wins.
        fresh = _Interned(build())
        with self._programs_lock:
            entry = self._programs.get(key)
            if entry is not None:
                self._programs.move_to_end(key)
                return entry
            self._programs[key] = fresh
            evicted = []
            while len(self._programs) > self.max_programs:
                _, old = self._programs.popitem(last=False)
                evicted.append(old.program)
        for old in evicted:
            for region in old.regions:
                self.cache.invalidate(region)
        return fresh

    def interned_programs(self) -> int:
        with self._programs_lock:
            return len(self._programs)

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------
    def _ground_truth(self, entry: _Interned) -> Tuple[MemoryImage, int]:
        """The sequential final memory and baseline cycles of ``entry``.

        One sequential run fills both, the first time either is asked
        for.  The run happens outside the lock, as in
        :class:`AnalysisCache`; the first fill wins.
        """
        with self._programs_lock:
            if entry.memory is not None:
                self._truth_hits += 1
                return entry.memory, entry.baseline
        result = SequentialInterpreter(entry.program).run()
        cycles = sequential_baseline(result.stats, DEFAULT_COST_MODEL)
        with self._programs_lock:
            self._truth_misses += 1
            if entry.memory is None:
                entry.memory = result.memory
                entry.baseline = cycles
            return entry.memory, entry.baseline

    def ground_truth_stats(self) -> Dict[str, int]:
        """Memo lookups served without a sequential run, runs, entries."""
        with self._programs_lock:
            return {
                "hits": self._truth_hits,
                "misses": self._truth_misses,
                "entries": sum(
                    e.memory is not None for e in self._programs.values()
                ),
            }

    def _region_of(self, program: Program, params: Dict[str, Any]):
        name = params.get("region")
        if not program.regions:
            raise ProtocolError(INVALID_PARAMS, "program has no regions")
        if name is None:
            return program.regions[0]
        for region in program.regions:
            if region.name == name:
                return region
        raise ProtocolError(
            INVALID_PARAMS,
            f"no region named {name!r}",
            data={"regions": [r.name for r in program.regions]},
        )

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _analyze(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Algorithm-2 labeling summary for every region of the program."""
        program = self.resolve_program(params)
        regions = []
        for region in program.regions:
            result = label_region(region, program=program, cache=self.cache)
            counts = {
                category.value: count
                for category, count in result.counts_by_category().items()
            }
            regions.append(
                {
                    "name": region.name,
                    "kind": type(region).__name__,
                    "references": len(region.references),
                    "fully_independent": result.fully_independent,
                    "static_fraction_idempotent": round(
                        result.static_fraction_idempotent(), 4
                    ),
                    "categories": counts,
                    "read_only_vars": sorted(result.read_only_vars),
                    "private_vars": sorted(result.private_vars),
                    "live_out": sorted(result.live_out),
                }
            )
        return {"program": program.name, "regions": regions}

    def _label(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Per-reference labels and categories of one region."""
        program = self.resolve_program(params)
        region = self._region_of(program, params)
        result = label_region(region, program=program, cache=self.cache)
        labels = {}
        for ref in region.references:
            labels[ref.uid] = {
                "label": result.label_of(ref).value,
                "category": result.category_of(ref).value,
            }
        return {
            "program": program.name,
            "region": region.name,
            "fully_independent": result.fully_independent,
            "labels": labels,
        }

    def _simulate(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """One engine run, checked bit-for-bit against sequential."""
        entry = self._intern(params)
        program = entry.program
        engine_name = params.get("engine", "case")
        engine_cls = ENGINES.get(engine_name)
        if engine_cls is None:
            raise ProtocolError(
                INVALID_PARAMS,
                f"unknown engine {engine_name!r}",
                data={"engines": sorted(ENGINES)},
            )
        kwargs = _run_options(params)
        window, capacity = kwargs["window"], kwargs["capacity"]
        if engine_cls is CASEEngine:
            kwargs["cache"] = self.cache
        result = engine_cls(program, **kwargs).run()
        truth, _ = self._ground_truth(entry)
        bit_identical = not truth.differences(result.memory, tolerance=0.0)
        stats = result.stats
        return {
            "program": program.name,
            "engine": engine_name,
            "window": window,
            "capacity": capacity,
            "bit_identical": bit_identical,
            "degraded": result.degraded,
            "stats": {
                "reads": stats.reads,
                "writes": stats.writes,
                "violations": stats.violations,
                "rollbacks": stats.rollbacks,
                "segments_committed": stats.segments_committed,
                "overflow_stalls": stats.overflow_stalls,
                "speculative_accesses": stats.speculative_accesses,
                "idempotent_accesses": stats.idempotent_accesses,
                "private_accesses": stats.private_accesses,
            },
            "spec_peak_entries": result.spec_peak_entries,
        }

    def _speedup_sweep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """HOSE/CASE makespans and speedups across processor counts."""
        entry = self._intern(params)
        program = entry.program
        processors = _param(
            params,
            "processors",
            [1, 2, 4],
            lambda v: isinstance(v, list) and bool(v) and all(map(_is_count, v)),
            "a non-empty list of ints >= 1",
        )
        if len(processors) > MAX_SWEEP_COUNTS or max(processors) > MAX_SWEEP_PROCESSORS:
            raise ProtocolError(
                INVALID_PARAMS,
                f"'processors' takes at most {MAX_SWEEP_COUNTS} counts, "
                f"each at most {MAX_SWEEP_PROCESSORS}",
                data={
                    "max_processors": MAX_SWEEP_PROCESSORS,
                    "max_counts": MAX_SWEEP_COUNTS,
                },
            )
        options = _run_options(params)
        engine_names = _param(
            params,
            "engines",
            ["hose", "case"],
            lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v),
            "a list of engine names",
        )
        unknown = [e for e in engine_names if e not in ENGINES]
        if unknown:
            raise ProtocolError(
                INVALID_PARAMS,
                f"unknown engines {unknown!r}",
                data={"engines": sorted(ENGINES)},
            )
        truth, baseline = self._ground_truth(entry)
        engines: Dict[str, Any] = {}
        for name in engine_names:
            engine_cls = ENGINES[name]
            recorder = TimingRecorder(DEFAULT_COST_MODEL)
            kwargs = dict(options, recorder=recorder)
            if engine_cls is CASEEngine:
                kwargs["cache"] = self.cache
            result = engine_cls(program, **kwargs).run()
            bit_identical = not truth.differences(result.memory, tolerance=0.0)
            recording = recorder.recording()
            rows = {}
            for p in processors:
                makespan = compute_makespan(
                    recording, p, sequential_cycles=baseline
                )
                speedup = makespan.speedup
                rows[str(p)] = {
                    "makespan": makespan.makespan,
                    "speedup": round(speedup, 3) if speedup else 0.0,
                }
            engines[name] = {
                "bit_identical": bit_identical,
                "processors": rows,
            }
        return {
            "program": program.name,
            "window": options["window"],
            "capacity": options["capacity"],
            "sequential_cycles": baseline,
            "engines": engines,
        }

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def _metrics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Daemon-level counters: cache, interner, ground truth, latency."""
        latency = self._registry.histogram("serve.request_ms").summary()
        return {
            "version": __version__,
            "uptime_seconds": round(time.time() - self.started, 3),
            "cache": self.cache.stats(),
            "interned_programs": self.interned_programs(),
            "ground_truth": self.ground_truth_stats(),
            "request_ms": {q: round(latency[q], 3) for q in ("p50", "p95")},
            "worker_failures": self._registry.counter(FAILURES_COUNTER).value,
            "methods": list(self.methods),
        }

    def _ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    def _sleep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Occupy one worker slot for a bounded time.

        A diagnostic for exercising backpressure deterministically
        (tests saturate the pool with sleeps, then probe for the
        OVERLOADED rejection).
        """
        seconds = float(params.get("seconds", 0.1))
        seconds = max(0.0, min(seconds, MAX_SLEEP_SECONDS))
        time.sleep(seconds)
        return {"slept": seconds}
