"""Cross-pass analysis cache.

The labeling pipeline (Algorithm 2) needs the same facts several times:
the read-only variable set feeds the access summaries, the dependence
analyser *and* the RFW analysis; reports re-run the labeling per region;
and the speculative engines re-ask for dependence graphs when choosing
an execution mode.  Without a cache each pass recomputes everything from
the region text.

:class:`AnalysisCache` memoizes per-region artifacts.  Entries are keyed
by the region *object* (regions hash by identity and are immutable after
construction) together with a caller-supplied discriminator key, so the
same region analysed under different inputs (private and read-only
sets...) gets distinct entries.  Holding the region object as
the key keeps it alive while its entries are cached, which makes the
cache immune to the id()-reuse hazard of address-keyed caches.

Typical use::

    cache = AnalysisCache()
    result1 = label_region(region, cache=cache)   # cold: runs analyses
    result2 = label_region(region, cache=cache)   # warm: dictionary hits

**Aliasing contract:** cached values are returned *shared*, not
copied — every warm hit hands back the same object (dependence graph,
summary, RFW result).  Treat them as immutable; a caller that needs a
private mutable copy must copy explicitly (e.g. rebuild a
``DependenceGraph`` from its ``dependences`` list), or use
:meth:`AnalysisCache.invalidate` to force recomputation.  A loop
region's dependence graph builds its edge list on its first list query;
that happens once, under the graph's own lock, so every thread sees the
one list and the cached graph stays immutable to callers.

**Concurrency contract:** one cache may be shared by concurrent
sessions (the ``repro.serve`` daemon shares a single instance across
every request).  All dictionary and counter access is serialized by an
internal lock; ``compute()`` itself deliberately runs *outside* the
lock so a slow cold analysis never blocks warm hits on other threads.
The consequence is a *duplicate-compute-on-concurrent-miss* policy:
two threads missing the same ``(region, key)`` simultaneously both run
``compute()``, the first to finish installs its value, and the loser
discards its own result and returns the winner's object — so the
aliasing contract above ("every warm hit hands back the same object")
holds even across racing misses.  Analysis results are deterministic
pure functions of the region, so the duplicated work is a bounded
throughput cost, never a correctness hazard.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable

from repro.ir.region import Region
from repro.obs.metrics import metrics_registry

#: The process-wide registry is a stable singleton (``reset`` mutates it
#: in place), so one module-level binding keeps the per-lookup cost at a
#: single attribute check while disabled.
_METRICS = metrics_registry()


class AnalysisCache:
    """Memoizes per-region analysis results across passes."""

    def __init__(self) -> None:
        self._entries: Dict[Region, Dict[Hashable, Any]] = {}
        #: Serializes dict mutation and counter updates; ``compute()``
        #: runs outside it (see the module docstring's concurrency
        #: contract).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get_or_compute(
        self, region: Region, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached value for ``(region, key)``; compute on miss.

        Thread-safe: the lock covers only the lookup, the counter bump
        and the insert, never ``compute()`` — so warm hits stay cheap
        and concurrent misses of the same key duplicate the compute,
        with the first inserted value winning (losers return the
        winner's object, preserving the aliasing contract).

        With metrics collection armed (``repro.obs enable``) every
        lookup also bumps the process-wide ``analysis.cache.hits`` /
        ``analysis.cache.misses`` counters; disabled, the cost is one
        attribute check.
        """
        with self._lock:
            per_region = self._entries.setdefault(region, {})
            if key in per_region:
                self.hits += 1
                hit = True
                value = per_region[key]
            else:
                self.misses += 1
                hit = False
        if _METRICS.collecting:
            if hit:
                _METRICS.counter("analysis.cache.hits").inc()
            else:
                _METRICS.counter("analysis.cache.misses").inc()
        if hit:
            return value
        value = compute()
        with self._lock:
            # Re-fetch: the region entry may have been invalidated (or
            # another thread may have finished the same compute) while
            # we ran unlocked.  setdefault keeps the first value.
            per_region = self._entries.setdefault(region, {})
            return per_region.setdefault(key, value)

    def peek(self, region: Region, key: Hashable) -> Any:
        """Cached value for ``(region, key)`` or ``None`` — never inserts."""
        with self._lock:
            per_region = self._entries.get(region)
            if per_region is None:
                return None
            return per_region.get(key)

    def invalidate(self, region: Region) -> None:
        """Drop all entries of one region.

        A compute already in flight for the region may still install
        its value after this returns (it re-creates the region entry);
        invalidation guarantees fresh computes for lookups that *start*
        after it.
        """
        with self._lock:
            self._entries.pop(region, None)

    def clear(self) -> None:
        """Drop everything (counters kept)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._entries.values())

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus entry counts (one consistent snapshot)."""
        with self._lock:
            return {
                "regions": len(self._entries),
                "entries": sum(
                    len(entries) for entries in self._entries.values()
                ),
                "hits": self.hits,
                "misses": self.misses,
            }
