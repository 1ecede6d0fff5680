"""AnalysisCache concurrency regression tests.

The ``repro.serve`` daemon shares one :class:`AnalysisCache` across
concurrent sessions.  Before the lock landed, the unsynchronized
``hits``/``misses`` bumps lost updates under thread contention and
racing misses could hand two different result objects to two callers
(breaking the aliasing contract).  These tests hammer one cache from a
thread pool with a tiny interpreter switch interval to make the
pre-fix races all but certain.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence import analyze_dependences
from repro.bench.workloads import generate
from repro.idempotency.labeling import label_region
from repro.ir.dsl import parse_program

THREADS = 8
LOOKUPS_PER_THREAD = 4000


@pytest.fixture
def tight_switching():
    """Force frequent thread switches so counter races actually fire."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _program():
    return parse_program(
        """
program cachehammer
  real x(64), y(64)
  region L do i = 2, 63
    y(i) = x(i-1) + x(i+1)
    liveout y
  end region
end program
"""
    )


class TestCacheCounterIntegrity:
    def test_hammered_counters_account_for_every_lookup(self, tight_switching):
        # Regression: with unlocked `self.hits += 1` / `self.misses += 1`
        # the totals lose updates under contention and stop summing to
        # the number of lookups performed.
        cache = AnalysisCache()
        region = _program().regions[0]
        barrier = threading.Barrier(THREADS)

        def hammer(worker):
            barrier.wait()
            for i in range(LOOKUPS_PER_THREAD):
                # A handful of distinct keys so hits and misses mix.
                cache.get_or_compute(region, ("k", i % 5), lambda: i)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for future in [pool.submit(hammer, t) for t in range(THREADS)]:
                future.result()

        total = THREADS * LOOKUPS_PER_THREAD
        assert cache.hits + cache.misses == total
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == total
        assert stats["entries"] == 5

    def test_concurrent_misses_share_one_value(self):
        # Duplicate-compute-on-concurrent-miss policy: racing misses may
        # both compute, but every caller must receive the *same* object
        # (first insert wins) so warm-hit aliasing stays intact.  The
        # barrier *inside* compute() forces both threads to be mid-miss
        # at once, which makes the pre-fix failure (each caller gets its
        # own object) deterministic rather than probabilistic.
        cache = AnalysisCache()
        region = _program().regions[0]
        in_compute = threading.Barrier(2, timeout=10)
        seen = []
        seen_lock = threading.Lock()

        def compute():
            in_compute.wait()
            return object()

        def miss_race(worker):
            value = cache.get_or_compute(region, "shared", compute)
            with seen_lock:
                seen.append(value)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(miss_race, t) for t in range(2)]:
                future.result()

        assert len({id(v) for v in seen}) == 1
        assert cache.peek(region, "shared") is seen[0]


class TestCacheConcurrentLabeling:
    def test_shared_cache_labels_identically_under_threads(self):
        # End-to-end shape of the daemon: many sessions labeling the
        # same region through one cache must agree with a single-thread
        # run and actually reuse entries (warm hits grow).
        program = _program()
        region = program.regions[0]
        reference = label_region(region, program=program)
        cache = AnalysisCache()
        results = []
        results_lock = threading.Lock()

        def label(worker):
            res = label_region(region, program=program, cache=cache)
            with results_lock:
                results.append(res)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(label, t) for t in range(12)]:
                future.result()

        for res in results:
            assert res.labels == reference.labels
            assert res.categories == reference.categories
        assert cache.hits > 0
        assert cache.misses > 0


class TestLazyGraphMaterialization:
    def test_threads_materialize_one_cached_graph_once(self, tight_switching):
        # A cached loop-region graph builds its edges on the first list
        # query.  Eight threads asking at once -- by iterating, by len and
        # by per-sink lookup -- must all see one edge list, built once:
        # unsynchronized, two threads building at once interleave appends
        # and duplicate edges.
        program = generate("stencil", 16, 40).program
        region = program.regions[0]
        cache = AnalysisCache()
        graph = label_region(region, program=program, cache=cache).dependences
        assert graph._pending, "labeling should leave the edges unbuilt"
        refs = region.references
        barrier = threading.Barrier(THREADS, timeout=30)

        def query(worker):
            barrier.wait()
            if worker % 3 == 0:
                edges = list(graph)
            elif worker % 3 == 1:
                size = len(graph)
                edges = list(graph)
                assert size == len(edges)
            else:
                by_sink = [d for ref in refs for d in graph.deps_with_sink(ref)]
                edges = list(graph)
                assert sorted(map(id, by_sink)) == sorted(map(id, edges))
            return edges

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(query, t) for t in range(THREADS)]
            seen = [future.result(timeout=60) for future in futures]

        first = seen[0]
        keys = [(d.source.uid, d.sink.uid, d.kind, d.scope) for d in first]
        assert len(keys) == len(set(keys)) > 1000
        for edges in seen[1:]:
            assert len(edges) == len(first)
            assert all(a is b for a, b in zip(edges, first))

    def test_threads_share_one_graphs_intra_source_memo(self, tight_switching):
        # A pattern table merges a pattern's intra-source positions on the
        # first query and memoizes them on the shared graph.  Threads
        # querying a fresh graph at once must all get the answers of a
        # graph queried by one thread.
        region = generate("reduction", 16, 40).region
        fresh = analyze_dependences(region)
        expected = [[id(s) for s in fresh.intra_sources_into(ref)] for ref in region.references]
        assert sum(map(len, expected)) > 1000
        for _ in range(10):
            graph = analyze_dependences(region)
            barrier = threading.Barrier(THREADS, timeout=30)

            def query(worker):
                barrier.wait()
                return [[id(s) for s in graph.intra_sources_into(ref)]
                        for ref in region.references[worker % 2:] + region.references]

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(query, t) for t in range(THREADS)]
                seen = [future.result(timeout=60) for future in futures]
            for worker, answers in enumerate(seen):
                assert answers == expected[worker % 2:] + expected
