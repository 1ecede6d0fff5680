"""Dependence analyzer tests: granularity modes, signature relations, caching."""

from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence import (
    DependenceGranularity,
    SignatureIndex,
    analyze_dependences,
    relation_of_reference_pair,
)
from repro.analysis.readonly import read_only_variables
from repro.bench.workloads import FAMILIES, generate
from repro.idempotency.labeling import label_region
from repro.ir.dsl import parse_program
from repro.ir.types import AccessType


def dep_set(graph):
    return {
        (d.source.uid, d.sink.uid, d.kind.value, d.scope.value, d.distance)
        for d in graph
    }


STENCIL = """
program t
  real a(20, 20) = 1.0, b(20, 20)
  region SWEEP do j = 2, 19
    do i = 2, 19
      b(i, j) = 0.25 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
    s(j) = s(j-1) + b(2, j)
    liveout b, s
  end region
end program
"""


class TestGranularity:
    def test_element_vs_variable(self):
        region = parse_program(STENCIL).regions[0]
        element = analyze_dependences(
            region, granularity=DependenceGranularity.ELEMENT
        )
        variable = analyze_dependences(
            region, granularity=DependenceGranularity.VARIABLE
        )
        # VARIABLE granularity treats every same-variable pair as
        # may-aliasing, so it can only add dependences.
        assert dep_set(element) <= dep_set(variable)
        assert len(variable) > len(element)

    def test_element_finds_loop_carried_recurrence(self):
        region = parse_program(STENCIL).regions[0]
        graph = analyze_dependences(region)
        cross_vars = graph.variables_with_cross_segment_dependences()
        assert "s" in cross_vars
        # b is written at b(i, j) and read at b(2, j): same j only.
        assert "b" not in cross_vars


class TestSignatureRelations:
    def test_relations_match_pairwise_test_on_all_bench_families(self):
        # The signature index is the only relation source the analyzer
        # uses at ELEMENT granularity; the per-pair subscript test is
        # its reference.
        for family in FAMILIES:
            region = generate(family, 24, 6).region
            read_only = read_only_variables(region)
            index = SignatureIndex(
                region=region, invariant_symbols=frozenset(read_only)
            )
            refs = region.references
            pairs = 0
            for a in refs:
                for b in refs:
                    if a.variable != b.variable or (
                        a.access is AccessType.READ and b.access is AccessType.READ
                    ):
                        continue
                    pairs += 1
                    assert index.relations_of(a, b) == relation_of_reference_pair(
                        a, b, region, read_only
                    ), (family, a.uid, b.uid)
            assert pairs > 0, family


class TestAnalysisCache:
    def test_repeated_labeling_hits_cache(self):
        region = generate("stencil", 16, 4).region
        cache = AnalysisCache()
        first = label_region(region, cache=cache)
        misses_after_first = cache.misses
        second = label_region(region, cache=cache)
        assert second.labels == first.labels
        assert cache.misses == misses_after_first  # nothing recomputed
        assert cache.hits > 0

    def test_cache_distinguishes_granularity(self):
        region = generate("stencil", 16, 4).region
        cache = AnalysisCache()
        element = analyze_dependences(region, cache=cache)
        variable = analyze_dependences(
            region, granularity=DependenceGranularity.VARIABLE, cache=cache
        )
        assert dep_set(element) != dep_set(variable)

    def test_invalidate_drops_entries(self):
        region = generate("stencil", 16, 4).region
        cache = AnalysisCache()
        label_region(region, cache=cache)
        assert len(cache) > 0
        cache.invalidate(region)
        assert len(cache) == 0
