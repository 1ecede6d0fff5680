"""Dependence analyzer tests: loop-carried recurrences, signature relations,
emission plans, edge records, access coverage, caching."""

import copy
import itertools
import pickle

import pytest

from repro.analysis.access import (
    reference_is_deterministic,
    summarize_segment,
    write_covers_read,
)
from repro.analysis.cache import AnalysisCache
from repro.analysis.dependence import (
    DependenceAnalyzer,
    SignatureIndex,
    analyze_dependences,
    relation_of_reference_pair,
)
from repro.analysis.dependence.graph import Dependence, DependenceGraph
from repro.analysis.readonly import read_only_variables
from repro.bench.workloads import FAMILIES, generate
from repro.corpus.generator import corpus
from repro.idempotency.labeling import label_region
from repro.ir.dsl import parse_program
from repro.ir.region import LoopRegion
from repro.ir.types import AccessType, DependenceKind, DependenceScope, NodeMark


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
    """Subscript tests decide aliasing element by element."""

    def test_element_finds_loop_carried_recurrence(self):
        region = parse_program(STENCIL).regions[0]
        graph = analyze_dependences(region)
        cross_vars = graph.variables_with_cross_segment_dependences()
        assert "s" in cross_vars
        # b is written at b(i, j) and read at b(2, j): same j only.
        assert "b" not in cross_vars


class TestSignatureRelations:
    def test_relations_match_pairwise_test_on_all_bench_families(self):
        # The signature index is the analyzer's only relation source for
        # loop regions; the per-pair subscript test is its reference.
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

    def test_invalidate_drops_entries(self):
        region = generate("stencil", 16, 4).region
        cache = AnalysisCache()
        label_region(region, cache=cache)
        assert len(cache) > 0
        cache.invalidate(region)
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Emission plans, O(1) insertion and the per-reference dims memo
# ----------------------------------------------------------------------
# Patterns a plan key must tell apart: equal affine forms written
# differently (``j + 1`` / ``1 + j``: the same signature group, but only
# identical text pins the shared index), the same subscripts under two
# sibling inner loops (equal but distinct ``Do`` tuples), and a pair that
# shares no inner loop.
PATTERNS = """
program plans
  real a(40), b(40, 8), c(8)
  region R do i = 1, 8
    do j = 1, 4
      a(j + 1) = a(j + 1) + 1.0
      a(j + 1) = a(1 + j) * 2.0
      b(j + 1, i) = b(j + 1, i) + a(j + 1)
    end do
    do j = 1, 4
      a(j + 1) = b(1 + j, i) + a(j + 1)
    end do
    c(i) = a(2) + c(i)
    liveout a, b, c
  end region
end program
"""


# Read coverage: writes of one subscript under one loop (a group), a
# conditional write between them, reads under a sibling loop and outside
# any inner loop (covered through loop expansion), constant subscripts
# and scalars.
COVERAGE = """
program cover
  real a(40), b(40, 8), s
  region R do i = 1, 8
    do j = 1, 4
      a(j) = 1.0
      if (s > 0.5) a(j + 1) = 2.0
      a(j) = a(j) + a(j + 1)
      b(j, i) = a(j)
    end do
    do j = 1, 4
      s = a(j) + b(j, i) + a(j + 1)
    end do
    a(2) = b(3, i)
    s = a(2) + a(3) + s
    do t = 1, 4
      a(t) = a(2) + a(t) + b(t, i)
    end do
    liveout a, b, s
  end region
end program
"""


@pytest.fixture(scope="module")
def programs():
    """Every bench family (a few-statement and a 40-statement nest), the
    plan-key and coverage patterns above and a seeded fuzz batch."""
    out = [
        generate(family, size, statements).program
        for family in FAMILIES
        for size, statements in ((24, 6), (16, 40))
    ]
    out.append(parse_program(PATTERNS))
    out.append(parse_program(COVERAGE))
    out += [program for _, program in corpus(200, 20261017)]
    return out


@pytest.fixture(scope="module")
def loop_regions(programs):
    """(region, private variables, read-only variables) of every loop
    region, as the labeling pipeline derives them."""
    out = []
    for program in programs:
        for region in program.regions:
            if isinstance(region, LoopRegion):
                facts = label_region(region, program=program)
                out.append((region, facts.private_vars, facts.read_only_vars))
    return out


def _fields(graph):
    return [
        (d.source, d.sink, d.kind, d.scope, d.variable, d.distance)
        for d in graph
    ]


def _per_pair_graph(analyzer, region, private, read_only):
    """The loop-region graph built by the per-pair decision function alone:
    :meth:`DependenceAnalyzer._emit_loop_dependences` on every pair, in the
    order the analyzer visits them."""
    graph = DependenceGraph(region.name)
    index = SignatureIndex(region=region, invariant_symbols=frozenset(read_only))
    invariant = set(read_only) | {region.index}
    memo = {}
    by_var = {}
    for ref in region.references:
        by_var.setdefault(ref.variable, []).append(ref)
    for variable, refs in by_var.items():
        if all(r.access is AccessType.READ for r in refs):
            continue
        refs = sorted(refs, key=lambda r: r.order)
        for i, j in itertools.combinations_with_replacement(range(len(refs)), 2):
            a, b = refs[i], refs[j]
            if a.access is AccessType.READ and b.access is AccessType.READ:
                continue
            analyzer._emit_loop_dependences(
                graph, a, b, index.relations_of(a, b), variable, private,
                invariant, memo,
            )
    return graph


class TestEmissionPlans:
    def test_loop_graph_equals_per_pair_oracle(self, loop_regions):
        analyzer = DependenceAnalyzer()
        edges = 0
        for region, private_vars, read_only in loop_regions:
            for private in (set(), private_vars):
                graph = analyzer.analyze(
                    region, private_variables=private, read_only=read_only
                )
                oracle = _per_pair_graph(analyzer, region, private, read_only)
                assert _fields(graph) == _fields(oracle), region.name
                for ref in region.references:
                    assert graph.deps_with_sink(ref) == oracle.deps_with_sink(ref)
                    assert graph.deps_with_source(ref) == oracle.deps_with_source(ref)
                edges += len(graph)
        assert len(loop_regions) > 200 and edges > 0

    def test_loop_pass_emits_no_duplicate_edge(self, loop_regions):
        analyzer = DependenceAnalyzer()
        for region, private, read_only in loop_regions:
            graph = analyzer.analyze(
                region, private_variables=private, read_only=read_only
            )
            keys = [(d.source.uid, d.sink.uid, d.kind, d.scope) for d in graph]
            assert len(keys) == len(set(keys)), region.name

    def test_add_still_merges_duplicates(self):
        region = parse_program(STENCIL).regions[0]
        graph = analyze_dependences(region)
        merged = DependenceGraph(region.name, list(graph) + list(graph))
        assert _fields(merged) == _fields(graph)


def _assert_compact_queries_equal_edges(graph, region):
    """The compact answers, asked before the first list query builds the
    edges, equal what the built edges say."""
    has_cross = graph.has_cross_segment_dependences()
    answers = [
        (graph.is_cross_segment_sink(ref),
         [id(s) for s in graph.intra_sources_into(ref)])
        for ref in region.references
    ]
    edges = list(graph)
    assert has_cross == any(d.is_cross_segment for d in edges)
    for ref, answer in zip(region.references, answers):
        into = [d for d in edges if d.sink is ref]
        assert answer == (
            any(d.is_cross_segment for d in into),
            [id(d.source) for d in into if not d.is_cross_segment],
        ), (region.name, ref.uid)


# Two variables whose references share pattern ids (equal subscripts and
# loops, so equal signature groups) in opposite orders: ``a`` has its
# write pattern before its read pattern, ``b`` the other way round.
SHARED = """
program shared
  real a(40), b(40)
  region R do i = 1, 8
    do j = 1, 4
      a(j) = b(j + 1) + b(j + 1)
      b(j) = a(j + 1) + a(j + 1) + a(j)
    end do
    a(i) = a(i) + b(i) + a(i - 1)
    liveout a, b
  end region
end program
"""


def _order_blocks(merge):
    """SHARED's region with the orders of every ``merge`` consecutive
    references made equal (order blocks, some holding several references
    of one pattern)."""
    region = parse_program(SHARED).regions[0]
    for ref in region.references:
        ref.order //= merge
    return region


class TestCompactQueries:
    def test_compact_queries_equal_materialized_edges(self, loop_regions):
        analyzer = DependenceAnalyzer()
        for region, private_vars, read_only in loop_regions:
            for private in (set(), private_vars):
                graph = analyzer.analyze(
                    region, private_variables=private, read_only=read_only
                )
                _assert_compact_queries_equal_edges(graph, region)

    def test_shared_patterns_and_order_blocks(self):
        analyzer = DependenceAnalyzer()
        for merge in (1, 2, 3):
            region = _order_blocks(merge)
            read_only = read_only_variables(region)
            orders = [ref.order for ref in region.references]
            assert merge == 1 or len(set(orders)) < len(orders)
            for private in (set(), {"b"}):
                graph = analyzer.analyze(
                    region, private_variables=private, read_only=read_only
                )
                if not private:  # a private ``b`` has patterns of its own
                    tables = graph._tables
                    assert set(tables["a"].pats) & set(tables["b"].pats)
                _assert_compact_queries_equal_edges(graph, region)
                oracle = _per_pair_graph(analyzer, region, private, read_only)
                assert _fields(graph) == _fields(oracle), (merge, private)
                assert len(graph) > 0

    def test_labeling_a_loop_region_builds_no_dependence(self, monkeypatch):
        built = []
        init = Dependence.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Dependence, "__init__", counting_init)
        total = 0
        for family in FAMILIES:
            for size, statements in ((24, 6), (16, 40)):
                program = generate(family, size, statements).program
                region = program.regions[0]
                assert isinstance(region, LoopRegion)
                result = label_region(region, program=program)
                assert not built, family
                # The counter sees the edges once a list query builds them.
                edges = len(result.dependences)
                assert len(built) == edges
                built.clear()
                total += edges
        assert total > 0


class TestDependenceRecord:
    def _pair(self):
        region = parse_program(STENCIL).regions[0]
        write, read = region.references[-1], region.references[0]
        return [
            Dependence(
                source=write,
                sink=read,
                kind=DependenceKind.FLOW,
                scope=DependenceScope.CROSS_SEGMENT,
                variable="s",
                distance=distance,
            )
            for distance in (None, None, 1)
        ]

    def test_value_equality_and_hash(self):
        first, same, other = self._pair()
        assert first is not same
        assert first == same and hash(first) == hash(same)
        assert first != other
        assert len({first, same, other}) == 2
        assert first.distance is None  # the default survives the rebuild

    def test_repr_and_frozen(self):
        first, _, other = self._pair()
        assert repr(other) == f"<Dep {other.describe()}>"
        assert "distance=1" in repr(other)
        with pytest.raises(AttributeError):
            first.kind = DependenceKind.ANTI

    def test_slotted(self):
        first, _, _ = self._pair()
        assert not hasattr(first, "__dict__")
        assert Dependence.__qualname__ == "Dependence"

    def test_pickle_and_copy(self):
        # References compare by identity, so a pickled or deep-copied
        # edge is compared through its endpoints' uids.
        def key(dep):
            return (dep.source.uid, dep.sink.uid, dep.kind, dep.scope,
                    dep.variable, dep.distance)

        first, _, other = self._pair()
        for dep in (first, other):
            clone = pickle.loads(pickle.dumps(dep))
            assert type(clone) is Dependence and key(clone) == key(dep)
            assert key(copy.deepcopy(dep)) == key(dep)
            assert copy.copy(dep) == dep
            # One pickle keeps one reference graph: endpoints stay shared.
            a, b = pickle.loads(pickle.dumps((dep, dep.source)))
            assert a.source is b


def _per_pair_coverage(info, region_index, read_only):
    """Marks, covered/exposed reads and covering writes from
    :func:`write_covers_read` on every (write, read) pair, no memo."""
    covered, exposed, covering = [], [], {}
    for read in info.reads:
        write = next(
            (w for w in info.writes if write_covers_read(w, read, region_index, read_only)),
            None,
        )
        if write is None:
            exposed.append(read)
        else:
            covered.append(read)
            covering[read.uid] = write
    if exposed:
        mark = NodeMark.READ
    elif any(not w.conditional for w in info.writes):
        mark = NodeMark.WRITE
    else:
        mark = NodeMark.NULL
    return mark, covered, exposed, covering


class TestAccessDimsMemo:
    def test_summaries_match_per_pair_coverage(self, programs):
        reads = 0
        for program in programs:
            for region in program.regions:
                region_index = region.index if isinstance(region, LoopRegion) else None
                read_only = read_only_variables(region)
                for name in region.segment_names():
                    summary = summarize_segment(
                        region.segment_references(name),
                        segment=name,
                        region_index=region_index,
                        read_only_vars=read_only,
                    )
                    for info in summary.variables.values():
                        expected = _per_pair_coverage(info, region_index, read_only)
                        assert (
                            info.mark,
                            info.covered_reads,
                            info.exposed_reads,
                            info.covering_writes,
                        ) == expected, (region.name, name, info.variable)
                        reads += len(info.reads)
        assert reads > 1000


# ``a(j)`` twice: under ``do j`` the subscript is the loop's index, after
# the loop it reads the scalar ``j``, which the region writes.
SHADOWED_INDEX = """
program shadowed
  real a(8), x(8), j
  region R do k = 1, 8
    j = x(k)
    do j = 1, 4
      a(j) = 1.0
    end do
    a(j) = 2.0
    liveout a
  end region
end program
"""


class TestDeterminismMemo:
    """``summarize_segment`` decides address determinism once per
    (subscripts, enclosing loops); its oracle is
    :func:`reference_is_deterministic` on every reference."""

    @staticmethod
    def _check(program):
        variables = 0
        for region in program.regions:
            region_index = region.index if isinstance(region, LoopRegion) else None
            read_only = read_only_variables(region)
            for name in region.segment_names():
                refs = region.segment_references(name)
                summary = summarize_segment(refs, name, region_index, read_only)
                for variable, info in summary.variables.items():
                    expected = all(
                        reference_is_deterministic(r, region_index, read_only)
                        for r in refs
                        if r.variable == variable
                    )
                    assert info.deterministic == expected, (region.name, variable)
                    variables += 1
        return variables

    def test_equal_subscripts_under_different_loops(self):
        program = parse_program(SHADOWED_INDEX)
        (region,) = program.regions
        writes = [r for r in region.references if r.variable == "a"]
        assert [str(s) for w in writes for s in w.subscripts] == ["j", "j"]
        assert [len(w.enclosing_loops) for w in writes] == [1, 0]
        self._check(program)
        summary = summarize_segment(
            region.references, "<iteration>", region.index, read_only_variables(region)
        )
        assert not summary.variables["a"].deterministic

    def test_corpus(self):
        assert sum(self._check(program) for _, program in corpus(300, 7)) > 1000
