"""Tests of the benchmark's own arithmetic and of its metric contract.

    python3 -m pytest perfbench
"""

import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

from arith import (
    Tally,
    covered_length,
    faster_half,
    fold,
    geomean,
    percentile,
    quartile_spread,
    samples_beyond,
    self_times,
    steady_figures,
    tail_counts,
)
from inputs import cold_pool, cold_request, mix_request, mix_sources

ROOT = Path(__file__).resolve().parent.parent


def span(span_id, parent_id, start, end, name="s"):
    return SimpleNamespace(span_id=span_id, parent_id=parent_id, start_ns=start,
                           end_ns=end, name=name, attributes={})


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([10, 0, 5], 50) == 5
        assert percentile(list(range(101)), 95) == 95

    def test_single_sample_and_extremes(self):
        assert percentile([7.0], 95) == 7.0
        assert percentile([3, 1, 2], 0) == 1
        assert percentile([3, 1, 2], 100) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_samples_beyond_p95(self):
        assert samples_beyond(20, 95) == 1
        assert samples_beyond(200, 95) == 10
        assert samples_beyond(0, 95) == 0

    def test_tail_counts_needs_ten_beyond(self):
        assert not tail_counts(100, 95)
        assert not tail_counts(180, 95)
        assert tail_counts(200, 95)
        assert tail_counts(20, 50)


class TestGeomean:
    def test_values(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([5]) == pytest.approx(5.0)
        assert geomean([1, 10, 100]) == pytest.approx(10.0)

    def test_rejects_empty_and_non_positive(self):
        for bad in ([], [1, 0], [2, -1]):
            with pytest.raises(ValueError):
                geomean(bad)


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered_length([(0, 5), (3, 8), (10, 12)], 0, 20) == 10
        assert covered_length([(0, 5), (1, 2)], 0, 20) == 5
        assert covered_length([(-5, 5), (8, 30)], 0, 10) == 7
        assert covered_length([(20, 30)], 0, 10) == 0
        assert covered_length([], 0, 10) == 0

    def test_nested_children(self):
        spans = [span(1, None, 0, 100), span(2, 1, 10, 40), span(3, 2, 20, 30),
                 span(4, 1, 50, 60)]
        got = {s.span_id: ns for s, ns in self_times(spans)}
        assert got == {1: 60, 2: 20, 3: 10, 4: 10}
        assert sum(got.values()) == 100

    def test_overlapping_children_count_once(self):
        spans = [span(1, None, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)]
        got = {s.span_id: ns for s, ns in self_times(spans)}
        assert got[1] == 40

    def test_child_running_past_its_parent_is_clipped(self):
        spans = [span(1, None, 0, 50), span(2, 1, 40, 80)]
        got = {s.span_id: ns for s, ns in self_times(spans)}
        assert got == {1: 40, 2: 40}

    def test_fold(self):
        table = fold([("a", 1.0), ("a", 3.0), ("b", 4.0)])
        assert table["a"] == {"count": 2, "total_ms": 4.0, "p50_ms": 2.0, "share": 0.5}
        assert table["b"]["share"] == 0.5


class TestTally:
    def test_error_share(self):
        tally = Tally()
        assert tally.error_share == 0.0
        for ok in (True, True, False, True):
            tally.record(ok, "bad")
        assert (tally.attempted, tally.failed) == (4, 1)
        assert tally.error_share == 0.25
        assert tally.reasons == ["bad"]

    def test_reasons_are_capped(self):
        tally = Tally()
        for i in range(Tally.MAX_REASONS + 5):
            tally.record(False, str(i))
        assert tally.failed == Tally.MAX_REASONS + 5
        assert len(tally.reasons) == Tally.MAX_REASONS


def test_quartile_spread_matches_statistics():
    values = [10, 11, 9, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert quartile_spread([5.0] * 10) == 0.0


class TestInputs:
    def test_same_seed_same_inputs(self):
        assert mix_sources(3) == mix_sources(3)
        assert cold_pool(3) == cold_pool(3)

    def test_seed_changes_names_not_work(self):
        a, b = cold_pool(1), cold_pool(2)
        assert [x.source for x in a] != [x.source for x in b]
        assert sorted((x.family, x.statements) for x in a) == sorted(
            (x.family, x.statements) for x in b)

    def test_cold_sources_never_repeat(self):
        pool = cold_pool(5)
        sources = {cold_request(pool, s, i)[1]["dsl"] for s in (0, 1) for i in range(200)}
        assert len(sources) == 400

    def test_cold_round_analyzes_and_labels_every_program_once(self):
        pool = cold_pool(5)
        for first in (0, len(pool), 5 * len(pool)):
            seen = sorted((cold_request(pool, s, n)[2].source, cold_request(pool, s, n)[0])
                          for s in (0, 1) for n in range(first, first + len(pool)))
            assert seen == sorted((b.source, m) for b in pool for m in ("analyze", "label"))

    def test_sessions_send_the_same_work_at_once(self):
        pool, sources = cold_pool(2), mix_sources(2)
        for n in range(40):
            assert cold_request(pool, 0, n)[2] == cold_request(pool, 1, n)[2]
            assert mix_request(sources, 0, n) == mix_request(sources, 1, n)


class TestSteadyFigures:
    def test_faster_half_keeps_rounds_up_to_the_median(self):
        assert faster_half([3.0, 1.0, 2.0, 5.0, 4.0]) == [0, 1, 2]
        assert faster_half([2.0, 1.0, 4.0, 3.0]) == [0, 1]
        assert faster_half([1.0, 1.0, 1.0]) == [0, 1, 2]

    def test_rate_and_median_from_the_faster_half_tail_from_all(self):
        rounds = [(2.0, [10.0, 30.0]), (1.0, [5.0, 15.0]), (4.0, [90.0, 99.0]),
                  (1.0, [20.0, 40.0])]
        got = steady_figures(rounds)
        assert got["req_per_s"] == pytest.approx(4 / 2.0)
        assert got["latency_p50_ms"] == pytest.approx(17.5)
        assert got["latency_p95_ms"] == pytest.approx(
            percentile([10, 30, 5, 15, 90, 99, 20, 40], 95))


def test_benchmark_json_matches_the_code():
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
