"""Benchmark subsystem tests: generators, harness, CLI output."""

import json

from repro.bench import FAMILIES, generate, generate_suite, measure_family
from repro.bench.__main__ import main as bench_main
from repro.runtime.interpreter import run_program


class TestWorkloads:
    def test_all_families_generate_and_run(self):
        for workload in generate_suite(size=12, statements=2):
            result = run_program(workload.program)
            assert result.stats.segments_committed > 0, workload.family

    def test_statement_knob_scales_references(self):
        small = generate("stencil", 16, 2)
        large = generate("stencil", 16, 6)
        assert len(large.region.references) > len(small.region.references)

    def test_unknown_family_rejected(self):
        try:
            generate("nonsense", 16)
        except ValueError as exc:
            assert "nonsense" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestHarness:
    def test_measure_family_smoke(self):
        workload = generate("reduction", 12, 2)
        result = measure_family(workload, min_seconds=0.01, min_repeats=1)
        assert result.analyze.per_second > 0
        assert result.simulate.per_second > 0
        assert result.replayed
        payload = result.as_dict()
        assert payload["family"] == "reduction"
        assert payload["references"] == len(workload.region.references)


class TestCLI:
    def test_smoke_run_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_results.json"
        code = bench_main(["--smoke", "--out", str(out), "--families", "stencil"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["smoke"] is True
        entry = report["families"]["stencil"]
        assert entry["analyze_refs_per_s"] > 0
        assert entry["simulate_ops_per_s"] > 0
        assert entry["replayed"] is True
        assert sorted(FAMILIES) == sorted(
            ["guarded", "reduction", "sparse", "stencil"]
        )

    def test_list_scenarios(self, capsys):
        assert bench_main(["--list-scenarios"]) == 0
        captured = capsys.readouterr().out
        for scenario in ("families", "engines", "speedup"):
            assert scenario in captured

    def test_scenario_selection_runs_only_speedup(self, tmp_path):
        out = tmp_path / "speedup.json"
        code = bench_main(
            [
                "--smoke",
                "--scenarios",
                "speedup",
                "--families",
                "reduction",
                "--processors",
                "1",
                "4",
                "--speedup-windows",
                "4",
                "--speedup-capacities",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["scenarios"] == ["speedup"]
        assert report["families"] == {}
        assert "engines" not in report
        entry = report["speedup"]["families"]["reduction"]
        assert entry["sequential_cycles"] > 0
        row = entry["configs"]["w4_cinf"]
        for side in ("hose", "case"):
            assert row[side]["matches_sequential"] is True
            assert row[side]["processors"]["4"]["speedup"] > 1

    def test_check_speedup_passes_on_smoke_sizes(self, tmp_path):
        out = tmp_path / "checked.json"
        code = bench_main(
            [
                "--smoke",
                "--scenarios",
                "speedup",
                "--families",
                "reduction",
                "--check-speedup",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        # The acceptance sweep: all four default processor counts.
        row = report["speedup"]["families"]["reduction"]["configs"]["w4_c64"]
        assert set(row["hose"]["processors"]) == {"1", "2", "4", "8"}

    def test_check_speedup_requires_speedup_scenario(self):
        assert (
            bench_main(["--scenarios", "engines", "--check-speedup"]) == 2
        )

    def test_check_speedup_rejects_verify_engines(self):
        # --verify-engines returns before the speedup scenario; the
        # combination must be refused, not silently skipped.
        assert bench_main(["--verify-engines", "--check-speedup"]) == 2

    def test_empty_scenario_selection_rejected(self):
        assert bench_main(["--scenarios", "engines", "--no-engines"]) == 2
