"""Benchmark subsystem tests: generators, engine rows, CLI output."""

import json

import pytest

from repro.bench import FAMILIES, generate, generate_suite
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


class TestEngineRows:
    def test_rows_carry_op_stepped_dynamics(self):
        # The scenario runs the op-stepped executor: stencil's
        # cross-segment reads are violated mid-attempt and roll back
        # (batched attempts would validate post hoc with none).
        from repro.bench.engines import measure_engine_family

        entry = measure_engine_family(generate("stencil", 10, 2), capacities=(64,))
        for side in ("hose", "case"):
            row = entry["capacities"]["64"][side]
            assert row["matches_sequential"] is True
            assert row["violations"] > 0
            assert row["rollbacks"] > 0
            assert not any(key.startswith("batch") for key in row)


class TestCLI:
    def test_smoke_run_writes_json(self, tmp_path):
        out = tmp_path / "BENCH_results.json"
        code = bench_main(["--smoke", "--out", str(out), "--families", "stencil"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["meta"]["smoke"] is True
        assert "families" not in report
        assert report["engines"]["families"]["stencil"]["capacities"]
        assert report["speedup"]["families"]["stencil"]["configs"]
        assert "stencil" in report["chaos"]["programs"]
        assert report["chaos"]["unrecovered"] == []
        assert sorted(FAMILIES) == sorted(
            ["guarded", "reduction", "sparse", "stencil"]
        )

    def test_list_scenarios(self, capsys):
        assert bench_main(["--list-scenarios"]) == 0
        captured = capsys.readouterr().out
        names = [line.split()[0] for line in captured.splitlines()]
        assert names == ["chaos", "engines", "speedup"]

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

    def test_check_speedup_requires_the_overflow_capacity(self, tmp_path):
        # Without capacity 8 in the sweep the overflow gate has nothing
        # to check: it fails instead of passing vacuously.
        out = tmp_path / "unbounded.json"
        code = bench_main(
            [
                "--smoke",
                "--scenarios",
                "speedup",
                "--families",
                "reduction",
                "--speedup-capacities",
                "64",
                "--check-speedup",
                "--out",
                str(out),
            ]
        )
        assert code == 1

    def test_overflow_gate_rejects_case_level_with_hose(self):
        from repro.bench.speedup import check_overflow_speedup

        def row(window, capacity, hose, case):
            return {
                "window": window,
                "capacity": capacity,
                "hose": {"processors": {"4": {"speedup": hose}}},
                "case": {"processors": {"4": {"speedup": case}}},
            }

        # The op-stepped smoke values pass; the compiled executor's
        # optimistic HOSE (3.28x against 3.30x) fails at that window.
        configs = {
            "w4_c8": row(4, 8, 1.195, 3.301),
            "w8_c8": row(8, 8, 3.28, 3.30),
            "w8_c64": row(8, 64, 3.297, 3.305),
        }
        failures = check_overflow_speedup({"families": {"reduction": {"configs": configs}}})
        assert len(failures) == 1
        assert "window 8" in failures[0]

    def test_check_speedup_requires_speedup_scenario(self):
        assert (
            bench_main(["--scenarios", "engines", "--check-speedup"]) == 2
        )

    def test_check_speedup_rejects_verify_engines(self):
        # --verify-engines returns before the speedup scenario; the
        # combination must be refused, not silently skipped.
        assert bench_main(["--verify-engines", "--check-speedup"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--scenarios", "serve"],
            ["--scenarios", "precision"],
            ["--scenarios", "families"],
            ["--no-batch"],
        ],
    )
    def test_removed_scenarios_and_options_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(argv)
        assert excinfo.value.code == 2
