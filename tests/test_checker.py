"""Differential label-soundness checker tests.

Covers the checker itself: the generic dataflow solver and statement
CFG, the static re-derivation agreeing with production on clean
programs, the dynamic trace/replay oracles, the severity judgments
(known-unsound labelings flagged, known-conservative ones not), the
mutation self-test, the seeded program generator, and the IR lint pass.
"""

import pytest

from repro.analysis.checker import (
    CheckConfig,
    DataflowProblem,
    build_segment_cfg,
    check_program,
    mutation_check,
    rederive_region,
    replay_check,
    solve_dataflow,
)
from repro.analysis.checker.differential import _MutatedLabeling, check_region
from repro.analysis.checker.oracle import run_trace
from repro.analysis.checker.rederive import compare_region
from repro.analysis.checker.stmt_cfg import (
    ASSIGN,
    BRANCH,
    JOIN,
    LOOP_BACK,
    LOOP_EXIT,
    LOOP_HEAD,
)
from repro.corpus import corpus, generate_program, generate_source
from repro.idempotency.labeling import label_program
from repro.ir.dsl import parse_program
from repro.ir.validate import validate_program


def parse(src: str):
    return parse_program(src)


CLEAN_SRC = """
program clean
real a(16)
real b(16)
real s

init
  do t = 1, 16
    a(t) = t
  end do
  do t = 1, 16
    b(t) = 2 * t
  end do
  s = 0.0
end init

region R0 do i = 1, 4
  b(i) = a(i) + 1.0
end region

region R1 do i = 1, 4
  a(i + 4) = b(i)
end region

finale
  s = s + b(3) + a(6)
end finale
end program
"""

HAZARD_SRC = """
program hazard
real a(16)
real s

init
  do t = 1, 16
    a(t) = t
  end do
  s = 0.0
end init

region R0 do i = 1, 4
  a(i + 1) = a(i) + 1.0
  s = s + a(i + 1)
end region

finale
  s = s + a(5)
end finale
end program
"""


# ----------------------------------------------------------------------
# Dataflow framework
# ----------------------------------------------------------------------
class _Reaching(DataflowProblem):
    """Forward may-union toy problem over string nodes."""

    direction = "forward"

    def __init__(self, gens):
        self.gens = gens

    def boundary(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, node, value):
        return value | frozenset(self.gens.get(node, ()))


class TestDataflow:
    def test_forward_join_over_diamond(self):
        nodes = ["e", "l", "r", "x"]
        succ = {"e": ["l", "r"], "l": ["x"], "r": ["x"], "x": []}
        pred = {"e": [], "l": ["e"], "r": ["e"], "x": ["l", "r"]}
        sol = solve_dataflow(
            nodes,
            lambda n: succ[n],
            lambda n: pred[n],
            _Reaching({"l": ["L"], "r": ["R"]}),
            ["e"],
        )
        assert sol["x"][0] == frozenset({"L", "R"})

    def test_unreachable_node_gets_none(self):
        nodes = ["e", "dead"]
        sol = solve_dataflow(
            nodes,
            lambda n: [],
            lambda n: [],
            _Reaching({}),
            ["e"],
        )
        assert sol["dead"] == (None, None)


class TestStmtCFG:
    def test_if_else_is_a_diamond(self):
        program = parse(
            """
            program p
            real a(4)
            real s
            init
              s = 0.0
            end init
            region R do i = 1, 2
              if (s > 1.0) then
                a(i) = 1.0
              else
                a(i) = 2.0
              end if
            end region
            finale
              s = a(1)
            end finale
            end program
            """
        )
        cfg = build_segment_cfg(program.regions[0].body)
        kinds = [n.kind for n in cfg.nodes]
        assert kinds.count(BRANCH) == 1
        assert kinds.count(JOIN) == 1
        assert kinds.count(ASSIGN) == 2
        branch = next(n for n in cfg.nodes if n.kind == BRANCH)
        assert len(cfg.successors(branch)) == 2

    def test_do_loop_has_back_and_exit_edges(self):
        program = parse(
            """
            program p
            real a(8)
            real s
            init
              s = 0.0
            end init
            region R do i = 1, 2
              do t = 1, 3
                a(t) = s
              end do
            end region
            finale
              s = a(1)
            end finale
            end program
            """
        )
        cfg = build_segment_cfg(program.regions[0].body)
        kinds = [n.kind for n in cfg.nodes]
        assert LOOP_HEAD in kinds and LOOP_BACK in kinds and LOOP_EXIT in kinds
        head = next(n for n in cfg.nodes if n.kind == LOOP_HEAD)
        # Provable trip >= 1: no skip edge around the body.
        assert len(cfg.successors(head)) == 1


# ----------------------------------------------------------------------
# Static re-derivation
# ----------------------------------------------------------------------
class TestRederive:
    def test_clean_program_has_no_aggressive_diffs(self):
        program = parse(CLEAN_SRC)
        labelings = label_program(program)
        for region in program.regions:
            facts = rederive_region(region, program=program)
            diffs = compare_region(labelings[region.name], facts)
            aggressive = [
                d for d in diffs if d.direction == "production-aggressive"
            ]
            assert aggressive == []

    def test_exact_enumeration_on_const_bounds(self):
        program = parse(CLEAN_SRC)
        facts = rederive_region(program.regions[0], program=program)
        assert facts.exact

    def test_branch_read_after_must_kill_is_not_exposed(self):
        """A branch condition evaluates after its segment's body.

        ``rederive_live_out`` used to add branch-read variables to the
        segment's exposed set even when the body must-killed them
        first, keeping ``u`` falsely live out of R0 (false suspect on
        fuzzed program 210 of seed 20260807).
        """
        from repro.analysis.checker.rederive import rederive_live_out

        program = parse(
            """
            program branchkill
            real a(8)
            real u

            init
              do t = 1, 8
                a(t) = t
              end do
              u = 0.5
            end init

            region R0 do i = 1, 4
              u = a(i)
            end region

            region R1 explicit
              segment S0
                u = a(1) + 1.0
                branch u > 1.0
              end segment
              segment S1
                a(2) = u
              end segment
              segment S2
                a(3) = u
              end segment
              edges S0 -> S1
              edges S0 -> S2
            end region

            finale
              u = u + a(2)
            end finale
            end program
            """
        )
        live = rederive_live_out(program)
        assert "u" not in live["R0"]

    def test_symbolic_bounds_fall_back_conservatively(self):
        program = parse(
            """
            program sym
            real a(16)
            real s
            integer n

            init
              n = 4
              s = 0.0
            end init

            region R do i = 1, n
              a(i) = s
            end region

            finale
              s = a(1)
            end finale
            end program
            """
        )
        facts = rederive_region(program.regions[0], program=program)
        assert not facts.exact
        assert facts.notes  # the fallback is reported


# ----------------------------------------------------------------------
# Dynamic oracles
# ----------------------------------------------------------------------
class TestOracles:
    def test_trace_oracle_sees_cross_iteration_flow(self):
        program = parse(HAZARD_SRC)
        oracle = run_trace(program)
        facts = oracle.facts["R0"]
        # a(i) reads the a(i) written by the previous iteration.
        assert facts.cross_flow_sink_uids
        assert facts.cross_value_hazard_write_uids

    def test_trace_oracle_clean_on_independent_region(self):
        program = parse(CLEAN_SRC)
        oracle = run_trace(program)
        for facts in oracle.facts.values():
            assert not facts.cross_flow_sink_uids
            assert not facts.rfw_violation_uids

    def test_replay_matches_sequential_on_clean_program(self):
        program = parse(CLEAN_SRC)
        labelings = label_program(program)
        report = replay_check(program, labelings)
        assert report.ok, report.mismatches

    def test_replay_catches_injected_idempotent_write(self):
        program = parse(HAZARD_SRC)
        labelings = label_program(program)
        region = program.regions[0]
        labeling = labelings["R0"]
        oracle = run_trace(program)
        hazards = oracle.facts["R0"].cross_flow_sink_uids | oracle.facts[
            "R0"
        ].rfw_violation_uids | oracle.facts["R0"].cross_value_hazard_write_uids
        flipped = next(
            uid
            for uid in sorted(hazards)
            for ref in region.references
            if ref.uid == uid
            and ref.is_write
            and not labeling.is_idempotent(ref)
        )
        mutated = dict(labelings)
        mutated["R0"] = _MutatedLabeling(labeling, flipped)
        report = replay_check(program, mutated)
        assert not report.ok


# ----------------------------------------------------------------------
# Differential judgment
# ----------------------------------------------------------------------
class TestJudgment:
    def test_clean_program_checks_ok(self):
        report = check_program(parse(CLEAN_SRC))
        assert report.ok
        assert report.count("unsound") == 0
        assert report.replay_ok

    def test_production_labels_on_hazard_program_are_sound(self):
        report = check_program(parse(HAZARD_SRC))
        assert report.ok, [
            f.as_dict()
            for r in report.regions
            for f in r.findings
            if f.severity == "unsound"
        ]

    def test_known_unsound_labeling_is_flagged(self):
        program = parse(HAZARD_SRC)
        labelings = label_program(program)
        labeling = labelings["R0"]
        region = program.regions[0]
        oracle = run_trace(program)
        dyn = oracle.facts["R0"]
        hazards = sorted(dyn.cross_flow_sink_uids | dyn.rfw_violation_uids)
        flipped = next(
            uid
            for uid in hazards
            if not labeling.is_idempotent(
                next(r for r in region.references if r.uid == uid)
            )
        )
        mutated = _MutatedLabeling(labeling, flipped)
        report = check_region(mutated, program, dyn, CheckConfig())
        assert any(
            f.severity == "unsound" and f.key == flipped
            for f in report.findings
        )

    def test_known_conservative_labeling_is_not_flagged(self):
        """Degrading an idempotent label to speculative is always sound."""

        class _Conservative:
            def __init__(self, base):
                self._base = base

            def __getattr__(self, name):
                return getattr(self._base, name)

            def is_idempotent(self, ref):
                return False

            @property
            def fully_independent(self):
                return False

        program = parse(CLEAN_SRC)
        labelings = label_program(program)
        oracle = run_trace(program)
        for region in program.regions:
            report = check_region(
                _Conservative(labelings[region.name]),
                program,
                oracle.facts.get(region.name),
                CheckConfig(),
            )
            assert report.count("unsound") == 0
            # The checker still reports the lost precision.
            assert report.count("precision") > 0

    def test_lemma7_region_reports_premise_not_rfw(self):
        """Fully independent accumulator: sound via Lemma 7, reported info."""
        program = parse(
            """
            program lemma7
            real a(8)
            real s

            init
              do t = 1, 8
                a(t) = t
              end do
              s = 0.0
            end init

            region R do i = 1, 3
              a(i) = 6.0 + a(i)
            end region

            finale
              s = s + a(2)
            end finale
            end program
            """
        )
        report = check_program(program)
        assert report.ok
        region = report.regions[0]
        assert region.count("unsound") == 0
        kinds = {f.kind for f in region.findings}
        assert "dynamic-not-reexecutable" in kinds

    def test_false_independence_claim_is_unsound(self):
        """Claiming full independence over a witnessed hazard must fail."""

        class _ClaimsIndependent:
            def __init__(self, base):
                self._base = base

            def __getattr__(self, name):
                return getattr(self._base, name)

            def is_idempotent(self, ref):
                return True

            @property
            def fully_independent(self):
                return True

        program = parse(HAZARD_SRC)
        labelings = label_program(program)
        oracle = run_trace(program)
        report = check_region(
            _ClaimsIndependent(labelings["R0"]),
            program,
            oracle.facts["R0"],
            CheckConfig(),
        )
        assert any(
            f.kind == "dynamic-independence-violation"
            and f.severity == "unsound"
            for f in report.findings
        )

    def test_mutation_check_catches_every_mutant(self):
        report = mutation_check(parse(HAZARD_SRC))
        assert report.mutants > 0
        assert report.ok, report.missed


# ----------------------------------------------------------------------
# Program generator
# ----------------------------------------------------------------------
class TestGenerator:
    def test_deterministic_per_seed_and_index(self):
        assert generate_source(7, 3) == generate_source(7, 3)
        assert generate_source(7, 3) != generate_source(7, 4)
        assert generate_source(7, 3) != generate_source(8, 3)

    def test_generated_programs_parse_and_execute(self):
        from repro.runtime.interpreter import run_program

        for _index, program in corpus(5, seed=1234):
            run_program(program, use_replay=False)

    def test_generated_programs_pass_the_checker(self):
        for index in range(3):
            report = check_program(generate_program(4321, index))
            assert report.ok, report.as_dict()


# ----------------------------------------------------------------------
# IR lint
# ----------------------------------------------------------------------
class TestLint:
    def test_constant_out_of_bounds_subscript_is_an_error(self):
        program = parse(
            """
            program oob
            real a(4)
            real s
            init
              s = 0.0
            end init
            region R do i = 1, 2
              s = s + a(9)
            end region
            finale
              s = s + a(1)
            end finale
            end program
            """
        )
        issues = validate_program(program, strict=False)
        assert any(
            issue.severity == "error" and "extent" in issue.message.lower()
            for issue in issues
        )

    def test_zero_trip_loop_is_a_warning(self):
        program = parse(
            """
            program zerotrip
            real a(4)
            real s
            init
              s = 0.0
            end init
            region R do i = 1, 2
              do t = 3, 1
                a(t) = s
              end do
              s = s + 1.0
            end region
            finale
              s = s + a(1)
            end finale
            end program
            """
        )
        issues = validate_program(program, strict=False)
        assert any(
            issue.severity == "warning" and "trip" in issue.message.lower()
            for issue in issues
        )

    def test_non_affine_subscript_is_reported_info(self):
        program = parse(
            """
            program nonaffine
            real a(8)
            integer idx(8)
            real s
            init
              do t = 1, 8
                idx(t) = t
              end do
              s = 0.0
            end init
            region R do i = 1, 2
              s = s + a(idx(i))
            end region
            finale
              s = s + a(1)
            end finale
            end program
            """
        )
        issues = validate_program(program, strict=False)
        assert any(
            issue.severity == "info" and "affine" in issue.message.lower()
            for issue in issues
        )

    def test_clean_program_has_no_lint_errors(self):
        issues = validate_program(parse(CLEAN_SRC), strict=False)
        assert not [i for i in issues if i.severity == "error"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_fuzz_batch_exits_zero(self, tmp_path, capsys):
        from repro.check.__main__ import main

        out = tmp_path / "report.json"
        code = main(["--fuzz", "3", "--seed", "99", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "OK" in captured.out

    def test_nothing_to_do_is_an_error(self):
        from repro.check.__main__ import main

        with pytest.raises(SystemExit):
            main([])
