import json
import math

import numpy as np
import pytest

from steineradapt import ConvergenceError, cli, exact
from steineradapt.cli import run_cli
from steineradapt.documents import decode_instance, decode_report
from steineradapt.trees import GeometricConditionReport

EXAMPLE1 = {
    "format_version": 1,
    "terminals": [[0, 0], [1, 0], [0, 1]],
    "steiner": [[0.21132487, 0.21132487]],
    "edges": [["t0", "s0"], ["t1", "s0"], ["t2", "s0"]],
}


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(EXAMPLE1))
    return str(path)


# Names in ``exact`` replaced to make ``solve_exact`` fail each of its own
# checks: every topology unconverged, or a winner failing its conditions.
SOLVER_FAILURES = {
    "no converged topology": (
        "_minimize",
        lambda A, c, s0, *rest: (s0, math.inf, 0, False),
        "no topology produced a valid optimum",
    ),
    "winner fails its checks": (
        "check_geometric_conditions",
        lambda tree, angle_tol: GeometricConditionReport(1.0, 1.0, 0.0, satisfies_angle_condition=False),
        "failing its own validity checks",
    ),
}


def write_delta(tmp_path, pairs, name="delta.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"format_version": 1, "delta_t": pairs}))
    return str(path)


class TestAdaptCommand:
    def test_single_step_report_values(self, tmp_path, example1_file):
        delta = write_delta(tmp_path, [[0.1, 0], [0, 0], [0, 0]])
        out = tmp_path / "report.json"
        rc = run_cli(["adapt", "--instance", example1_file, "--delta", delta, "--steps", "1", "--out", str(out)])
        assert rc == 0
        report = decode_report(out.read_text())
        assert np.allclose(report.steps[0].delta_s, [0.0423, -0.0423], atol=5e-4)

    def test_ten_step_final_position(self, tmp_path, example1_file):
        delta = write_delta(tmp_path, [[0.4, 0], [0, 0], [0, 0]])
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = run_cli(
            ["adapt", "--instance", example1_file, "--delta", delta, "--steps", "10",
             "--out", str(out), "--trace", str(trace)]
        )
        assert rc == 0
        report = decode_report(out.read_text())
        assert np.allclose(report.final_tree.steiner_array(), [[0.433, 0.050]], atol=2e-3)
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 12

    def test_reports_identical_across_runs(self, tmp_path, example1_file):
        delta = write_delta(tmp_path, [[0.3, -0.1], [0, 0], [0.05, 0]])
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run_cli(["adapt", "--instance", example1_file, "--delta", delta, "--steps", "4", "--out", str(out_a)]) == 0
        assert run_cli(["adapt", "--instance", example1_file, "--delta", delta, "--steps", "4", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_aborted_run_exits_2(self, tmp_path):
        instance = tmp_path / "rect.json"
        rect = {
            "format_version": 1,
            "terminals": [[-1.5, 0.5], [-1.5, -0.5], [1.5, 0.5], [1.5, -0.5]],
            "steiner": [[-1.2113248654051871, 0.0], [1.2113248654051871, 0.0]],
            "edges": [["t0", "s0"], ["t1", "s0"], ["t2", "s1"], ["t3", "s1"], ["s0", "s1"]],
        }
        instance.write_text(json.dumps(rect))
        # shrink the rectangle far past the topology flip; the adaptive
        # default policy creeps into the collapse and aborts
        delta = write_delta(tmp_path, [[1.4, 0], [1.4, 0], [-1.4, 0], [-1.4, 0]])
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = run_cli(
            ["adapt", "--instance", instance.as_posix(), "--delta", delta,
             "--out", str(out), "--trace", str(trace)]
        )
        assert rc == 2
        report = decode_report(out.read_text())
        assert report.status.value == "aborted-degenerate-edge"
        rows = trace.read_text().strip().splitlines()
        assert len(rows) == len(report.steps) + 2

    def test_coincident_start_exits_2_with_standard_json(self, tmp_path):
        instance = tmp_path / "coincident.json"
        instance.write_text(json.dumps(dict(EXAMPLE1, steiner=[[0, 0]])))
        delta = write_delta(tmp_path, [[0.1, 0], [0, 0], [0, 0]])
        out = tmp_path / "report.json"
        rc = run_cli(["adapt", "--instance", str(instance), "--delta", delta, "--steps", "2", "--out", str(out)])
        assert rc == 2
        assert "Infinity" not in out.read_text()
        assert decode_report(out.read_text()).status.value == "aborted-degenerate-edge"

    def test_repeated_edge_exits_1(self, tmp_path):
        instance = tmp_path / "repeated.json"
        instance.write_text(json.dumps({"format_version": 1, "terminals": [[0, 0], [1, 0]],
                                        "edges": [["t0", "t1"], ["t1", "t0"]]}))
        assert run_cli(["check", "--instance", str(instance)]) == 1

    def test_trailing_newline_in_node_reference_exits_1(self, tmp_path):
        instance = tmp_path / "newline.json"
        instance.write_text(json.dumps(dict(EXAMPLE1, edges=[["t0\n", "s0"], ["t1", "s0"], ["t2", "s0"]])))
        assert run_cli(["check", "--instance", str(instance)]) == 1

    def test_mismatched_delta_exits_1(self, tmp_path, example1_file):
        delta = write_delta(tmp_path, [[0.1, 0]])
        rc = run_cli(["adapt", "--instance", example1_file, "--delta", delta, "--steps", "1",
                      "--out", str(tmp_path / "r.json")])
        assert rc == 1

    def test_conflicting_step_flags_exit_3(self, tmp_path, example1_file):
        delta = write_delta(tmp_path, [[0.1, 0], [0, 0], [0, 0]])
        rc = run_cli(["adapt", "--instance", example1_file, "--delta", delta,
                      "--steps", "2", "--max-step", "0.1", "--out", str(tmp_path / "r.json")])
        assert rc == 3

    def test_missing_file_exits_3(self, tmp_path):
        rc = run_cli(["adapt", "--instance", str(tmp_path / "nope.json"),
                      "--delta", str(tmp_path / "nope2.json"), "--out", str(tmp_path / "r.json")])
        assert rc == 3


class TestSolveCommand:
    def test_unit_square(self, tmp_path):
        instance = tmp_path / "square.json"
        instance.write_text(json.dumps({"format_version": 1, "terminals": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
        out = tmp_path / "solved.json"
        assert run_cli(["solve", "--instance", str(instance), "--out", str(out)]) == 0
        tree = decode_instance(out.read_text())
        from steineradapt import tree_length

        assert tree_length(tree) == pytest.approx(1 + math.sqrt(3), abs=1e-9)
        # a solve output always passes check
        assert run_cli(["check", "--instance", str(out)]) == 0

    @pytest.mark.parametrize("failure", sorted(SOLVER_FAILURES))
    def test_solver_failure_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, failure):
        name, replacement, message = SOLVER_FAILURES[failure]
        monkeypatch.setattr(exact, name, replacement)
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        with pytest.raises(ConvergenceError, match=message):
            exact.solve_exact(square)
        instance = tmp_path / "square.json"
        instance.write_text(json.dumps({"format_version": 1, "terminals": square}))
        out = tmp_path / "solved.json"
        assert run_cli(["solve", "--instance", str(instance), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_rejects_tree_instance(self, tmp_path, example1_file):
        assert run_cli(["solve", "--instance", example1_file, "--out", str(tmp_path / "o.json")]) == 1

    def test_rejects_too_many_terminals(self, tmp_path):
        instance = tmp_path / "many.json"
        instance.write_text(json.dumps({"format_version": 1,
                                        "terminals": [[i, i * i] for i in range(7)]}))
        assert run_cli(["solve", "--instance", str(instance), "--out", str(tmp_path / "o.json")]) == 1


class TestOracleOptimizeCommand:
    def test_reoptimizes_displaced_steiner(self, tmp_path):
        doc = dict(EXAMPLE1, steiner=[[0.4, 0.4]])
        instance = tmp_path / "displaced.json"
        instance.write_text(json.dumps(doc))
        out = tmp_path / "opt.json"
        rc = run_cli(["oracle-optimize", "--instance", str(instance), "--out", str(out), "--grad-tol", "1e-11"])
        assert rc == 0
        tree = decode_instance(out.read_text())
        assert np.allclose(tree.steiner_array(), [[0.21132487, 0.21132487]], atol=1e-8)


class TestCheckCommand:
    def test_valid_instance(self, example1_file, capsys):
        assert run_cli(["check", "--instance", example1_file, "--angle-tol", "0.01"]) == 0
        printed = capsys.readouterr().out
        assert "topology: ok" in printed
        assert "satisfies_angle_condition: true" in printed

    def test_sloppy_angles_fail_tight_tolerance(self, tmp_path):
        doc = dict(EXAMPLE1, steiner=[[0.3, 0.3]])
        instance = tmp_path / "sloppy.json"
        instance.write_text(json.dumps(doc))
        assert run_cli(["check", "--instance", str(instance), "--angle-tol", "1e-6"]) == 1

    def test_invalid_topology_reported(self, tmp_path, capsys):
        doc = dict(EXAMPLE1, edges=[["t0", "s0"], ["t1", "s0"]])
        instance = tmp_path / "broken.json"
        instance.write_text(json.dumps(doc))
        assert run_cli(["check", "--instance", str(instance)]) == 1

    def test_coincident_nodes_exit_2(self, tmp_path):
        doc = dict(EXAMPLE1, steiner=[[0.0, 0.0]])
        instance = tmp_path / "degenerate.json"
        instance.write_text(json.dumps(doc))
        assert run_cli(["check", "--instance", str(instance)]) == 2


class TestDerivativesCommand:
    def test_dump_contents(self, tmp_path, example1_file):
        out = tmp_path / "derivatives.json"
        assert run_cli(["derivatives", "--instance", example1_file, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")  # one compact line, like every document the CLI writes
        payload = json.loads(text)
        assert payload["cost"] == pytest.approx(1.932, abs=3e-3)
        hess = np.array(payload["hessian_ss"])
        assert np.allclose(hess, [[2.898, -1.061], [-1.061, 2.898]], atol=2e-3)
        assert np.array(payload["mixed_ts"]).shape == (2, 6)
        assert np.array(payload["sensitivity"]).shape == (2, 6)


class TestCompareCommand:
    def test_equal_to_itself(self, example1_file):
        assert run_cli(["compare", "--a", example1_file, "--b", example1_file]) == 0

    def test_different_pairings_exit_1(self, tmp_path):
        horizontal = {
            "format_version": 1,
            "terminals": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "steiner": [[0.3, 0.5], [0.7, 0.5]],
            "edges": [["t0", "s0"], ["t3", "s0"], ["t1", "s1"], ["t2", "s1"], ["s0", "s1"]],
        }
        vertical = {
            "format_version": 1,
            "terminals": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "steiner": [[0.5, 0.3], [0.5, 0.7]],
            "edges": [["t0", "s0"], ["t1", "s0"], ["t2", "s1"], ["t3", "s1"], ["s0", "s1"]],
        }
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(horizontal))
        b.write_text(json.dumps(vertical))
        assert run_cli(["compare", "--a", str(a), "--b", str(b)]) == 1


class TestUsageErrors:
    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == 3

    def test_missing_required_flag(self):
        assert run_cli(["solve", "--out", "x.json"]) == 3


class TestParserReuse:
    def test_two_calls_construct_one_parser(self, monkeypatch, example1_file):
        cli._parser.cache_clear()
        progs = []
        construct = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            construct(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        assert run_cli(["check", "--instance", example1_file, "--angle-tol", "0.01"]) == 0
        assert run_cli(["compare", "--a", example1_file, "--b", example1_file]) == 0
        assert run_cli(["frobnicate"]) == 3
        # each subcommand's parser is a _Parser too, named after the program and the command
        assert progs.count("steineradapt") == 1
