import hashlib
import io
import json
import math

import numpy as np
import pytest

from steineradapt import (
    AdaptationStatus,
    DocumentError,
    Perturbation,
    Point2,
    StepPolicy,
    SteinerTree,
    adapt_stepwise,
    min_edge_length,
    optimize_fixed_topology,
    solve_exact,
)
from steineradapt.documents import (
    decode_instance,
    decode_perturbation,
    decode_report,
    emit_trace,
    encode_instance,
    encode_perturbation,
    encode_report,
)

from conftest import RECT_TERMINALS, RECT_TOPOLOGY

# SHA-256 of the compact JSON of every report of pure_reports(). It pins the
# pure stepper's bits and the compact format, and, through the 16 start trees
# that solve_exact returns, the low bits of the exact solver's positions too.
# Bits of the health checks' eigenvalues depend on the numpy build, which was
# numpy 2.4.6 (x86-64, scipy-openblas).
PURE_REPORTS_SHA256 = "bdeebb9d00e25173cffe1a9196209ef4b24e2588f78d5dc08362aead83bad62b"


def pure_reports() -> list:
    """Pure-mode runs: 16 exactly solved n = 3..6 trees, each moved by 0.2 of its
    shortest edge in 8 steps; a rectangle shrink that ends ill-conditioned; and a
    start whose Steiner point sits on a terminal, with an infinite condition."""
    rng = np.random.default_rng(45)
    reports = []
    for i in range(16):
        while (tree := solve_exact(rng.uniform(-1.0, 1.0, (3 + i % 4, 2))).tree).k == 0:
            pass
        angle = rng.uniform(0.0, 2 * math.pi, tree.n)
        move = 0.2 * min_edge_length(tree) * np.column_stack((np.cos(angle), np.sin(angle)))
        reports.append(adapt_stepwise(tree, Perturbation.from_pairs(move), StepPolicy(steps=8)))
    rect = optimize_fixed_topology(RECT_TERMINALS, RECT_TOPOLOGY, [(-1.0, 0.0), (1.0, 0.0)]).tree
    shrink = Perturbation.from_pairs([[1.25, 0], [1.25, 0], [-1.25, 0], [-1.25, 0]])
    reports.append(adapt_stepwise(rect, shrink, StepPolicy(steps=40, condition_limit=50.0, min_edge_fraction=1e-9)))
    stuck = SteinerTree.from_arrays(example_tree().topology, [(0, 0), (1, 0), (0, 1)], [(0, 0)])
    reports.append(adapt_stepwise(stuck, Perturbation.from_pairs([[0.1, 0], [0, 0], [0, 0]]), StepPolicy(steps=2)))
    return reports

EXAMPLE_DOC = {
    "format_version": 1,
    "terminals": [[0, 0], [1, 0], [0, 1]],
    "steiner": [[0.211, 0.211]],
    "edges": [["t0", "s0"], ["t1", "s0"], ["t2", "s0"]],
}


def example_tree() -> SteinerTree:
    return decode_instance(json.dumps(EXAMPLE_DOC))


class TestDecodeInstance:
    def test_full_tree(self):
        tree = decode_instance(json.dumps(EXAMPLE_DOC))
        assert isinstance(tree, SteinerTree)
        assert tree.n == 3 and tree.k == 1
        assert tree.steiner_positions[0].tolist() == [0.211, 0.211]

    def test_terminals_only(self):
        doc = {"format_version": 1, "terminals": [[0, 0], [2, 3]]}
        decoded = decode_instance(json.dumps(doc))
        assert decoded == [Point2(0, 0), Point2(2, 3)]

    def test_unknown_field_rejected(self):
        doc = dict(EXAMPLE_DOC, colour="red")
        with pytest.raises(DocumentError, match="unknown field 'colour'"):
            decode_instance(json.dumps(doc))

    def test_missing_version_rejected(self):
        doc = {k: v for k, v in EXAMPLE_DOC.items() if k != "format_version"}
        with pytest.raises(DocumentError, match="format_version"):
            decode_instance(json.dumps(doc))

    def test_wrong_version_rejected(self):
        with pytest.raises(DocumentError, match="unsupported format_version"):
            decode_instance(json.dumps(dict(EXAMPLE_DOC, format_version=2)))

    def test_parse_error_reports_position(self):
        with pytest.raises(DocumentError, match=r"line \d+, column \d+"):
            decode_instance('{"format_version": 1,,}')

    def test_steiner_without_edges_rejected(self):
        doc = {"format_version": 1, "terminals": [[0, 0], [1, 1]], "steiner": [[0.5, 0.5]]}
        with pytest.raises(DocumentError, match="edges"):
            decode_instance(json.dumps(doc))

    def test_reference_out_of_range(self):
        doc = dict(EXAMPLE_DOC, edges=[["t0", "s0"], ["t1", "s0"], ["t2", "s1"]])
        with pytest.raises(DocumentError, match="index out of range"):
            decode_instance(json.dumps(doc))

    def test_malformed_reference(self):
        doc = dict(EXAMPLE_DOC, edges=[["t0", "s0"], ["t1", "s0"], ["x2", "s0"]])
        with pytest.raises(DocumentError, match="malformed node reference"):
            decode_instance(json.dumps(doc))

    @pytest.mark.parametrize("ref", ["t2\n", "t2 ", "\nt2", "t02"])
    def test_reference_with_extra_characters_rejected(self, ref):
        doc = dict(EXAMPLE_DOC, edges=[["t0", "s0"], ["t1", "s0"], [ref, "s0"]])
        with pytest.raises(DocumentError, match="malformed node reference"):
            decode_instance(json.dumps(doc))

    def test_invalid_tree_rejected_with_rule(self):
        doc = dict(EXAMPLE_DOC, edges=[["t0", "s0"], ["t1", "s0"]])
        with pytest.raises(DocumentError, match="steiner-degree"):
            decode_instance(json.dumps(doc))

    def test_non_numeric_position_rejected(self):
        doc = dict(EXAMPLE_DOC, terminals=[[0, 0], [1, "zero"], [0, 1]])
        with pytest.raises(DocumentError, match="pair of numbers"):
            decode_instance(json.dumps(doc))

    def test_nonfinite_position_rejected(self):
        text = json.dumps(EXAMPLE_DOC).replace("[1, 0]", "[1e999, 0]")
        with pytest.raises(DocumentError, match="finite"):
            decode_instance(text)

    @pytest.mark.parametrize(
        "doc",
        [
            {"format_version": 1, "terminals": [[0, 0], [1, 0]], "edges": [["t0", "t1"], ["t0", "t1"]]},
            dict(EXAMPLE_DOC, edges=EXAMPLE_DOC["edges"] + [["s0", "t0"]]),
        ],
    )
    def test_repeated_edge_rejected(self, doc):
        with pytest.raises(DocumentError, match="repeated edge"):
            decode_instance(json.dumps(doc))

    def test_boolean_format_version_rejected_by_every_decoder(self, example1_tree):
        report = adapt_stepwise(example1_tree, Perturbation.zero(3), StepPolicy(steps=1))
        documents = [
            (decode_instance, encode_instance(example_tree())),
            (decode_perturbation, encode_perturbation(Perturbation.zero(3))),
            (decode_report, encode_report(report)),
        ]
        for decode, text in documents:
            doc = json.loads(text)
            doc["format_version"] = True
            with pytest.raises(DocumentError, match="unsupported format_version"):
                decode(json.dumps(doc))


class TestRoundTrips:
    def test_tree_round_trip_is_exact(self):
        rng = np.random.default_rng(40)
        original = SteinerTree.from_arrays(
            example_tree().topology, rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
        )
        assert decode_instance(encode_instance(original)) == original

    def test_terminals_round_trip(self):
        points = [Point2(0.1, -0.2), Point2(1 / 3, math.pi)]
        assert decode_instance(encode_instance(points)) == points

    def test_perturbation_round_trip(self):
        p = Perturbation.from_pairs([[0.1, -0.25], [1e-17, 2.0]])
        decoded = decode_perturbation(encode_perturbation(p))
        assert np.array_equal(decoded.delta_t, p.delta_t)

    def test_perturbation_length_check(self):
        p = Perturbation.from_pairs([[0.1, 0.0]])
        with pytest.raises(DocumentError, match="terminals"):
            decode_perturbation(encode_perturbation(p), expected_n=3)

    def test_report_round_trip(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=3))
        decoded = decode_report(encode_report(report))
        assert decoded.status is report.status
        assert decoded.initial_tree == report.initial_tree
        assert decoded.final_tree == report.final_tree
        assert decoded.initial_health == report.initial_health
        assert decoded.initial_length == report.initial_length
        assert len(decoded.steps) == len(report.steps)
        for got, want in zip(decoded.steps, report.steps):
            assert got.index == want.index
            assert np.array_equal(got.delta_t_fragment, want.delta_t_fragment)
            assert np.array_equal(got.delta_s, want.delta_s)
            assert got.tree == want.tree
            assert got.health == want.health
            assert got.tree_length == want.tree_length

    def test_report_step_that_is_not_an_object_rejected(self, example1_tree):
        report = adapt_stepwise(example1_tree, Perturbation.zero(3), StepPolicy(steps=1))
        doc = json.loads(encode_report(report))
        doc["steps"] = [1]
        with pytest.raises(DocumentError, match=r"steps\[0\]"):
            decode_report(json.dumps(doc))

    def test_report_without_initial_length_rejected(self, example1_tree):
        report = adapt_stepwise(example1_tree, Perturbation.zero(3), StepPolicy(steps=1))
        doc = json.loads(encode_report(report))
        del doc["initial"]["length"]
        with pytest.raises(DocumentError, match="length"):
            decode_report(json.dumps(doc))

    def test_aborted_report_is_standard_json_and_round_trips(self):
        # the Steiner point sits on t0, so the start is degenerate and the
        # Hessian condition number is infinite
        tree = SteinerTree.from_arrays(example_tree().topology, [(0, 0), (1, 0), (0, 1)], [(0, 0)])
        report = adapt_stepwise(tree, Perturbation.from_pairs([[0.1, 0], [0, 0], [0, 0]]), StepPolicy(steps=2))
        assert report.initial_health.hessian_condition == math.inf
        text = encode_report(report)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        assert json.loads(text, parse_constant=reject)["initial"]["health"]["hessian_condition"] is None
        decoded = decode_report(text)
        assert decoded.status is report.status
        assert decoded.initial_health == report.initial_health
        assert decoded.initial_tree == report.initial_tree

    @pytest.mark.parametrize("path", [("initial", "tree"), ("steps", 0, "tree"), ("final_tree",)])
    def test_report_with_invalid_tree_rejected(self, example1_tree, path):
        p = Perturbation.from_pairs([[0.1, 0], [0, 0], [0, 0]])
        doc = json.loads(encode_report(adapt_stepwise(example1_tree, p, StepPolicy(steps=1))))
        tree = doc
        for key in path:
            tree = tree[key]
        tree["edges"].pop()  # leaves a disconnected tree with a degree-2 Steiner point
        with pytest.raises(DocumentError, match="invalid tree"):
            decode_report(json.dumps(doc))

    def test_report_unknown_status_rejected(self, example1_tree):
        report = adapt_stepwise(example1_tree, Perturbation.zero(3), StepPolicy(steps=1))
        text = encode_report(report).replace('"completed"', '"finished"')
        with pytest.raises(DocumentError, match="unknown status"):
            decode_report(text)


class TestCompactReports:
    @pytest.fixture(scope="class")
    def reports(self):
        return pure_reports()

    def test_report_has_no_indentation(self, reports):
        for report in reports:
            text = encode_report(report)
            assert text.count("\n") == 1 and text.endswith("}\n")
            assert ", " not in text and ": " not in text

    def test_report_round_trips_bit_for_bit(self, reports):
        for report in reports:
            text = encode_report(report)
            assert encode_report(decode_report(text)) == text

    def test_indented_report_decodes_to_the_same_report(self, reports):
        for report in reports:
            text = encode_report(report)
            indented = json.dumps(json.loads(text), indent=2) + "\n"
            assert encode_report(decode_report(indented)) == text

    @pytest.mark.skipif(np.__version__ != "2.4.6", reason="the digest's eigenvalue bits were recorded with numpy 2.4.6")
    def test_pure_reports_match_their_recorded_digest(self, reports):
        digest = hashlib.sha256()
        for report in reports:
            digest.update(encode_report(report).encode("utf-8"))
        assert [r.status for r in reports[-2:]] == [
            AdaptationStatus.ABORTED_ILL_CONDITIONED,
            AdaptationStatus.ABORTED_DEGENERATE_EDGE,
        ]
        assert digest.hexdigest() == PURE_REPORTS_SHA256


class TestEmitTrace:
    def test_row_count_and_header(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=10))
        buffer = io.StringIO()
        emit_trace(report, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 12  # header + initial + 10 steps
        header = lines[0].split(",")
        assert header[:6] == [
            "step",
            "cum_delta_t_norm",
            "tree_length",
            "min_edge_length",
            "max_angle_deviation_deg",
            "hessian_condition",
        ]
        assert header[6:] == ["s0_x", "s0_y"]
        final = lines[-1].split(",")
        assert float(final[0]) == 10
        assert math.isclose(float(final[1]), 0.4)
        assert abs(float(final[6]) - 0.433) < 2e-3
        assert abs(float(final[7]) - 0.050) < 2e-3

    def test_single_step_trace_has_two_rows(self, example1_tree):
        report = adapt_stepwise(
            example1_tree, Perturbation.from_pairs([[0.1, 0], [0, 0], [0, 0]]), StepPolicy(steps=1)
        )
        buffer = io.StringIO()
        emit_trace(report, buffer)
        assert len(buffer.getvalue().strip().splitlines()) == 3  # header + 2 rows

    def test_trace_values_round_trip_at_full_precision(self, example1_tree):
        p = Perturbation.from_pairs([[0.2, 0.05], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=2))
        buffer = io.StringIO()
        emit_trace(report, buffer)
        last = buffer.getvalue().strip().splitlines()[-1].split(",")
        assert float(last[2]) == report.steps[-1].tree_length
        assert float(last[6]) == report.steps[-1].tree.steiner_positions[0, 0]

    def test_aborted_run_trace_shows_condition_blowup(self, rect_tree):
        # drive the rectangle instance toward its spine collapse with a low
        # condition limit; the trace ends at the abort
        shrink = Perturbation.from_pairs([[1.25, 0], [1.25, 0], [-1.25, 0], [-1.25, 0]])
        policy = StepPolicy(steps=40, condition_limit=50.0, min_edge_fraction=1e-9)
        report = adapt_stepwise(rect_tree, shrink, policy)
        assert report.status is AdaptationStatus.ABORTED_ILL_CONDITIONED
        buffer = io.StringIO()
        emit_trace(report, buffer)
        rows = buffer.getvalue().strip().splitlines()
        assert len(rows) == len(report.steps) + 2
        last_condition = float(rows[-1].split(",")[5])
        assert last_condition > 50.0

    def test_writes_to_path(self, tmp_path, example1_tree):
        report = adapt_stepwise(example1_tree, Perturbation.zero(3), StepPolicy(steps=1))
        target = tmp_path / "trace.csv"
        emit_trace(report, target)
        assert target.read_text().startswith("step,")
