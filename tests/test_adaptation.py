import math

import numpy as np
import pytest

from steineradapt import (
    COINCIDENT_THRESHOLD,
    AdaptationMode,
    AdaptationStatus,
    DegenerateEdgeError,
    Perturbation,
    StepPolicy,
    SteinerTopology,
    SteinerTree,
    adapt_single,
    adapt_stepwise,
    first_order_delta_s,
    gradient_s,
    health_metrics,
    optimize_fixed_topology,
    sensitivity_matrix,
    solve_exact,
    steiner_forest_components,
    tree_length,
)

from steineradapt import adaptation, exact
from steineradapt.trees import edge_vectors

from conftest import dense_step_oracle, grown_tree

PRINTED_X = np.array(
    [
        [0.423, -0.423, 0.077, 0.289, 0.500, 0.134],
        [-0.423, 0.423, 0.134, 0.500, 0.289, 0.077],
    ]
)


def optimized_random_tree(rng, n):
    """A fixed-topology optimum of a random exactly-solved instance."""
    while True:
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        tree = solve_exact(pts).tree
        if tree.k > 0:
            return tree


class TestSensitivityMatrix:
    def test_right_triangle_golden_matrix(self, example1_tree):
        assert np.allclose(sensitivity_matrix(example1_tree), PRINTED_X, atol=2e-3)

    def test_translation_columns(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
            X = sensitivity_matrix(tree)
            v = rng.normal(size=2)
            got = X @ np.tile(v, tree.n)
            assert np.abs(got - np.tile(v, tree.k)).max() < 1e-9

    def test_homogeneity_identity(self):
        # the optimum scales linearly with the instance, so X maps the
        # terminal vector to the Steiner vector
        rng = np.random.default_rng(21)
        for _ in range(10):
            tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
            X = sensitivity_matrix(tree)
            assert np.abs(X @ tree.t_vector() - tree.s_vector()).max() < 1e-8

    def test_homogeneity_against_rescaled_optimum(self, example1_tree):
        # direct check of the scaling family at lambda = 1 +/- 1e-4
        lam = 1e-4
        X = sensitivity_matrix(example1_tree)
        t = example1_tree.terminal_array()
        s = example1_tree.steiner_array()
        up = optimize_fixed_topology((1 + lam) * t, example1_tree.topology, s, grad_tol=1e-12)
        down = optimize_fixed_topology((1 - lam) * t, example1_tree.topology, s, grad_tol=1e-12)
        fd = (up.tree.s_vector() - down.tree.s_vector()) / (2 * lam)
        assert np.abs(fd - X @ example1_tree.t_vector()).max() < 1e-6

    def test_unrelated_component_columns_vanish(self, bridged_tree):
        X = sensitivity_matrix(bridged_tree)
        components = steiner_forest_components(bridged_tree.topology)
        attached = {
            tuple(comp): {j for j, i in bridged_tree.topology.edges_TS if i in comp}
            for comp in components
        }
        for comp in components:
            rows = [r for i in comp for r in (2 * i, 2 * i + 1)]
            for j in range(bridged_tree.n):
                if j not in attached[tuple(comp)]:
                    cols = [2 * j, 2 * j + 1]
                    assert np.abs(X[np.ix_(rows, cols)]).max() < 1e-12

    def test_no_steiner_points(self):
        topo = SteinerTopology(n=2, k=0, edges_T={(0, 1)})
        tree = SteinerTree.from_arrays(topo, [(0, 0), (1, 0)], np.zeros((0, 2)))
        assert sensitivity_matrix(tree).shape == (0, 4)

    def test_degenerate_configuration_rejected(self):
        topo = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)})
        tree = SteinerTree.from_arrays(
            topo, [(-1, 1), (-1, -1), (1, 1), (1, -1)], [(0.0, 0.0), (1e-13, 0.0)]
        )
        with pytest.raises(DegenerateEdgeError):
            sensitivity_matrix(tree)


class TestFirstOrderDelta:
    def test_right_triangle_update(self, example1_tree):
        p = Perturbation.from_pairs([[0.1, 0], [0, 0], [0, 0]])
        ds = first_order_delta_s(example1_tree, p)
        assert np.allclose(ds, [0.0423, -0.0423], atol=5e-4)
        predicted = example1_tree.s_vector() + ds
        assert np.allclose(predicted, [0.254, 0.169], atol=2e-3)

    def test_zero_perturbation(self, example1_tree):
        ds = first_order_delta_s(example1_tree, Perturbation.zero(3))
        assert np.array_equal(ds, np.zeros(2))

    def test_linearity(self, example1_tree):
        rng = np.random.default_rng(22)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        ds_sum = first_order_delta_s(example1_tree, Perturbation(a + b))
        ds_a = first_order_delta_s(example1_tree, Perturbation(a))
        ds_b = first_order_delta_s(example1_tree, Perturbation(b))
        assert np.abs(ds_sum - (ds_a + ds_b)).max() < 1e-12

    def test_empty_for_zero_steiner(self):
        topo = SteinerTopology(n=2, k=0, edges_T={(0, 1)})
        tree = SteinerTree.from_arrays(topo, [(0, 0), (1, 0)], np.zeros((0, 2)))
        assert first_order_delta_s(tree, Perturbation.zero(2)).size == 0

    def test_length_mismatch_rejected(self, example1_tree):
        with pytest.raises(ValueError):
            first_order_delta_s(example1_tree, Perturbation.zero(5))

    def test_infinitesimal_rotation(self):
        rng = np.random.default_rng(23)
        eps = 1e-3
        rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
        for _ in range(5):
            tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
            delta = (eps * tree.terminal_array() @ rot90.T).reshape(-1)
            ds = first_order_delta_s(tree, Perturbation(delta))
            expected = (eps * tree.steiner_array() @ rot90.T).reshape(-1)
            assert np.abs(ds - expected).max() <= 10 * eps * eps


class TestAdaptSingle:
    def test_large_shift_prediction(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        new_tree, health = adapt_single(example1_tree, p)
        assert np.allclose(new_tree.steiner_array(), [[0.380, 0.042]], atol=2e-3)
        assert health.positive_definite

    def test_corrected_mode_recovers_true_optimum(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        new_tree, _ = adapt_single(example1_tree, p, AdaptationMode.CORRECTED)
        assert np.allclose(new_tree.steiner_array(), [[0.437, 0.052]], atol=1e-3)

    def test_zero_perturbation_identity(self, example1_tree):
        new_tree, health = adapt_single(example1_tree, Perturbation.zero(3))
        assert new_tree == example1_tree
        assert health == health_metrics(example1_tree)

    def test_topology_preserved(self, example1_tree):
        p = Perturbation.from_pairs([[0.2, 0.1], [0, 0], [-0.05, 0]])
        new_tree, _ = adapt_single(example1_tree, p)
        assert new_tree.topology == example1_tree.topology

    def test_no_steiner_points_shift_the_terminals(self):
        topo = SteinerTopology(n=2, k=0, edges_T={(0, 1)})
        tree = SteinerTree.from_arrays(topo, [(0, 0), (1, 0)], np.zeros((0, 2)))
        p = Perturbation.from_pairs([[0.1, 0.2], [-0.3, 0.0]])
        for mode in AdaptationMode:
            new_tree, health = adapt_single(tree, p, mode)
            assert new_tree.terminal_array().tolist() == [[0.1, 0.2], [0.7, 0.0]]
            assert health.positive_definite and health.hessian_condition == 1.0
        report = adapt_stepwise(tree, p, StepPolicy(steps=3))
        assert report.status is AdaptationStatus.COMPLETED
        assert [rec.delta_s.size for rec in report.steps] == [0, 0, 0]
        assert np.allclose(report.final_tree.terminal_array(), [[0.1, 0.2], [0.7, 0.0]], rtol=0, atol=1e-15)

    def test_exact_for_uniform_translation(self):
        rng = np.random.default_rng(24)
        tree = optimized_random_tree(rng, 5)
        v = rng.normal(size=2)
        p = Perturbation(np.tile(v, tree.n))
        new_tree, _ = adapt_single(tree, p)
        assert np.abs(new_tree.terminal_array() - (tree.terminal_array() + v)).max() < 1e-12
        assert np.abs(new_tree.steiner_array() - (tree.steiner_array() + v)).max() < 1e-9


class TestAdaptStepwise:
    def test_ten_step_shift(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=10))
        assert report.status is AdaptationStatus.COMPLETED
        assert len(report.steps) == 10
        assert np.allclose(report.final_tree.steiner_array(), [[0.433, 0.050]], atol=2e-3)

    def test_single_step_equals_adapt_single(self, example1_tree):
        p = Perturbation.from_pairs([[0.17, -0.05], [0, 0.02], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=1))
        single, _ = adapt_single(example1_tree, p)
        assert report.status is AdaptationStatus.COMPLETED
        assert len(report.steps) == 1
        assert np.abs(report.final_tree.s_vector() - single.s_vector()).max() == 0.0

    def test_stepwise_beats_single_step(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        truth = np.array([0.43672256, 0.05192819])
        one = adapt_stepwise(example1_tree, p, StepPolicy(steps=1)).final_tree.s_vector()
        ten = adapt_stepwise(example1_tree, p, StepPolicy(steps=10)).final_tree.s_vector()
        assert np.linalg.norm(ten - truth) < np.linalg.norm(one - truth)

    def test_fragments_sum_exactly(self, example1_tree):
        p = Perturbation.from_pairs([[0.13, 0.07], [-0.02, 0.01], [0.003, -0.4]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=7))
        assert report.status is AdaptationStatus.COMPLETED
        assert np.array_equal(report.applied_delta_t, p.delta_t)

    def test_max_step_norm_policy(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(max_step_norm=0.15))
        assert report.status is AdaptationStatus.COMPLETED
        norms = [np.abs(rec.delta_t_fragment).max() for rec in report.steps]
        assert all(n <= 0.15 + 1e-15 for n in norms)
        assert np.allclose(report.applied_delta_t, p.delta_t, atol=1e-15)

    def test_adaptive_default_policy(self, example1_tree):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p)
        assert report.status is AdaptationStatus.COMPLETED
        # 10% of the minimum edge length caps each fragment
        assert len(report.steps) > 5

    def test_zero_perturbation(self, example1_tree):
        report = adapt_stepwise(example1_tree, Perturbation.zero(3), StepPolicy(steps=4))
        assert report.status is AdaptationStatus.COMPLETED
        assert report.steps == ()
        assert report.final_tree == example1_tree

    def test_component_independence(self, bridged_tree):
        # move only terminals attached to the first Steiner cluster
        delta = np.zeros(2 * bridged_tree.n)
        delta[0:2] = [0.05, -0.03]
        delta[2:4] = [0.01, 0.02]
        report = adapt_stepwise(bridged_tree, Perturbation(delta), StepPolicy(steps=3))
        assert report.status is AdaptationStatus.COMPLETED
        moved = report.final_tree.steiner_array() - bridged_tree.steiner_array()
        assert np.abs(moved[2:]).max() == 0.0
        assert np.abs(moved[:2]).max() > 1e-4

    def test_recorded_lengths_equal_tree_length(self, bridged_tree):
        rng = np.random.default_rng(30)
        for tree in (bridged_tree, grown_tree(rng, 40)):
            p = Perturbation(rng.uniform(-0.01, 0.01, 2 * tree.n))
            report = adapt_stepwise(tree, p, StepPolicy(steps=3))
            assert report.initial_length == tree_length(tree)
            assert [rec.tree_length for rec in report.steps] == [tree_length(rec.tree) for rec in report.steps]

    @pytest.mark.parametrize("steiner", [(0.5, 0.3), (0.5, 0.0)])
    def test_invalid_topology_rejected(self, steiner):
        # s0 has degree 2; placed on the line t0-t1 its Hessian is singular too
        topo = SteinerTopology(n=3, k=1, edges_T={(1, 2)}, edges_TS={(0, 0), (1, 0)})
        tree = SteinerTree.from_arrays(topo, [(0, 0), (1, 0), (1, 1)], [steiner])
        with pytest.raises(ValueError, match="invalid topology"):
            adapt_stepwise(tree, Perturbation.zero(3), StepPolicy(steps=2))

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            StepPolicy(steps=3, max_step_norm=0.5)
        with pytest.raises(ValueError):
            StepPolicy(steps=0)
        with pytest.raises(ValueError):
            StepPolicy(min_edge_fraction=1.5)


class TestBreakdownDetection:
    def shrink_perturbation(self, amount):
        return Perturbation.from_pairs([[amount, 0], [amount, 0], [-amount, 0], [-amount, 0]])

    def test_flip_detected_by_divergence(self, rect_tree):
        from steineradapt import compare_topologies

        report = adapt_stepwise(rect_tree, self.shrink_perturbation(1.2), StepPolicy(steps=24))
        assert report.status is AdaptationStatus.COMPLETED
        exact = solve_exact(report.final_tree.terminal_array())
        assert not compare_topologies(report.final_tree.topology, exact.tree.topology)
        assert tree_length(report.final_tree) > exact.length
        # the gap to the true optimum grows monotonically once the tie is passed
        gaps = [rec.tree_length - solve_exact(rec.tree.terminal_array()).length for rec in report.steps]
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] > 0.1

    def test_ill_conditioned_abort(self, rect_tree):
        policy = StepPolicy(steps=40, condition_limit=50.0, min_edge_fraction=1e-9)
        report = adapt_stepwise(rect_tree, self.shrink_perturbation(1.25), policy)
        assert report.status is AdaptationStatus.ABORTED_ILL_CONDITIONED
        assert 0 < len(report.steps) < 40
        assert report.steps[-1].health.hessian_condition > 50.0

    def test_degenerate_edge_abort(self, rect_tree):
        policy = StepPolicy(steps=60, condition_limit=1e12, min_edge_fraction=0.2)
        report = adapt_stepwise(rect_tree, self.shrink_perturbation(1.25), policy)
        assert report.status is AdaptationStatus.ABORTED_DEGENERATE_EDGE
        assert len(report.steps) < 60
        floor = 0.2 * report.initial_health.min_edge_length
        assert report.steps[-1].health.min_edge_length < floor

    @pytest.mark.parametrize("steps", [1, 2])
    def test_reversed_edge_aborts_as_degenerate_edge(self, rect_tree, steps):
        # the last step carries the two Steiner points past each other
        report = adapt_stepwise(rect_tree, self.shrink_perturbation(1.25), StepPolicy(steps=steps))
        assert report.status is AdaptationStatus.ABORTED_DEGENERATE_EDGE
        assert len(report.steps) == steps
        before = np.diff(rect_tree.steiner_array(), axis=0)[0]
        after = np.diff(report.final_tree.steiner_array(), axis=0)[0]
        assert before @ after < 0

    def test_large_moves_on_grown_trees_never_complete_reversed(self):
        # Moving each terminal by 0.3 x its edge carries some of these trees
        # through a topology change. Such a run must stop as degenerate: a
        # completed run keeps every edge's direction and ends near an optimum,
        # never at a reversed edge with ||dJ/ds|| near 2 sqrt(2).
        statuses = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            tree = grown_tree(rng, 98)
            edges, lengths = edge_vectors(tree)
            ts = tree.topology.plan.terminal_steiner
            reach = np.zeros(tree.n)
            reach[tree.topology.plan.tail[ts]] = 0.3 * lengths[ts]
            angle = rng.uniform(0.0, 2 * math.pi, tree.n)
            p = Perturbation((reach[:, None] * np.column_stack((np.cos(angle), np.sin(angle)))).reshape(-1))
            report = adapt_stepwise(tree, p, StepPolicy(steps=4))
            statuses.add(report.status)
            if report.status is AdaptationStatus.COMPLETED:
                final_edges, _ = edge_vectors(report.final_tree)
                assert (np.einsum("ij,ij->i", edges, final_edges) > 0).all()
                assert np.linalg.norm(gradient_s(report.final_tree)) < 0.2
            else:
                assert report.status is AdaptationStatus.ABORTED_DEGENERATE_EDGE
        assert statuses == {AdaptationStatus.COMPLETED, AdaptationStatus.ABORTED_DEGENERATE_EDGE}


class TestDenseOracle:
    def check_report(self, report):
        before = report.initial_tree
        _, condition = dense_step_oracle(before, np.zeros(2 * before.n))
        assert report.initial_health.hessian_condition == pytest.approx(condition, rel=1e-12)
        for rec in report.steps:
            ds, _ = dense_step_oracle(before, rec.delta_t_fragment)
            _, condition = dense_step_oracle(rec.tree, rec.delta_t_fragment)
            assert np.linalg.norm(rec.delta_s - ds) <= 1e-12 * np.linalg.norm(ds)
            assert rec.health.hessian_condition == pytest.approx(condition, rel=1e-12)
            before = rec.tree

    @pytest.mark.parametrize("mode", list(AdaptationMode))
    def test_example1(self, example1_tree, mode):
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        self.check_report(adapt_stepwise(example1_tree, p, StepPolicy(steps=10, mode=mode)))

    def test_bridged(self, bridged_tree):
        rng = np.random.default_rng(28)
        p = Perturbation(rng.uniform(-0.05, 0.05, 2 * bridged_tree.n))
        self.check_report(adapt_stepwise(bridged_tree, p, StepPolicy(steps=3)))

    @pytest.mark.parametrize(
        "amount, policy",
        [
            (1.2, StepPolicy(steps=24)),
            (1.25, StepPolicy(steps=40, condition_limit=50.0, min_edge_fraction=1e-9)),
            (1.25, StepPolicy(steps=60, condition_limit=1e12, min_edge_fraction=0.2)),
        ],
    )
    def test_rect(self, rect_tree, amount, policy):
        p = Perturbation.from_pairs([[amount, 0], [amount, 0], [-amount, 0], [-amount, 0]])
        self.check_report(adapt_stepwise(rect_tree, p, policy))

    def test_solved_trees(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
            p = Perturbation(rng.uniform(-0.02, 0.02, 2 * tree.n))
            self.check_report(adapt_stepwise(tree, p, StepPolicy(steps=3)))


class TestHealthMetrics:
    def test_isotropic_star(self):
        angles = [0.1, 0.1 + 2 * math.pi / 3, 0.1 + 4 * math.pi / 3]
        topo = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0), (2, 0)})
        tree = SteinerTree.from_arrays(topo, [(math.cos(a), math.sin(a)) for a in angles], [(0, 0)])
        health = health_metrics(tree)
        assert health.positive_definite
        assert health.hessian_condition == pytest.approx(1.0, abs=1e-9)

    def test_right_triangle_condition(self, example1_tree):
        health = health_metrics(example1_tree)
        assert health.positive_definite
        assert health.hessian_condition == pytest.approx(2.155, abs=0.01)

    def test_coincident_start_aborts_as_degenerate_edge(self):
        topo = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0), (2, 0)})
        tree = SteinerTree.from_arrays(topo, [(0, 0), (1, 0), (0, 1)], [(0, 0)])
        report = adapt_stepwise(tree, Perturbation.from_pairs([[0.1, 0], [0, 0], [0, 0]]), StepPolicy(steps=2))
        assert report.initial_health.min_edge_length == 0.0
        assert report.status is AdaptationStatus.ABORTED_DEGENERATE_EDGE
        assert report.steps == ()

    def test_degenerate_edge_in_solve_aborts_as_degenerate_edge(self, example1_tree):
        # move t0 by d so that its first-order step lands it on s0: t0 + d = s0 + X0 d
        X0 = sensitivity_matrix(example1_tree)[:, :2]
        t0, s0 = example1_tree.terminal_array()[0], example1_tree.steiner_array()[0]
        d = np.linalg.solve(np.eye(2) - X0, s0 - t0)
        p = Perturbation.from_pairs([d, [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=1))
        assert report.status is AdaptationStatus.ABORTED_DEGENERATE_EDGE
        assert len(report.steps) == 1
        assert report.steps[0].health.min_edge_length <= COINCIDENT_THRESHOLD

    def test_degenerate_pair_reports_not_raises(self):
        topo = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)})
        tree = SteinerTree.from_arrays(
            topo, [(-1, 1), (-1, -1), (1, 1), (1, -1)], [(0.0, 0.0), (1e-13, 0.0)]
        )
        health = health_metrics(tree)
        assert not health.positive_definite
        assert health.min_edge_length < 1e-12

    def test_condition_at_least_one_when_definite(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
            health = health_metrics(tree)
            assert health.positive_definite
            assert health.hessian_condition >= 1.0


class TestQuadraticAccuracy:
    def test_error_ratio_signature(self):
        # halving the perturbation roughly quarters the prediction error
        rng = np.random.default_rng(26)
        measured = 0
        while measured < 8:
            tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
            health = health_metrics(tree)
            if health.min_edge_length < 0.05 or health.hessian_condition > 50:
                continue
            X = sensitivity_matrix(tree)
            direction = rng.normal(size=2 * tree.n)
            direction /= np.linalg.norm(direction)
            errors = []
            usable = True
            for h in (1e-2, 5e-3, 2.5e-3):
                moved = tree.terminal_array() + (h * direction).reshape(-1, 2)
                res = optimize_fixed_topology(moved, tree.topology, tree.steiner_array(), grad_tol=1e-12)
                if not res.converged or res.collapsed_edges:
                    usable = False
                    break
                predicted = tree.s_vector() + X @ (h * direction)
                errors.append(np.linalg.norm(res.tree.s_vector() - predicted))
            if not usable or errors[0] < 1e-9:
                continue
            assert errors[1] / errors[0] <= 0.35
            assert errors[2] / errors[1] <= 0.35
            measured += 1

    def test_small_perturbation_keeps_length_near_optimal(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            tree = optimized_random_tree(rng, int(rng.integers(3, 6)))
            delta = rng.uniform(-1e-3, 1e-3, 2 * tree.n)
            report = adapt_stepwise(tree, Perturbation(delta), StepPolicy(steps=1))
            assert report.status is AdaptationStatus.COMPLETED
            resolved = solve_exact(report.final_tree.terminal_array())
            assert tree_length(report.final_tree) <= resolved.length + 1e-5


def reoptimize_after_every_step(tree):
    """A corrected step as ``optimize_fixed_topology`` from the first-order
    prediction, evaluated: what corrected mode did before its Newton corrector."""
    optimum = optimize_fixed_topology(tree.terminal_positions, tree.topology, tree.steiner_positions).tree
    return adaptation._evaluate(optimum)


@pytest.fixture
def optimize_calls(monkeypatch):
    """Counts the calls of ``exact.optimize_fixed_topology`` made from now on."""
    calls = []
    original = exact.optimize_fixed_topology

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(exact, "optimize_fixed_topology", counting)
    return calls


def corrected_corpus(example1_tree, bridged_tree, rect_tree):
    """(name, tree, perturbation, policy): the stepwise runs of TestDenseOracle, in corrected mode."""
    corrected = AdaptationMode.CORRECTED
    runs = [
        ("example1", example1_tree, Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]]), StepPolicy(steps=10, mode=corrected)),
        ("bridged", bridged_tree, Perturbation(np.random.default_rng(28).uniform(-0.05, 0.05, 14)), StepPolicy(steps=3, mode=corrected)),
    ]
    rect_policies = [
        (1.2, StepPolicy(steps=24, mode=corrected)),
        (1.25, StepPolicy(steps=40, condition_limit=50.0, min_edge_fraction=1e-9, mode=corrected)),
        (1.25, StepPolicy(steps=60, condition_limit=1e12, min_edge_fraction=0.2, mode=corrected)),
    ]
    for amount, policy in rect_policies:
        p = Perturbation.from_pairs([[amount, 0], [amount, 0], [-amount, 0], [-amount, 0]])
        runs.append((f"rect {amount} in {policy.steps}", rect_tree, p, policy))
    rng = np.random.default_rng(29)
    for i in range(20):
        tree = optimized_random_tree(rng, int(rng.integers(3, 7)))
        p = Perturbation(rng.uniform(-0.02, 0.02, 2 * tree.n))
        runs.append((f"solved {i}", tree, p, StepPolicy(steps=3, mode=corrected)))
    return runs


class TestNewtonCorrector:
    def test_matches_reoptimizing_after_every_step(self, example1_tree, bridged_tree, rect_tree, monkeypatch, optimize_calls):
        collapses = 0
        for name, tree, p, policy in corrected_corpus(example1_tree, bridged_tree, rect_tree):
            optimize_calls.clear()
            newton = adapt_stepwise(tree, p, policy)
            # Newton cannot reach an optimum where an edge collapses; only the fallback goes there
            collapsed = sum(rec.health.min_edge_length <= COINCIDENT_THRESHOLD for rec in newton.steps)
            assert len(optimize_calls) == collapsed, name
            collapses += collapsed
            with monkeypatch.context() as patched:
                patched.setattr(adaptation, "_correct", reoptimize_after_every_step)
                reference = adapt_stepwise(tree, p, policy)
            assert newton.status is reference.status, name
            assert len(newton.steps) == len(reference.steps), name
            for got, want in zip(newton.steps, reference.steps):
                assert np.array_equal(got.delta_t_fragment, want.delta_t_fragment), name
                assert np.abs(got.tree.steiner_positions - want.tree.steiner_positions).max() <= 1e-10, name
        assert collapses == 3  # rect 1.25 in 40 steps, solved trees 10 and 17

    def test_fallback_from_outside_the_basin_is_optimize_fixed_topology(self, example1_tree, optimize_calls):
        # one first-order step of a 0.4 shift lands outside Newton's basin
        p = Perturbation.from_pairs([[0.4, 0], [0, 0], [0, 0]])
        predicted, _ = adapt_single(example1_tree, p)
        corrected, health = adapt_single(example1_tree, p, AdaptationMode.CORRECTED)
        assert len(optimize_calls) == 1
        expected = optimize_fixed_topology(predicted.terminal_positions, predicted.topology, predicted.steiner_positions)
        assert corrected == expected.tree
        assert health == health_metrics(expected.tree)

    def test_collapsed_fallback_aborts_as_degenerate_edge(self, example1_tree, optimize_calls):
        p = Perturbation.from_pairs([[0.8, 0], [0, 0], [0, 0]])
        report = adapt_stepwise(example1_tree, p, StepPolicy(steps=1, mode=AdaptationMode.CORRECTED))
        assert len(optimize_calls) == 1
        assert report.status is AdaptationStatus.ABORTED_DEGENERATE_EDGE
        assert report.steps[0].health.min_edge_length <= COINCIDENT_THRESHOLD

    @pytest.mark.parametrize("k", [98, 398])
    def test_grown_trees_reach_the_gradient_tolerance(self, k, optimize_calls):
        rng = np.random.default_rng(k)
        tree = grown_tree(rng, k)
        edges, lengths = edge_vectors(tree)
        ts = tree.topology.plan.terminal_steiner
        reach = np.zeros(tree.n)
        reach[tree.topology.plan.tail[ts]] = 0.15 * lengths[ts]
        angle = rng.uniform(0.0, 2 * math.pi, tree.n)
        p = Perturbation((reach[:, None] * np.column_stack((np.cos(angle), np.sin(angle)))).reshape(-1))
        report = adapt_stepwise(tree, p, StepPolicy(steps=4, mode=AdaptationMode.CORRECTED))
        assert report.status is AdaptationStatus.COMPLETED
        assert optimize_calls == []
        for rec in report.steps:
            assert np.linalg.norm(gradient_s(rec.tree)) <= 1e-10
