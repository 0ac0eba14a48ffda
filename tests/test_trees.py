import math

import numpy as np
import pytest

from steineradapt import (
    DegenerateEdgeError,
    Point2,
    SteinerTopology,
    SteinerTree,
    check_geometric_conditions,
    enumerate_full_topologies,
    steiner_forest_components,
    tree_length,
    validate_topology,
)
from steineradapt.trees import edge_vectors
from conftest import BRIDGED_TOPOLOGY, geometric_conditions_loop, node_position, random_valid_tree

# Vectorized angles agree with the loop to a few rounding steps of unit
# vectors and atan2 on angles of at most pi.
ANGLE_ATOL = 64 * np.finfo(float).eps


def star3() -> SteinerTopology:
    return SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0), (2, 0)})


class TestPoint2:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Point2(float("nan"), 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError):
            Point2(0.0, float("inf"))


class TestTreeArrays:
    TERMINALS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite_coordinates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SteinerTree.from_arrays(star3(), [(0, 0), (1, 0), (0, bad)], [(0.2, 0.2)])
        with pytest.raises(ValueError, match="finite"):
            SteinerTree(star3(), self.TERMINALS, [(bad, 0.2)])

    def test_rejects_wrong_position_counts(self):
        with pytest.raises(ValueError, match="terminal positions"):
            SteinerTree(star3(), self.TERMINALS[:2], [(0.2, 0.2)])
        with pytest.raises(ValueError, match="steiner positions"):
            SteinerTree(star3(), self.TERMINALS, [(0.2, 0.2), (0.3, 0.3)])

    def test_positions_are_read_only_copies(self):
        t = np.array(self.TERMINALS)
        tree = SteinerTree.from_arrays(star3(), t, [(0.2, 0.2)])
        t[0, 0] = 5.0
        assert tree.terminal_positions[0, 0] == 0.0
        assert tree.terminal_array() is tree.terminal_positions
        assert tree.steiner_array() is tree.steiner_positions
        for arr in (tree.terminal_positions, tree.steiner_positions, tree.t_vector(), tree.s_vector()):
            assert arr.dtype == float and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_equality_is_by_value(self):
        tree = SteinerTree.from_arrays(star3(), self.TERMINALS, [(0.2, 0.2)])
        same = SteinerTree(star3(), np.array(self.TERMINALS).reshape(-1), np.array([0.2, 0.2]))
        assert tree == same and tree is not same
        assert tree != SteinerTree.from_arrays(star3(), self.TERMINALS, [(0.2, 0.3)])
        other_edges = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0)}, edges_T={(1, 2)})
        assert tree != SteinerTree.from_arrays(other_edges, self.TERMINALS, [(0.2, 0.2)])

    def test_plan_is_built_once_per_topology(self):
        topo = star3()
        assert topo.plan is topo.plan
        assert topo == star3() and hash(topo) == hash(star3())
        assert list(topo.all_edges()) == list(topo.plan.refs)

    def test_edge_vectors_follow_all_edges(self, bridged_tree):
        u, lengths = edge_vectors(bridged_tree)
        for (a, b), row, length in zip(bridged_tree.topology.all_edges(), u, lengths):
            assert np.array_equal(row, node_position(bridged_tree, b) - node_position(bridged_tree, a))
            assert length == pytest.approx(np.linalg.norm(row), rel=4 * np.finfo(float).eps)


class TestValidateTopology:
    def test_three_terminal_star_ok(self):
        assert validate_topology(star3()).ok

    def test_two_terminal_single_edge_ok(self):
        topo = SteinerTopology(n=2, k=0, edges_T={(0, 1)})
        assert validate_topology(topo).ok

    def test_steiner_count_bound(self):
        topo = SteinerTopology(
            n=3,
            k=2,
            edges_TS={(0, 0), (1, 0), (2, 1), (0, 1)},
            edges_S={(0, 1)},
        )
        result = validate_topology(topo)
        assert not result.ok
        assert any("k <= n - 2" in v for v in result.violations)

    def test_steiner_degree_must_be_three(self):
        topo = SteinerTopology(n=4, k=1, edges_TS={(0, 0), (1, 0)}, edges_T={(1, 2), (2, 3)})
        result = validate_topology(topo)
        assert not result.ok
        assert any(v.startswith("steiner-degree") for v in result.violations)

    def test_terminal_degree_bound(self):
        # t0 with four incident edges
        topo = SteinerTopology(n=5, k=0, edges_T={(0, 1), (0, 2), (0, 3), (0, 4)})
        result = validate_topology(topo)
        assert any(v.startswith("terminal-degree") for v in result.violations)

    def test_edge_count_rule(self):
        topo = SteinerTopology(n=3, k=0, edges_T={(0, 1)})
        result = validate_topology(topo)
        assert any(v.startswith("edge-count") for v in result.violations)

    def test_disconnected_graph(self):
        topo = SteinerTopology(n=4, k=0, edges_T={(0, 1), (2, 3), (0, 1)})
        result = validate_topology(topo)
        assert any("connect" in v for v in result.violations)

    def test_index_out_of_range(self):
        topo = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0), (2, 1)})
        result = validate_topology(topo)
        assert any(v.startswith("index-range") for v in result.violations)

    def test_self_loop(self):
        topo = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0), (2, 0)}, edges_T={(1, 1)})
        result = validate_topology(topo)
        assert any(v.startswith("self-loop") for v in result.violations)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_accepts_every_full_topology(self, n):
        for topo in enumerate_full_topologies(n):
            assert validate_topology(topo).ok

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_degree_sum(self, n):
        for topo in enumerate_full_topologies(n):
            total = sum(topo.terminal_degrees()) + sum(topo.steiner_degrees())
            assert total == 2 * (topo.n + topo.k - 1)


class TestGeometricConditions:
    def test_equilateral_star_has_zero_deviation(self):
        angles = [math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3]
        terminals = [(math.cos(a), math.sin(a)) for a in angles]
        tree = SteinerTree.from_arrays(star3(), terminals, [(0.0, 0.0)])
        report = check_geometric_conditions(tree, angle_tol=1e-9)
        assert report.max_steiner_angle_deviation < 1e-12
        assert report.satisfies_angle_condition

    def test_printed_right_triangle_tree(self):
        # coordinates rounded to three decimals still satisfy a loose tolerance
        tree = SteinerTree.from_arrays(star3(), [(0, 0), (1, 0), (0, 1)], [(0.211, 0.211)])
        report = check_geometric_conditions(tree, angle_tol=0.01)
        assert report.satisfies_angle_condition
        assert report.min_pairwise_angle >= 2 * math.pi / 3 - 0.01

    def test_coincident_nodes_raise(self):
        tree = SteinerTree.from_arrays(star3(), [(0, 0), (1, 0), (0, 1)], [(0.0, 0.0)])
        with pytest.raises(DegenerateEdgeError, match="coincident"):
            check_geometric_conditions(tree)

    def test_angle_fields_within_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_valid_tree(rng, int(rng.integers(3, 7)))
            report = check_geometric_conditions(tree, angle_tol=1e-3)
            assert 0.0 <= report.max_steiner_angle_deviation <= math.pi
            assert 0.0 <= report.min_pairwise_angle <= math.pi
            assert report.min_edge_length >= 0.0

    @staticmethod
    def assert_matches_loop(tree: SteinerTree) -> None:
        report = check_geometric_conditions(tree)
        min_len, max_dev, min_angle = geometric_conditions_loop(tree)
        assert report.min_edge_length == pytest.approx(min_len, rel=4 * np.finfo(float).eps)
        assert report.max_steiner_angle_deviation == pytest.approx(max_dev, abs=ANGLE_ATOL)
        assert report.min_pairwise_angle == pytest.approx(min_angle, abs=ANGLE_ATOL)

    def test_matches_loop_on_random_full_trees(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            self.assert_matches_loop(random_valid_tree(rng, int(rng.integers(3, 7))))

    def test_matches_loop_at_degree_two_terminal(self, bridged_tree):
        self.assert_matches_loop(bridged_tree)

    def test_matches_loop_with_terminal_terminal_edge(self):
        topo = SteinerTopology(n=4, k=1, edges_TS={(0, 0), (1, 0), (2, 0)}, edges_T={(2, 3)})
        assert validate_topology(topo).ok
        rng = np.random.default_rng(15)
        for _ in range(10):
            self.assert_matches_loop(
                SteinerTree.from_arrays(topo, rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, (1, 2)))
            )


class TestForestComponents:
    def test_isolated_steiner_node(self):
        assert steiner_forest_components(star3()) == [[0]]

    def test_single_steiner_edge(self):
        topo = SteinerTopology(
            n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)}
        )
        assert steiner_forest_components(topo) == [[0, 1]]

    def test_two_clusters_bridged_by_terminal(self):
        assert steiner_forest_components(BRIDGED_TOPOLOGY) == [[0, 1], [2, 3]]

    def test_cycle_rejected(self):
        topo = SteinerTopology(n=3, k=3, edges_TS={(0, 0), (1, 1), (2, 2)}, edges_S={(0, 1), (1, 2), (0, 2)})
        with pytest.raises(ValueError, match="cycle"):
            steiner_forest_components(topo)

    def test_elimination_order_roots_each_component_at_its_centre(self):
        # the path s0-s1-s2-s3-s4 is rooted at s2 and the bridged clusters at their smaller ends
        path = SteinerTopology(n=7, k=5, edges_S={(0, 1), (1, 2), (2, 3), (3, 4)})
        forest = path.plan.forest
        assert forest.roots.tolist() == [2]
        assert [[a.tolist() for a in level] for level in forest.levels] == [
            [[0, 4], [1, 3], [0, 3]],
            [[1, 3], [2, 2], [1, 2]],
        ]
        bridged = BRIDGED_TOPOLOGY.plan.forest
        assert bridged.roots.tolist() == [0, 2]
        assert bridged.component.tolist() == [0, 0, 1, 1]
        assert [[a.tolist() for a in level] for level in bridged.levels] == [[[1, 3], [0, 2], [0, 1]]]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_partition_property(self, n):
        for topo in enumerate_full_topologies(n):
            components = steiner_forest_components(topo)
            flat = sorted(i for comp in components for i in comp)
            assert flat == list(range(topo.k))


class TestTreeLength:
    def test_pythagorean_edge(self):
        topo = SteinerTopology(n=2, k=0, edges_T={(0, 1)})
        tree = SteinerTree.from_arrays(topo, [(0, 0), (3, 4)], np.zeros((0, 2)))
        assert tree_length(tree) == pytest.approx(5.0)

    def test_right_triangle_printed_length(self):
        tree = SteinerTree.from_arrays(star3(), [(0, 0), (1, 0), (0, 1)], [(0.211, 0.211)])
        assert tree_length(tree) == pytest.approx(1.932, abs=3e-3)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tree = random_valid_tree(rng, int(rng.integers(3, 7)))
            base = tree_length(tree)
            theta = rng.uniform(0, 2 * math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            shift = rng.uniform(-5, 5, 2)
            moved = SteinerTree.from_arrays(
                tree.topology,
                tree.terminal_array() @ rot.T + shift,
                tree.steiner_array() @ rot.T + shift,
            )
            assert tree_length(moved) == pytest.approx(base, rel=1e-12)

    def test_linear_scaling(self):
        rng = np.random.default_rng(12)
        tree = random_valid_tree(rng, 5)
        lam = 3.7
        scaled = SteinerTree.from_arrays(tree.topology, lam * tree.terminal_array(), lam * tree.steiner_array())
        assert tree_length(scaled) == pytest.approx(lam * tree_length(tree), rel=1e-12)

    def test_position_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SteinerTree.from_arrays(star3(), [(0, 0), (1, 0), (0, 1)], np.zeros((0, 2)))

    def test_invariant_under_node_relabeling(self):
        rng = np.random.default_rng(13)
        tree = random_valid_tree(rng, 5)
        topo = tree.topology
        tperm = rng.permutation(topo.n)
        sperm = rng.permutation(topo.k)
        relabeled = SteinerTopology(
            n=topo.n,
            k=topo.k,
            edges_T={(tperm[i], tperm[j]) for i, j in topo.edges_T},
            edges_TS={(tperm[j], sperm[i]) for j, i in topo.edges_TS},
            edges_S={(sperm[m], sperm[l]) for m, l in topo.edges_S},
        )
        t_new = np.empty_like(tree.terminal_array())
        s_new = np.empty_like(tree.steiner_array())
        t_new[tperm] = tree.terminal_array()
        s_new[sperm] = tree.steiner_array()
        permuted = SteinerTree.from_arrays(relabeled, t_new, s_new)
        assert tree_length(permuted) == pytest.approx(tree_length(tree), rel=1e-14)


class TestFromNodePairs:
    def test_splits_stacked_ids_by_kind(self):
        # n = 4: terminals 0..3, Steiner points 4 and 5
        topo = SteinerTopology.from_node_pairs(4, 2, [(4, 0), (1, 4), (5, 4), (2, 5), (5, 3)])
        assert topo == SteinerTopology(n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)})
        assert SteinerTopology.from_node_pairs(3, 0, [(1, 0), (1, 2)]).edges_T == {(0, 1), (1, 2)}

    def test_pairs_come_back_from_the_plan(self):
        topo = BRIDGED_TOPOLOGY
        pairs = zip(topo.plan.tail.tolist(), topo.plan.head.tolist())
        assert SteinerTopology.from_node_pairs(topo.n, topo.k, pairs) == topo

    def test_out_of_range_ids_are_kept_for_validation(self):
        topo = SteinerTopology.from_node_pairs(3, 1, [(0, 3), (1, 3), (2, 5)])
        assert not validate_topology(topo).ok


class TestValidationCache:
    def test_result_is_kept_on_the_topology(self):
        topo = star3()
        first = validate_topology(topo)
        assert first.ok and validate_topology(topo) is first is topo.validation

    def test_equal_topologies_agree(self):
        bad = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0)})
        assert validate_topology(bad) == validate_topology(SteinerTopology(n=3, k=1, edges_TS={(1, 0), (0, 0)}))
        assert not bad.validation.ok
