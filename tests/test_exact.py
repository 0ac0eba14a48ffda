import itertools
import math

import numpy as np
import pytest

from steineradapt import (
    NodeRef,
    SteinerTopology,
    canonical_encoding,
    check_geometric_conditions,
    compare_topologies,
    enumerate_full_topologies,
    full_topology,
    gradient_s,
    optimize_fixed_topology,
    solve_exact,
    tree_length,
    validate_topology,
)
from steineradapt import exact
from conftest import EXAMPLE1_TERMINALS


def star3():
    return enumerate_full_topologies(3)[0]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(3, 1), (4, 3), (5, 15), (6, 105)])
    def test_double_factorial_counts(self, n, count):
        assert len(enumerate_full_topologies(n)) == count

    @pytest.mark.parametrize("n", [2, 7])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            enumerate_full_topologies(n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_pairwise_distinct(self, n):
        topologies = enumerate_full_topologies(n)
        for a, b in itertools.combinations(topologies, 2):
            assert not compare_topologies(a, b)

    def test_full_pattern_enforced(self):
        for topo in enumerate_full_topologies(5):
            assert topo.k == topo.n - 2
            assert not topo.edges_T
            assert all(d == 1 for d in topo.terminal_degrees())
            assert all(d == 3 for d in topo.steiner_degrees())

    def test_full_topology_constructor_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            full_topology(n=4, k=1, edges_TS={(0, 0), (1, 0), (2, 0)}, edges_T={(2, 3)})


class TestCompareTopologies:
    def test_identity(self):
        topo = enumerate_full_topologies(4)[0]
        assert compare_topologies(topo, topo)

    def test_steiner_relabeling_is_equal(self):
        a = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)})
        b = SteinerTopology(n=4, k=2, edges_TS={(0, 1), (1, 1), (2, 0), (3, 0)}, edges_S={(0, 1)})
        assert compare_topologies(a, b)
        assert canonical_encoding(a) == canonical_encoding(b)

    def test_different_terminal_pairings_differ(self):
        horizontal = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)})
        vertical = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (3, 0), (1, 1), (2, 1)}, edges_S={(0, 1)})
        assert not compare_topologies(horizontal, vertical)

    def test_different_sizes_differ(self):
        assert not compare_topologies(star3(), enumerate_full_topologies(4)[0])


class TestOptimizeFixedTopology:
    def test_right_triangle_optimum(self):
        result = optimize_fixed_topology(EXAMPLE1_TERMINALS, star3(), [(1 / 3, 1 / 3)])
        assert result.converged
        assert result.gradient_norm < 1e-10
        assert np.allclose(result.tree.steiner_array(), [[0.211, 0.211]], atol=1e-3)

    def test_shifted_triangle_optimum(self):
        result = optimize_fixed_topology([(0.4, 0), (1, 0), (0, 1)], star3(), [(0.5, 0.3)])
        assert result.converged
        assert np.allclose(result.tree.steiner_array(), [[0.437, 0.052]], atol=1e-3)

    def test_obtuse_instance_collapses_onto_terminal(self):
        # middle terminal sees the outer pair at more than 120 degrees
        result = optimize_fixed_topology([(0, 0), (2, 0), (1, 0.05)], star3(), [(1.0, 0.5)])
        assert result.converged
        assert result.collapsed_edges
        assert np.allclose(result.tree.steiner_array(), [[1.0, 0.05]], atol=1e-12)

    def test_gradient_matches_contract(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            pts = rng.uniform(0, 1, (n, 2))
            topos = enumerate_full_topologies(n)
            topo = topos[int(rng.integers(len(topos)))]
            result = optimize_fixed_topology(pts, topo, rng.uniform(0.2, 0.8, (topo.k, 2)))
            assert result.converged
            if not result.collapsed_edges:
                assert np.linalg.norm(gradient_s(result.tree)) < 1e-10

    def test_reinitialization_reproducibility(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0, 1, (5, 2))
        topo = enumerate_full_topologies(5)[7]
        baseline = None
        for _ in range(10):
            init = rng.uniform(-0.5, 1.5, (3, 2))
            result = optimize_fixed_topology(pts, topo, init)
            assert result.converged
            if baseline is None:
                baseline = result.tree.steiner_array()
            else:
                assert np.abs(result.tree.steiner_array() - baseline).max() < 1e-8

    def test_invalid_topology_rejected(self):
        bad = SteinerTopology(n=3, k=1, edges_TS={(0, 0), (1, 0)})
        with pytest.raises(ValueError):
            optimize_fixed_topology(EXAMPLE1_TERMINALS, bad, [(0.3, 0.3)])

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            optimize_fixed_topology(EXAMPLE1_TERMINALS, star3(), [(0.3, 0.3)], grad_tol=0.0)

    def test_zero_steiner_trivial(self):
        topo = SteinerTopology(n=2, k=0, edges_T={(0, 1)})
        result = optimize_fixed_topology([(0, 0), (1, 1)], topo, [])
        assert result.converged and result.iterations == 0


class TestSolveExact:
    def test_two_terminals(self):
        result = solve_exact([(0, 0), (3, 4)])
        assert result.tree.k == 0
        assert result.length == pytest.approx(5.0)
        assert result.ties == (result.tree,)

    def test_right_triangle(self):
        result = solve_exact(EXAMPLE1_TERMINALS)
        assert result.tree.k == 1
        assert np.allclose(result.tree.steiner_array(), [[0.211, 0.211]], atol=1e-3)

    def test_unit_square_double_y_with_tie(self):
        result = solve_exact([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert result.length == pytest.approx(1 + math.sqrt(3), abs=1e-9)
        assert result.tree.k == 2
        assert len(result.ties) == 2
        assert not compare_topologies(result.ties[0].topology, result.ties[1].topology)
        for tie in result.ties:
            assert tree_length(tie) == pytest.approx(1 + math.sqrt(3), abs=1e-9)

    def test_collinear_terminals_collapse_to_path(self):
        result = solve_exact([(0, 0), (2, 0), (1, 0.05)])
        assert result.tree.k == 0
        assert result.length == pytest.approx(2 * math.hypot(1, 0.05), abs=1e-9)

    def test_coincident_terminals_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            solve_exact([(0, 0), (0, 0), (1, 1)])

    @pytest.mark.parametrize("n", [1, 7])
    def test_count_out_of_range(self, n):
        with pytest.raises(ValueError):
            solve_exact([(float(i), 0.0) for i in range(n)])

    def test_outputs_valid_and_angle_conditioned(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            result = solve_exact(rng.uniform(0, 1, (n, 2)))
            assert validate_topology(result.tree.topology).ok
            report = check_geometric_conditions(result.tree, angle_tol=1e-6)
            assert report.satisfies_angle_condition

    def test_never_longer_than_any_fixed_topology_optimum(self):
        rng = np.random.default_rng(33)
        for _ in range(6):
            n = int(rng.integers(4, 6))
            pts = rng.uniform(0, 1, (n, 2))
            best = solve_exact(pts)
            for topo in enumerate_full_topologies(n):
                res = optimize_fixed_topology(pts, topo, rng.uniform(0.1, 0.9, (topo.k, 2)))
                if res.converged:
                    assert best.length <= tree_length(res.tree) + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(34)
        pts = rng.uniform(0, 1, (5, 2))
        a = solve_exact(pts)
        b = solve_exact(pts)
        assert a.length == b.length
        assert a.tree == b.tree


class TestNetworkContraction:
    def test_crossing_square_merges_both_steiner_points(self):
        # each Steiner point joins two opposite corners, so the optimum merges
        # the two free points at the centre: the contraction with two free ends
        crossing = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (2, 0), (1, 1), (3, 1)}, edges_S={(0, 1)})
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        result = optimize_fixed_topology(square, crossing, [(0.3, 0.4), (0.7, 0.6)])
        s0, s1 = NodeRef.steiner(0), NodeRef.steiner(1)
        assert result.converged
        assert result.collapsed_edges == {(s0, s1)}
        assert np.abs(result.tree.steiner_array() - 0.5).max() < 1e-12


class TestEnumerationCache:
    def test_mutating_a_returned_list_leaves_the_next_call_alone(self):
        first = enumerate_full_topologies(5)
        expected = list(first)
        first.clear()
        again = enumerate_full_topologies(5)
        assert again == expected and again is not first
        again.append(again.pop(0))
        assert enumerate_full_topologies(5) == expected

    @pytest.mark.parametrize("n", [2, 7])
    def test_out_of_range_still_raises_after_a_cached_call(self, n):
        enumerate_full_topologies(6)
        with pytest.raises(ValueError):
            enumerate_full_topologies(n)


def loop_network(t: np.ndarray, k: int, edges: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Reference (A, c) with u_e = position[p] - position[q] for stacked ids (p, q), terminals fixed."""
    n = len(t)
    A, c = np.zeros((len(edges), k)), np.zeros((len(edges), 2))
    for e, (p, q) in enumerate(edges):
        for node, sign in ((p, 1.0), (q, -1.0)):
            if node >= n:
                A[e, node - n] += sign
            else:
                c[e] += sign * t[node]
    return A, c


class TestAffineNetwork:
    @pytest.mark.parametrize("which", [0, 37, 104])
    def test_network_and_each_contraction_match_the_loop_reference(self, which):
        rng = np.random.default_rng(which)
        t = rng.uniform(0.0, 1.0, (6, 2))
        plan = enumerate_full_topologies(6)[which].plan
        edges = list(zip(plan.tail[plan.steiner_edges].tolist(), plan.head[plan.steiner_edges].tolist()))
        A, c = exact._network(t, plan)
        expected_A, expected_c = loop_network(t, 4, edges)
        assert np.array_equal(A, expected_A) and np.array_equal(c, expected_c)
        s = rng.uniform(0.0, 1.0, (4, 2))
        for row, (p, q) in enumerate(edges):
            keep, gone = (p, q) if q >= 6 else (q, p)  # a free head merges into the tail
            merged = [(keep if x == gone else x, keep if y == gone else y) for x, y in edges]
            shifted = [tuple(x - 1 if x > gone else x for x in pair) for pair in merged]
            A_child, c_child, s_child, rebuild = exact._contract(A, c, s, row)
            expected_A, expected_c = loop_network(t, 3, shifted[:row] + shifted[row + 1 :])
            assert np.array_equal(A_child, expected_A) and np.array_equal(c_child, expected_c)
            full = rebuild(s_child)
            landing = t[keep] if keep < 6 else full[keep - 6]
            assert np.array_equal(full[gone - 6], landing)
