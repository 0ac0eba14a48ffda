import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steineradapt import (
    NodeRef,
    SteinerTopology,
    SteinerTree,
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
from steineradapt import exact, trees
from conftest import EXAMPLE1_TERMINALS, exhaustive_solve, grown_tree


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

    @pytest.mark.parametrize(
        "edges",
        [
            dict(edges_T={(0, 1), (1, 2), (0, 2)}),  # a tree's edge count, but a cycle and a lone Steiner point
            dict(edges_T={(0, 1)}, edges_TS={(0, 0), (1, 0), (2, 0)}),  # one edge too many
        ],
        ids=["cycle", "extra edge"],
    )
    def test_non_tree_raises_value_error(self, edges):
        with pytest.raises(ValueError, match="tree"):
            canonical_encoding(SteinerTopology(n=3, k=1, **edges))


class TestPairEncoding:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(n=st.integers(4, 6), seed=st.integers(0, 2**32 - 1))
    def test_relabelled_reordered_and_reversed_pairs_find_their_topology(self, n, seed):
        # the search meets each full topology with its own Steiner numbering,
        # pair order and orientation, and its ties must still sort by the topology's encoding
        rng = np.random.default_rng(seed)
        for topology in enumerate_full_topologies(n):
            relabel = np.concatenate((np.arange(n), n + rng.permutation(n - 2)))
            pairs = [(int(relabel[a]), int(relabel[b])) for a, b in topology.plan.node_pairs()]
            pairs = [pair[::-1] if flip else pair for pair, flip in zip(pairs, rng.integers(0, 2, len(pairs)))]
            pairs = [pairs[j] for j in rng.permutation(len(pairs))]
            assert exact._encode(n, n - 2, pairs) == canonical_encoding(topology)


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

    def test_coincident_terminals_name_the_first_pair(self):
        with pytest.raises(ValueError, match="coincident terminals t0 and t2$"):
            solve_exact([(0, 0), (1, 1), (0, 0), (1, 1)])

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


class TestMalformedInput:
    """Terminals and starting positions that are not a finite (m, 2) array are
    a bad input, reported as such before any solving."""

    @pytest.mark.parametrize(
        "terminals,message",
        [
            ([(0.0, 0.0), (1.0, math.nan), (0.0, 1.0)], "terminals must be finite"),
            ([(0.0, 0.0), (1.0, math.inf), (0.0, 1.0)], "terminals must be finite"),
            ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], r"terminals must be an \(m, 2\) array, got shape \(3, 3\)"),
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], r"terminals must be an \(m, 2\) array, got shape \(6,\)"),
        ],
        ids=["nan", "inf", "three columns", "flat"],
    )
    def test_solve_exact_names_the_problem(self, terminals, message):
        with pytest.raises(ValueError, match=message):
            solve_exact(terminals)

    @pytest.mark.parametrize(
        "terminals,start,message",
        [
            ([(0.0, 0.0), (1.0, math.nan), (0.0, 1.0)], [(0.3, 0.3)], "terminals must be finite"),
            ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [(0.3, 0.3)], r"terminals must be an \(m, 2\) array"),
            (EXAMPLE1_TERMINALS, [(0.3, math.inf)], "initial positions must be finite"),
            (EXAMPLE1_TERMINALS, [(0.3, 0.3, 0.3)], r"initial positions must be an \(m, 2\) array"),
        ],
        ids=["nan terminal", "three-column terminals", "inf start", "three-column start"],
    )
    def test_optimize_fixed_topology_names_the_problem(self, terminals, start, message):
        with pytest.raises(ValueError, match=message):
            optimize_fixed_topology(terminals, star3(), start)


def offset_sets() -> list[np.ndarray]:
    """The 40 uniform n = 6 sets offset by 1e4 at the end of the degenerate
    corpus of ``tools/exact_digest.py``, drawn from the same stream."""
    rng = np.random.default_rng(6006)
    for _ in range(30):  # the nearly collinear sets
        rng.uniform(0.0, 1.0, 6), rng.uniform(-1e-3, 1e-3, 6)
    for clusters in (2, 3):  # the clustered sets
        for _ in range(15):
            rng.uniform(0.0, 1.0, (clusters, 2)), rng.normal(0.0, 1e-3, (6, 2))
    return [rng.uniform(0.0, 1.0, (6, 2)) + 1e4 for _ in range(40)]


class TestTranslationInvariance:
    """The solver works in a frame centred on the terminals, so an instance far
    from the origin solves like the same instance moved to it."""

    @pytest.mark.parametrize("which", [3, 30, 36])
    def test_offset_sets_solve_like_the_sets_at_the_origin(self, which):
        # the hardest sets to solve in absolute coordinates: there 4 and 31 leave 3 and 6 topologies
        # unconverged, and 37 fails its validity checks
        terminals = offset_sets()[which]
        result, origin = solve_exact(terminals), solve_exact(terminals - 1e4)
        assert result.unconverged == 0
        assert [canonical_encoding(tie.topology) for tie in result.ties] == [
            canonical_encoding(tie.topology) for tie in origin.ties
        ]
        assert result.length == pytest.approx(origin.length, rel=1e-12, abs=0.0)
        assert np.array_equal(result.tree.terminal_positions, terminals)  # the caller's own terminals

    def test_offset_fixed_topology_converges_like_the_one_at_the_origin(self):
        # in absolute coordinates this run spends its whole budget unconverged
        rng = np.random.default_rng(1)
        terminals = rng.uniform(0.0, 1.0, (6, 2))
        start = rng.uniform(0.2, 0.8, (105, 4, 2))[2]
        topology = enumerate_full_topologies(6)[2]
        result = optimize_fixed_topology(terminals + 1e4, topology, start + 1e4)
        origin = optimize_fixed_topology(terminals, topology, start)
        assert result.converged and origin.converged
        assert result.collapsed_edges == origin.collapsed_edges
        assert np.abs(result.tree.steiner_positions - 1e4 - origin.tree.steiner_positions).max() <= 1e-11


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


class TestCollapseExit:
    """A Newton burst stops at the first damped step that leaves a contractible
    edge under both the contraction trigger and half its starting length."""

    CROSSING = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (2, 0), (1, 1), (3, 1)}, edges_S={(0, 1)})
    SQUARE = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)

    def test_a_burst_heading_for_a_merge_exits_within_two_hessians(self):
        tf, centre, scale = exact._frame(self.SQUARE)
        A, c = exact._network(tf, 2, self.CROSSING.plan.node_pairs())
        start = (np.array([(0.3, 0.4), (0.7, 0.6)]) - centre) / scale
        with mock.patch.object(exact, "_hessian", wraps=exact._hessian) as hessian:
            s, gnorm, steps, converged = exact._newton(A, c, start, A.any(axis=1), 1e-10, 30)
        assert not converged and gnorm > 1e-10
        assert hessian.call_count == steps <= 2
        # the row joining the two Steiner points is the one collapsing
        before, after = (np.hypot(*(A[-1] @ x)) for x in (start, s))
        assert after < min(exact._CONTRACT_TRIGGER, 0.5 * before)

    @pytest.mark.parametrize("start", [[(0.0, 0.5), (1.0, 0.5)], [(0.54, 0.94), (0.82, 0.0)]])
    def test_the_contraction_still_finds_the_merged_optimum(self, start):
        # from these starts the first burst runs in the uncontracted network and exits
        result = optimize_fixed_topology(self.SQUARE, self.CROSSING, start)
        assert result.converged
        assert result.collapsed_edges == {(NodeRef.steiner(0), NodeRef.steiner(1))}
        assert np.abs(result.tree.steiner_array() - 0.5).max() < 1e-12

    def test_a_smooth_optimum_with_an_edge_under_the_trigger_converges_in_one_burst(self):
        # the optimum's Steiner-Steiner edge is 0.01 long, 0.005 of the diagonal;
        # from one Steiner point raised by 1e-3 the first step is damped and
        # leaves that edge under the trigger but not under half its start
        h = math.sqrt(3) * 0.99
        t = np.array([(0, 0), (0, h), (1, 0), (1, h)])
        rectangle = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)})
        optimum = np.array([(h / (2 * math.sqrt(3)), h / 2), (1 - h / (2 * math.sqrt(3)), h / 2)])
        tf, centre, scale = exact._frame(t)
        A, c = exact._network(tf, 2, rectangle.plan.node_pairs())
        assert 0.01 / scale < exact._CONTRACT_TRIGGER
        start = (optimum + [(0, 1e-3), (0, 0)] - centre) / scale
        s, gnorm, steps, converged = exact._newton(A, c, start, A.any(axis=1), 1e-10, 30)
        assert converged and gnorm < 1e-10
        assert np.abs(s * scale + centre - optimum).max() < 1e-12


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
        A, c = exact._network(t, 4, plan.node_pairs())
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


def regular_polygon(n: int) -> list[tuple[float, float]]:
    return [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]


def assert_bitwise_equal(result, oracle) -> None:
    assert np.float64(result.length).tobytes() == np.float64(oracle.length).tobytes()
    assert len(result.ties) == len(oracle.ties)
    for tie, expected in zip(result.ties, oracle.ties):
        assert tie.topology == expected.topology
        assert tie.steiner_positions.tobytes() == expected.steiner_positions.tobytes()
        assert tie.terminal_positions.tobytes() == expected.terminal_positions.tobytes()


_DEGENERATE_RNG = np.random.default_rng(6006)
DEGENERATE_N6 = {
    "nearly collinear": np.column_stack((_DEGENERATE_RNG.uniform(0, 1, 6), _DEGENERATE_RNG.uniform(-1e-3, 1e-3, 6))),
    "two clusters": np.repeat(_DEGENERATE_RNG.uniform(0, 1, (2, 2)), 3, axis=0) + _DEGENERATE_RNG.normal(0, 1e-3, (6, 2)),
    "three clusters": np.repeat(_DEGENERATE_RNG.uniform(0, 1, (3, 2)), 2, axis=0) + _DEGENERATE_RNG.normal(0, 1e-3, (6, 2)),
    "unit lattice": [(float(i), float(j)) for j in range(2) for i in range(3)],
    "triangular lattice": [(i + 0.5 * j, j * math.sqrt(3) / 2) for j in range(2) for i in range(3)],
    "offset by 1e4": _DEGENERATE_RNG.uniform(0, 1, (6, 2)) + 1e4,
}


# terminals on a tilted line up to rounding: some partial bounds land just
# above the optimum, and only the margin of the cut keeps their subtrees
TILTED_LINE_6 = [
    (-0.3972254906107485, 0.19707743715965384),
    (0.45095585188338977, 0.03771964329108861),
    (-0.3109481194270597, 0.18086749378577327),
    (0.45035878651891215, 0.03783182097587321),
    (0.17751272445467814, 0.08909461625079101),
    (0.09300261996203157, 0.104972522468285),
]
TILTED_LINE_5 = [
    (-0.07891646589955548, -0.6853561664516197),
    (-0.29125425318760373, -0.5739319468497958),
    (0.04565321418463408, -0.7507240859665789),
    (-0.08174293411532851, -0.683872977711668),
    (-0.4229521649181853, -0.504823488929099),
]


class TestBranchAndBound:
    """The search decides which full topologies are minimized, never how: the
    result must equal the exhaustive oracle's bit for bit."""

    def test_criterion_6_style_draw(self):
        rng = np.random.default_rng(7003)
        for n, count in ((3, 6), (4, 6), (5, 6), (6, 6)):
            for _ in range(count):
                terminals = rng.uniform(0.0, 1.0, (n, 2))
                assert_bitwise_equal(solve_exact(terminals), exhaustive_solve(terminals))

    @pytest.mark.parametrize("n,ties", [(4, 2), (5, 5), (6, 6)])
    def test_symmetric_ties_are_all_kept(self, n, ties):
        terminals = [(0, 0), (1, 0), (1, 1), (0, 1)] if n == 4 else regular_polygon(n)
        result = solve_exact(terminals)
        assert len(result.ties) == ties
        assert_bitwise_equal(result, exhaustive_solve(terminals))

    @pytest.mark.parametrize("name", sorted(DEGENERATE_N6))
    def test_degenerate_inputs(self, name):
        terminals = DEGENERATE_N6[name]
        assert_bitwise_equal(solve_exact(terminals), exhaustive_solve(terminals))

    @pytest.mark.parametrize(
        "terminals",
        [
            [(float(i), 0.0) for i in range(6)],
            [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
            TILTED_LINE_6,
            TILTED_LINE_5,
        ],
        ids=["collinear", "cross", "tilted line n=6", "tilted line n=5"],
    )
    def test_terminal_on_the_partial_tree_keeps_its_topologies(self, terminals):
        # a terminal inserted onto the partial optimum adds no length, so some
        # bounds equal the optimum and only the tie margin keeps them
        assert_bitwise_equal(solve_exact(terminals), exhaustive_solve(terminals))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        terminals=st.integers(4, 6).flatmap(
            lambda n: st.lists(
                st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=n,
                max_size=n,
                unique_by=lambda p: (round(p[0], 3), round(p[1], 3)),
            )
        )
    )
    def test_property_equal_to_exhaustive(self, terminals):
        assert_bitwise_equal(solve_exact(terminals), exhaustive_solve(terminals))

    def test_search_needs_no_table_and_plans_only_trees_it_may_return(self, monkeypatch):
        # a leaf minimizes the network its parent built: the table of full
        # topologies is never read, and a plan is built only for a reduced
        # tree (to validate it) or a returned tie
        calls = {"plans": 0, "reduced": 0}

        def build_plan(topology):
            calls["plans"] += 1
            return build_plan_original(topology)

        def contract_collapsed(*args):
            reduced = contract_original(*args)
            calls["reduced"] += reduced is not None
            return reduced

        def no_table(n):
            raise AssertionError("the search read the table of full topologies")

        build_plan_original, contract_original = trees._build_plan, exact._contract_collapsed
        monkeypatch.setattr(trees, "_build_plan", build_plan)
        monkeypatch.setattr(exact, "_contract_collapsed", contract_collapsed)
        monkeypatch.setattr(exact, "_full_topologies", no_table)
        rng = np.random.default_rng(5)
        cross = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]  # every optimum collapses onto t0
        reduced, ties = 0, 0
        for terminals in [rng.uniform(0.0, 1.0, (n, 2)) for n in (3, 4, 5, 6)] + [cross, regular_polygon(6)]:
            calls.update(plans=0, reduced=0)
            result = solve_exact(terminals)
            assert calls["plans"] <= calls["reduced"] + len(result.ties)
            reduced, ties = reduced + calls["reduced"], ties + len(result.ties)
        assert reduced > 0 and ties > 6

    def test_uniform_n6_minimizes_fewer_topologies(self):
        result = solve_exact(np.random.default_rng(5).uniform(0.0, 1.0, (6, 2)))
        assert result.minimized < 105
        assert result.minimized + result.pruned == 105
        assert result.bounded > 0
        assert result.unconverged == 0

    @pytest.mark.parametrize("n,total", [(3, 1), (4, 3), (5, 15), (6, 105)])
    def test_every_full_topology_is_minimized_or_pruned(self, n, total):
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            result = solve_exact(rng.uniform(0.0, 1.0, (n, 2)))
            assert result.minimized + result.pruned == total
            if n <= 4:
                assert result.bounded == 0

    def test_dual_certificates_spare_minimizations(self):
        # the same instance minimized 14 full topologies before certificates
        result = solve_exact(np.random.default_rng(5).uniform(0.0, 1.0, (6, 2)))
        assert result.certified > 0
        assert result.minimized < 14
        assert result.minimized + result.pruned == 105

    def test_two_terminals_count_nothing(self):
        result = solve_exact([(0, 0), (3, 4)])
        assert (result.minimized, result.bounded, result.pruned, result.unconverged) == (0, 0, 0, 0)

    def test_unconverged_topologies_are_counted(self):
        # a budget of 9 iterations leaves some topologies of this instance unconverged
        terminals = np.random.default_rng(12).uniform(0.0, 1.0, (5, 2))
        result = solve_exact(terminals, max_iterations=9)
        oracle = exhaustive_solve(terminals, max_iterations=9)
        assert 0 < result.unconverged <= oracle.unconverged
        assert result.minimized + result.pruned == 15
        assert_bitwise_equal(result, oracle)

    def test_insertion_order_is_farthest_first(self):
        # t1 and t3 are the farthest pair; t4 is farther from both than t0 and t2,
        # which are then tied at distance 1 from the inserted set
        t = np.array([(1.0, 0.0), (0.0, 0.0), (3.0, 0.0), (4.0, 0.0), (2.0, 1.5)])
        d = np.hypot(*np.moveaxis(t[:, None, :] - t[None, :, :], -1, 0))
        assert exact._insertion_order(d) == [1, 3, 4, 0, 2]

    def test_mst_length_matches_a_brute_force_over_spanning_trees(self):
        t = np.random.default_rng(3).uniform(0.0, 1.0, (5, 2))
        d = np.hypot(*np.moveaxis(t[:, None, :] - t[None, :, :], -1, 0))
        edges = list(itertools.combinations(range(5), 2))
        best = math.inf
        for chosen in itertools.combinations(edges, 4):
            parent = list(range(5))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            joined = 0
            for a, b in chosen:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    joined += 1
            if joined == 4:
                best = min(best, sum(d[a, b] for a, b in chosen))
        assert exact._mst_length(d) == pytest.approx(best, rel=1e-12)


def contract_collapsed(tree: SteinerTree) -> SteinerTree | None:
    pairs = tree.topology.plan.node_pairs()
    return exact._contract_collapsed(tree.terminal_positions, tree.steiner_positions, pairs, trees.edge_vectors(tree)[1])


class TestContractCollapsed:
    def test_merged_point_of_degree_four_is_rejected_before_building(self, monkeypatch):
        crossing = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (2, 0), (1, 1), (3, 1)}, edges_S={(0, 1)})
        tree = exact.SteinerTree.from_arrays(crossing, [(0, 0), (1, 0), (1, 1), (0, 1)], [(0.5, 0.5), (0.5, 0.5)])
        monkeypatch.setattr(exact, "validate_topology", lambda topology: pytest.fail("built a rejected topology"))
        assert contract_collapsed(tree) is None

    def test_merge_onto_a_terminal_still_builds_the_reduced_tree(self):
        tree = exact.SteinerTree.from_arrays(star3(), [(0, 0), (2, 0), (1, 0.05)], [(1, 0.05)])
        reduced = contract_collapsed(tree)
        assert reduced is not None and reduced.k == 0
        assert validate_topology(reduced.topology).ok


def certificate_terminals(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform terminals, or n-terminal sets drawn like the degenerate digest corpus's."""
    if kind == "collinear":
        return np.column_stack((rng.uniform(0.0, 1.0, n), rng.uniform(-1e-3, 1e-3, n)))
    if kind == "clustered":
        centres = rng.uniform(0.0, 1.0, (int(rng.integers(2, 4)), 2))
        return np.resize(centres, (n, 2)) + rng.normal(0.0, 1e-3, (n, 2))
    return rng.uniform(0.0, 1.0, (n, 2)) + (1e4 if kind == "offset" else 0.0)


def random_network(kind: str, n: int, missing: int, rng: np.random.Generator):
    """Terminals of ``kind``, a random full topology joining m = max(3, n - missing) of them
    (a partial network when m < n, numbered as in the search) and its (A, c) in the solver's frame."""
    t = certificate_terminals(kind, n, rng)
    m = max(3, n - missing)
    joined = rng.permutation(n)[:m]
    topologies = enumerate_full_topologies(m)
    topology = topologies[int(rng.integers(len(topologies)))]
    label = np.concatenate((joined, n + np.arange(m - 2)))
    pairs = [(int(label[p]), int(label[q])) for p, q in topology.plan.node_pairs()]
    A, c = exact._network(exact._frame(t)[0], m - 2, pairs)
    return t, joined, topology, A, c


FAMILIES = st.sampled_from(["uniform", "collinear", "clustered", "offset"])


class TestDualCertificate:
    """``exact._dual_bound`` is a lower bound on a network's optimal length
    wherever it starts, and tight at a smooth optimum."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=FAMILIES,
        n=st.integers(4, 6),
        missing=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_above_the_optimum(self, kind, n, missing, seed):
        rng = np.random.default_rng(seed)
        t, joined, topology, A, c = random_network(kind, n, missing, rng)
        m = len(joined)
        _, centre, scale = exact._frame(t)
        low, high = t.min(axis=0), t.max(axis=0)
        start = rng.uniform(2 * low - high, 2 * high - low, (m - 2, 2))
        start[rng.random(m - 2) < 0.3] = t[joined[0]]  # some start on a terminal, at the smoothing floor
        bound = exact._dual_bound(A, c, (start - centre) / scale)
        # any tree of the topology is at least the optimum, converged or not
        tree = optimize_fixed_topology(t[joined], topology, start, max_iterations=2000).tree
        assert bound * scale <= tree_length(tree) + 1e-12

    def test_tight_at_smooth_optima(self):
        # converged minimizations on uniform terminals, and 120-degree grown
        # trees, which are optima by construction, also far from the origin
        rng = np.random.default_rng(35)
        optima = []
        for _ in range(30):
            n = int(rng.integers(4, 6))
            t = rng.uniform(0.0, 1.0, (n, 2))
            for topology in enumerate_full_topologies(n):
                result = optimize_fixed_topology(t, topology, rng.uniform(0.2, 0.8, (n - 2, 2)))
                if result.converged:
                    optima.append(result.tree)
        for k in range(2, 12):
            tree = grown_tree(rng, k)
            optima += [tree, SteinerTree.from_arrays(tree.topology, tree.terminal_positions + 1e4, tree.steiner_positions + 1e4)]
        checked = 0
        for tree in optima:
            tf, centre, scale = exact._frame(tree.terminal_positions)
            if trees.edge_vectors(tree)[1].min() < 1e-3 * scale:
                continue
            A, c = exact._network(tf, tree.k, tree.topology.plan.node_pairs())
            bound = exact._dual_bound(A, c, (tree.steiner_positions - centre) / scale) * scale
            length = tree_length(tree)
            assert length - 1e-9 * length <= bound <= length + 1e-12
            checked += 1
        assert checked >= 30

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(kind=FAMILIES, n=st.integers(4, 6), seed=st.integers(0, 2**32 - 1))
    def test_stacked_children_match_single_calls_and_stay_below_their_optima(self, kind, n, seed):
        # record every search node's stacked call: one network per child
        calls = []

        def recording(A, c, s):
            bounds = dual_bound(A, c, s)
            calls.append((A, c, s, bounds))
            return bounds

        dual_bound = exact._dual_bound
        with mock.patch.object(exact, "_dual_bound", recording):
            solve_exact(certificate_terminals(kind, n, np.random.default_rng(seed)))
        assert calls
        for A, c, s, bounds in calls:
            assert A.ndim == 3 and len(A) == len(bounds) == 2 * A.shape[2] - 1  # 2m - 3 children of k = m - 1
            singles = [exact._dual_bound(A[i], c[i], s[i]) for i in range(len(A))]
            np.testing.assert_allclose(bounds, singles, rtol=1e-12, atol=0.0)
            for child, bound in enumerate(bounds):
                # any positions give at least the optimum, converged or not
                start = exact._seed_positions(A[child], c[child], 0)
                s_child = exact._minimize(A[child], c[child], start, 1e-10, 2000)[0]
                u = A[child] @ s_child + c[child]
                assert bound <= np.hypot(u[:, 0], u[:, 1]).sum() + 1e-12


class TestMinimizeToTheCut:
    """``exact._minimize`` with a cut stops only when its own dual bound proves
    the optimum above the cut; otherwise it is the run without a cut, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=FAMILIES,
        n=st.integers(4, 6),
        missing=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        margin=st.floats(-0.05, 0.3),
    )
    def test_stops_only_above_the_optimum_and_otherwise_runs_unchanged(self, kind, n, missing, seed, margin):
        rng = np.random.default_rng(seed)
        *_, A, c = random_network(kind, n, missing, rng)
        start = exact._seed_positions(A, c, int(rng.integers(1000)))
        s, gnorm, iterations, converged = exact._minimize(A, c, start, 1e-10, 2000)
        u = A @ s + c
        length = float(np.hypot(u[:, 0], u[:, 1]).sum())  # the optimum when converged, never below it
        cut = length * (1.0 - margin)
        s_cut, gnorm_cut, iterations_cut, converged_cut = exact._minimize(A, c, start, 1e-10, 2000, cut)
        if s_cut is None:
            assert length > cut
            assert iterations_cut <= iterations and not converged_cut
        else:
            assert s_cut.tobytes() == s.tobytes()
            assert (gnorm_cut, iterations_cut, converged_cut) == (gnorm, iterations, converged)

    def test_a_cut_below_the_optimum_stops_early(self):
        t = np.random.default_rng(8).uniform(0.0, 1.0, (6, 2))
        topology = enumerate_full_topologies(6)[50]
        A, c = exact._network(exact._frame(t)[0], 4, topology.plan.node_pairs())
        start = exact._seed_positions(A, c, 50)
        s, _, iterations, converged = exact._minimize(A, c, start, 1e-10, 2000)
        assert converged
        u = A @ s + c
        stopped = exact._minimize(A, c, start, 1e-10, 2000, 0.95 * np.hypot(u[:, 0], u[:, 1]).sum())
        assert stopped[0] is None and stopped[2] < iterations


class TestStalledDraws:
    @pytest.mark.parametrize("draw", [276, 766])
    def test_solves_within_half_a_second_and_equals_the_exhaustive_solve(self, draw):
        # draws of the solve-n6 benchmark stream; draw 276 once took about 2 s,
        # one warm-started partial bound running its whole 50,000-iteration budget
        terminals = np.random.default_rng([1, 0]).uniform(0.0, 1.0, (4096, 6, 2))[draw]
        start = time.perf_counter()
        result = solve_exact(terminals)
        assert time.perf_counter() - start < 0.5
        assert_bitwise_equal(result, exhaustive_solve(terminals))
