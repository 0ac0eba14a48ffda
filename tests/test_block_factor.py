"""The block LDL^T factor and the Lanczos condition number against dense oracles.

Steps are checked record by record against ``dense_step_oracle`` (one dense
solve over the whole Hessian), definiteness against ``dense_health_oracle``
(dense ``eigvalsh`` per Steiner-forest component) and condition numbers
against the latter below the dense-spectrum threshold and against
``edge_factor_condition`` above it, on 120-degree grown trees,
the bridged forest, caterpillars whose elimination depth is about k / 2, a
caterpillar cut into two components, and configurations made singular or
nearly so by lining up one Steiner point's three edges. A component with
more than ``_DENSE_SPECTRUM_MAX`` Hessian rows takes the Lanczos path, a
smaller one the dense spectrum. The two sparse factors of H^-1 that the
λmin Lanczos run applies are checked against the level-by-level solve.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steineradapt import (
    AdaptationStatus,
    IllConditionedError,
    Perturbation,
    StepPolicy,
    SteinerTopology,
    SteinerTree,
    adapt_stepwise,
    adaptation,
    derivatives,
    health_metrics,
    min_edge_length,
    first_order_delta_s,
    sensitivity_matrix,
)
from steineradapt.adaptation import _DENSE_SPECTRUM_MAX

from conftest import caterpillar_tree, dense_health_oracle, dense_step_oracle, edge_factor_condition, grown_tree

# Each property also runs explicit examples with a component above the threshold.
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)


def split_caterpillar(lengths: np.ndarray, cut: int) -> SteinerTree:
    """A caterpillar whose spine edge after Steiner point ``cut - 1`` is replaced by
    a terminal at its midpoint, joined to both ends: two components, still at
    120 degrees."""
    tree = caterpillar_tree(lengths)
    topo = tree.topology
    mid = 0.5 * (tree.steiner_positions[cut - 1] + tree.steiner_positions[cut])
    topology = SteinerTopology(
        n=topo.n + 1,
        k=topo.k,
        edges_TS=set(topo.edges_TS) | {(topo.n, cut - 1), (topo.n, cut)},
        edges_S=set(topo.edges_S) - {(cut - 1, cut)},
    )
    return SteinerTree.from_arrays(topology, np.vstack((tree.terminal_positions, mid)), tree.steiner_positions)


def lined_up(tree: SteinerTree, i: int, angle: float, tilt: float) -> SteinerTree:
    """``tree`` with Steiner point ``i``'s three neighbours moved onto (or, by
    ``tilt`` radians, just off) one line through it, which makes the Hessian
    singular (or nearly so) in the direction of that line at ``i``."""
    plan = tree.topology.plan
    nodes = np.concatenate((tree.terminal_positions, tree.steiner_positions))
    centre = plan.n + i
    neighbours = [a + b - centre for a, b in zip(plan.tail.tolist(), plan.head.tolist()) if centre in (a, b)]
    for j, direction, reach in zip(neighbours, (angle, angle + math.pi, angle + tilt), (0.7, 0.6, 0.5)):
        nodes[j] = nodes[centre] + reach * np.array([math.cos(direction), math.sin(direction)])
    return SteinerTree.from_arrays(tree.topology, nodes[: plan.n], nodes[plan.n :])


def small_move(rng: np.random.Generator, tree: SteinerTree, fraction: float) -> Perturbation:
    return Perturbation(rng.uniform(-fraction, fraction, 2 * tree.n) * min_edge_length(tree))


def largest_component_rows(tree: SteinerTree) -> int:
    return 2 * max(map(len, tree.topology.plan.forest.components), default=0)


def assert_condition_matches(got: float, tree: SteinerTree) -> None:
    """Bitwise the dense per-component value when every component is on the
    dense side of the threshold; to 1e-12 relative of the accurate
    edge-factor value when one is above it."""
    if largest_component_rows(tree) <= _DENSE_SPECTRUM_MAX:
        assert got == dense_health_oracle(tree)[1]
    else:
        assert got == pytest.approx(edge_factor_condition(tree), rel=1e-12)


def assert_run_matches_oracle(tree: SteinerTree, p: Perturbation, steps: int = 2) -> None:
    report = adapt_stepwise(tree, p, StepPolicy(steps=steps))
    assert report.status is AdaptationStatus.COMPLETED
    assert len(report.steps) == steps
    before = report.initial_tree
    assert report.initial_health.positive_definite == dense_health_oracle(before)[0]
    assert_condition_matches(report.initial_health.hessian_condition, before)
    for rec in report.steps:
        ds, _ = dense_step_oracle(before, rec.delta_t_fragment)
        assert np.linalg.norm(rec.delta_s - ds) <= 1e-12 * np.linalg.norm(ds)
        assert rec.health.positive_definite == dense_health_oracle(rec.tree)[0]
        assert_condition_matches(rec.health.hessian_condition, rec.tree)
        before = rec.tree


def assert_breakdown_matches_oracle(tree: SteinerTree) -> None:
    pd, _, offender = dense_health_oracle(tree)
    assert not pd and offender is not None
    health = health_metrics(tree)
    assert not health.positive_definite
    assert health.hessian_condition == math.inf
    report = adapt_stepwise(tree, Perturbation(np.full(2 * tree.n, 1e-3)), StepPolicy(steps=2))
    assert report.status is AdaptationStatus.ABORTED_ILL_CONDITIONED
    assert report.steps == ()
    with pytest.raises(IllConditionedError) as info:
        sensitivity_matrix(tree)
    named = re.search(r"Hessian component (\[[0-9, ]*\])", str(info.value))
    assert named is not None and json.loads(named.group(1)) == offender


class TestAgainstDenseOracle:
    @PROPERTY
    @given(k=st.integers(2, 240), seed=seeds, fraction=st.floats(0.005, 0.05))
    @example(k=200, seed=1, fraction=0.05)
    def test_grown(self, k, seed, fraction):
        rng = np.random.default_rng(seed)
        tree = grown_tree(rng, k)
        assert_run_matches_oracle(tree, small_move(rng, tree, fraction))

    @PROPERTY
    @given(k=st.integers(2, 240), seed=seeds)
    @example(k=200, seed=2)
    def test_caterpillar(self, k, seed):
        rng = np.random.default_rng(seed)
        tree = caterpillar_tree(rng.uniform(0.3, 1.5, k + 1))
        assert len(tree.topology.plan.forest.levels) == k // 2
        assert_run_matches_oracle(tree, small_move(rng, tree, 0.02))

    @PROPERTY
    @given(k=st.integers(4, 240), seed=seeds, cut=st.floats(0.1, 0.9))
    @example(k=240, seed=3, cut=0.3)
    @example(k=340, seed=8, cut=0.5)
    def test_split_caterpillar(self, k, seed, cut):
        rng = np.random.default_rng(seed)
        tree = split_caterpillar(rng.uniform(0.3, 1.5, k + 1), max(1, min(k - 1, round(cut * k))))
        assert len(tree.topology.plan.forest.components) == 2
        assert_run_matches_oracle(tree, small_move(rng, tree, 0.02))

    @PROPERTY
    @given(seed=seeds)
    def test_bridged(self, bridged_tree, seed):
        rng = np.random.default_rng(seed)
        assert_run_matches_oracle(bridged_tree, Perturbation(rng.uniform(-0.05, 0.05, 2 * bridged_tree.n)), steps=3)


class TestBreakdownAgainstDenseOracle:
    tilts = st.sampled_from([0.0, 1e-9])
    angles = st.floats(0.0, 2 * math.pi)

    @PROPERTY
    @given(k=st.integers(2, 240), seed=seeds, angle=angles, tilt=tilts)
    @example(k=200, seed=6, angle=0.5, tilt=1e-9)
    def test_grown(self, k, seed, angle, tilt):
        rng = np.random.default_rng(seed)
        tree = grown_tree(rng, k)
        assert_breakdown_matches_oracle(lined_up(tree, int(rng.integers(k)), angle, tilt))

    @PROPERTY
    @given(k=st.integers(2, 240), seed=seeds, angle=angles, tilt=tilts)
    @example(k=200, seed=7, angle=0.0, tilt=0.0)
    def test_caterpillar(self, k, seed, angle, tilt):
        rng = np.random.default_rng(seed)
        tree = caterpillar_tree(rng.uniform(0.3, 1.5, k + 1))
        assert_breakdown_matches_oracle(lined_up(tree, int(rng.integers(k)), angle, tilt))

    @PROPERTY
    @given(k=st.integers(4, 240), seed=seeds, angle=angles, tilt=tilts, first=st.booleans())
    @example(k=340, seed=4, angle=1.0, tilt=0.0, first=True)
    @example(k=340, seed=5, angle=2.0, tilt=1e-9, first=False)
    def test_split_caterpillar_names_the_singular_component(self, k, seed, angle, tilt, first):
        rng = np.random.default_rng(seed)
        cut = k // 2
        tree = split_caterpillar(rng.uniform(0.3, 1.5, k + 1), cut)
        i = int(rng.integers(cut)) if first else int(rng.integers(cut, k))
        assert_breakdown_matches_oracle(lined_up(tree, i, angle, tilt))

    @PROPERTY
    @given(i=st.integers(0, 3), angle=angles, tilt=tilts)
    def test_bridged(self, bridged_tree, i, angle, tilt):
        assert_breakdown_matches_oracle(lined_up(bridged_tree, i, angle, tilt))


def test_repeated_runs_are_bitwise_equal():
    # Lanczos starts from a fixed vector, so the condition numbers repeat to the bit
    rng = np.random.default_rng(41)
    tree = grown_tree(rng, 170)
    p = small_move(rng, tree, 0.05)
    first, second = (adapt_stepwise(tree, p, StepPolicy(steps=3)) for _ in range(2))
    assert first.status is second.status is AdaptationStatus.COMPLETED
    assert first.initial_health == second.initial_health
    for a, b in zip(first.steps, second.steps, strict=True):
        assert a.health == b.health
        assert np.array_equal(a.delta_s, b.delta_s)
        assert a.tree == b.tree


@pytest.mark.parametrize("k, dense", [(_DENSE_SPECTRUM_MAX // 2, True), (_DENSE_SPECTRUM_MAX // 2 + 1, False)])
def test_dense_algebra_only_below_the_spectrum_threshold(monkeypatch, k, dense):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(derivatives.BlockMatrix2, "to_dense", counted("to_dense", derivatives.BlockMatrix2.to_dense))
    rng = np.random.default_rng(k)
    tree = grown_tree(rng, k)
    report = adapt_stepwise(tree, small_move(rng, tree, 0.05), StepPolicy(steps=2))
    assert report.status is AdaptationStatus.COMPLETED
    assert set(calls) == ({"eigvalsh"} if dense else set())


def joined(large: SteinerTree, small: SteinerTree) -> SteinerTree:
    """``large`` moved 1e4 to the right and ``small`` kept in place, one tree
    through an edge between their first terminals: two components or more."""
    a, b = large.topology, small.topology
    topology = SteinerTopology(
        n=a.n + b.n,
        k=a.k + b.k,
        edges_T={(0, a.n)},
        edges_TS={(t, s) for t, s in a.edges_TS} | {(a.n + t, a.k + s) for t, s in b.edges_TS},
        edges_S=set(a.edges_S) | {(a.k + i, a.k + j) for i, j in b.edges_S},
    )
    shift = np.array([1e4, 0.0])
    return SteinerTree.from_arrays(
        topology,
        np.vstack((large.terminal_positions + shift, small.terminal_positions)),
        np.vstack((large.steiner_positions + shift, small.steiner_positions)),
    )


@pytest.mark.parametrize("k", [_DENSE_SPECTRUM_MAX // 2, _DENSE_SPECTRUM_MAX // 2 + 1])
def test_components_apart_in_scale_are_judged_one_by_one(k):
    # each component passes its own definiteness test, their union does not:
    # the health says not positive definite, yet every solve goes through,
    # on either side of the dense-spectrum threshold
    rng = np.random.default_rng(k)
    tree = joined(grown_tree(rng, k, scale=100.0), grown_tree(rng, 3, scale=1e-9))
    assert dense_health_oracle(tree) == (False, math.inf, None)
    health = health_metrics(tree)
    assert not health.positive_definite
    assert health.hessian_condition == math.inf
    assert np.isfinite(sensitivity_matrix(tree)).all()
    p = small_move(rng, tree, 0.01)
    ds, _ = dense_step_oracle(tree, p.delta_t)
    assert np.linalg.norm(first_order_delta_s(tree, p) - ds) <= 1e-9 * np.linalg.norm(ds)


def inverse_times(tree: SteinerTree, x: np.ndarray) -> np.ndarray:
    """``H^-1 x`` for ``x`` of shape ``(k, 2, c)`` through the factor's two sparse
    factors, which work in the forest's root-down numbering."""
    factor = adaptation._evaluate(tree).factor
    lt, m = factor.inverse_factors
    order = np.argsort(tree.topology.plan.forest.paths.position)
    y = np.empty_like(x)
    y[order] = (lt @ (m @ x[order].reshape(2 * tree.k, -1))).reshape(x.shape)
    return y


def path_blocks(tree: SteinerTree) -> int:
    """The number of (point, ancestor) pairs of the Steiner forest, a point
    counted as its own ancestor: the sum over the points of depth + 1."""
    depth = np.zeros(tree.k, dtype=int)
    for d, (child, _, _) in enumerate(reversed(tree.topology.plan.forest.levels), 1):
        depth[child] = d
    return int((depth + 1).sum())


class TestInverseFactors:
    """The two sparse factors of H^-1 that the λmin Lanczos run applies."""

    @pytest.mark.parametrize(
        "name, tree",
        [
            ("grown 170", grown_tree(np.random.default_rng(170), 170)),
            ("grown 398", grown_tree(np.random.default_rng(398), 398)),
            ("caterpillar 340", caterpillar_tree(np.random.default_rng(340).uniform(0.3, 1.5, 341))),
            ("split caterpillar 340", split_caterpillar(np.random.default_rng(341).uniform(0.3, 1.5, 341), 120)),
        ],
    )
    def test_equal_the_level_by_level_solve(self, name, tree):
        factor = adaptation._evaluate(tree).factor
        lt, m = factor.inverse_factors
        assert lt.blocksize == m.blocksize == (2, 2)
        assert lt.data.shape[0] == m.data.shape[0] == path_blocks(tree) == tree.topology.plan.forest.path_blocks
        x = np.random.default_rng(0).standard_normal((tree.k, 2, 3))
        solved = factor.solve(x)
        assert np.linalg.norm(inverse_times(tree, x) - solved) <= 1e-13 * np.linalg.norm(solved)

    def test_keep_the_components_apart(self):
        tree = split_caterpillar(np.random.default_rng(342).uniform(0.3, 1.5, 341), 120)
        for members in map(np.array, tree.topology.plan.forest.components):
            x = np.zeros((tree.k, 2, 1))
            x[members] = np.random.default_rng(1).standard_normal((members.size, 2, 1))
            y = inverse_times(tree, x)
            outside = np.setdiff1d(np.arange(tree.k), members)
            assert np.all(y[outside] == 0.0)
            assert np.isfinite(y[members]).all() and np.abs(y[members]).max() > 0

    @pytest.mark.parametrize("seed, angle, i, nonfinite", [(0, math.pi / 2, 5, True), (0, 0.0, 84, False)])
    def test_a_singular_component_leaves_the_other_to_lanczos(self, seed, angle, i, nonfinite):
        # the whole-tree operator carries the singular component's inf and nan;
        # the healthy component, on the Lanczos path, must not see them
        k, cut = 340, 170
        tree = lined_up(split_caterpillar(np.random.default_rng(seed).uniform(0.3, 1.5, k + 1), cut), i, angle, 0.0)
        bad, good = (np.array(members) for members in tree.topology.plan.forest.components)
        assert 2 * good.size > _DENSE_SPECTRUM_MAX
        factor = adaptation._evaluate(tree).factor
        assert not factor.definite[bad].all() and factor.definite[good].all()
        lt, m = factor.inverse_factors
        assert np.isfinite(np.concatenate((lt.data, m.data))).all() != nonfinite
        smallest, largest, problem = adaptation._component_spectrum(factor, good)
        assert problem is None and np.isfinite([smallest, largest]).all()
        assert largest / smallest == pytest.approx(edge_factor_condition(tree, good), rel=1e-12)
        x = np.zeros((tree.k, 2, 1))
        x[good] = np.random.default_rng(2).standard_normal((good.size, 2, 1))
        solved = factor.solve(x)[good]
        assert np.linalg.norm(inverse_times(tree, x)[good] - solved) <= 1e-13 * np.linalg.norm(solved)

    @pytest.mark.parametrize("sparse", [True, False])
    def test_either_side_of_the_block_limit_gives_the_same_spectrum(self, monkeypatch, sparse):
        # a k = 340 caterpillar has about 85 blocks per point: set the limit
        # just at or just below that, so the λmin run takes either path
        tree = caterpillar_tree(np.random.default_rng(343).uniform(0.3, 1.5, 341))
        forest = tree.topology.plan.forest
        blocks = forest.path_blocks
        limit = -(-blocks // tree.k) if sparse else (blocks - 1) // tree.k
        monkeypatch.setattr(adaptation, "_INVERSE_BLOCKS_PER_POINT", limit)
        evaluation = adaptation._evaluate(tree)
        assert ("inverse_factors" in evaluation.factor.__dict__) == ("paths" in forest.__dict__) == sparse
        assert evaluation.error is None
        condition = evaluation.health.hessian_condition
        assert condition == pytest.approx(edge_factor_condition(tree), rel=1e-12)
