"""First-order adaptation of Steiner points under terminal perturbations.

At a fixed-topology optimum the Steiner gradient vanishes; differentiating
that stationarity condition in the terminal positions gives the
sensitivity matrix mapping a terminal displacement to the first-order
Steiner displacement:

    X = -(d2J/ds2)^(-1) (d2J/dt ds)

The Steiner Hessian is built from 2x2 blocks whose sparsity graph is the
Steiner-Steiner forest, so a block LDL^T factor that eliminates each
component from its leaves inward makes no fill-in: factor and solve take
O(k) block operations. Large perturbations are handled stepwise: split the
move into fragments and solve each one's first-order update with the
factor of the current tree, without forming X. The stepper watches edge
lengths, directions and Hessian conditioning and aborts instead of
stepping through a topology breakdown. Corrected mode polishes each step's
prediction back onto the fixed-topology optimum by Newton steps, each
solved with the same block factor built at its own iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import exact
from .derivatives import SecondPartials, second_partials, steiner_gradient
from .errors import DegenerateEdgeError, IllConditionedError, SteinerAdaptError
from .trees import COINCIDENT_THRESHOLD, EdgePlan, SteinerTree, _geometric_conditions, validate_topology

# Relative eigenvalue floor below which the Hessian is treated as not
# positive definite.
_PD_RTOL = 1e-12
# Residual gate for the component solves, relative to the matrix norm.
_SOLVE_RTOL = 1e-10
# Most Hessian rows (2 per Steiner point) of a Steiner-forest component
# whose extreme eigenvalues come from a dense eigvalsh; a larger component
# gets Lanczos. On the grown trees of k = 120 to 240 Lanczos pays 3-5 ms:
# 1.4-3.1 ms for the λmax run, 0.3-0.45 ms to build the inverse factors
# and 0.9-1.4 ms for the λmin run. The O(k^3) eigvalsh overtakes it at
# about k = 130 (tools/spectrum_timing.py, 2-core Xeon, one BLAS thread),
# within a quarter of the k = 160 that this threshold was set for, so it
# stays. ARPACK could not run on the smallest matrices anyway.
_DENSE_SPECTRUM_MAX = 320
# Most 2x2 blocks per Steiner point (the mean depth in the Steiner forest,
# plus one) for which the λmin Lanczos run applies H^-1 through the
# factor's cached inverse_factors rather than level-by-level solves. Their
# build peaks at about 130 bytes per block, the forest's paths included, so
# this caps it near 17 kB per Steiner point. On caterpillars (tools/spectrum_timing.py, 2-core Xeon,
# one BLAS thread) build plus run cost 12-14 ms against 45-52 ms by solves
# at 100 blocks per point (k = 398), 47-51 against 94-107 ms at 200, and
# draw level at about 400 (k = 1598).
_INVERSE_BLOCKS_PER_POINT = 128
# Newton steps a corrected step makes before it hands its last accepted
# iterate to exact.optimize_fixed_topology.
_NEWTON_STEPS = 8
# Gradient norm at which a corrected step is done: optimize_fixed_topology's
# default grad_tol. The gradient is a sum of unit vectors, so it needs no scale.
_NEWTON_GRAD_TOL = 1e-10


class AdaptationMode(Enum):
    PURE = "pure"
    CORRECTED = "corrected"


class AdaptationStatus(Enum):
    COMPLETED = "completed"
    ABORTED_ILL_CONDITIONED = "aborted-ill-conditioned"
    ABORTED_DEGENERATE_EDGE = "aborted-degenerate-edge"


@dataclass(frozen=True, eq=False)
class Perturbation:
    """A terminal displacement, flattened as (dx0, dy0, dx1, dy1, ...)."""

    delta_t: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.delta_t, dtype=float).reshape(-1)  # own copy, caller's array untouched
        if arr.size % 2 != 0:
            raise ValueError(f"delta_t must have even length, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("delta_t entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "delta_t", arr)

    @property
    def n(self) -> int:
        return self.delta_t.size // 2

    @staticmethod
    def from_pairs(pairs) -> "Perturbation":
        return Perturbation(np.asarray(pairs, dtype=float).reshape(-1))

    @staticmethod
    def zero(n: int) -> "Perturbation":
        return Perturbation(np.zeros(2 * n))


@dataclass(frozen=True)
class StepPolicy:
    """How a stepwise run splits the perturbation and when it gives up.

    Exactly one of ``steps`` and ``max_step_norm`` may be set. With
    neither, each step caps the terminal displacement at 10% of the
    current minimum edge length, which tracks the curvature scale of the
    problem (every derivative block carries one over an edge length).
    """

    steps: int | None = None
    max_step_norm: float | None = None
    mode: AdaptationMode = AdaptationMode.PURE
    condition_limit: float = 1e6
    min_edge_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.steps is not None and self.max_step_norm is not None:
            raise ValueError("set at most one of steps and max_step_norm")
        if self.steps is not None and self.steps < 1:
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.max_step_norm is not None and not self.max_step_norm > 0:
            raise ValueError(f"max_step_norm must be positive, got {self.max_step_norm}")
        if not self.condition_limit > 0:
            raise ValueError("condition_limit must be positive")
        if not 0.0 < self.min_edge_fraction < 1.0:
            raise ValueError("min_edge_fraction must be in (0, 1)")


@dataclass(frozen=True)
class HealthReport:
    """Numerical health of a configuration for first-order stepping.

    ``hessian_condition`` is the ratio of extreme eigenvalues of the
    Steiner Hessian (1.0 for trees without Steiner points, infinity when
    not positive definite or degenerate).
    """

    min_edge_length: float
    max_steiner_angle_deviation: float
    hessian_condition: float
    positive_definite: bool


@dataclass(frozen=True, eq=False)
class StepRecord:
    index: int
    delta_t_fragment: np.ndarray
    delta_s: np.ndarray
    tree: SteinerTree
    health: HealthReport
    tree_length: float


@dataclass(frozen=True, eq=False)
class AdaptationReport:
    """Trajectory of a stepwise run, including the starting configuration."""

    initial_tree: SteinerTree
    initial_health: HealthReport
    initial_length: float
    steps: tuple[StepRecord, ...]
    final_tree: SteinerTree
    status: AdaptationStatus

    @property
    def applied_delta_t(self) -> np.ndarray:
        total = np.zeros(2 * self.initial_tree.n)
        for rec in self.steps:
            total = total + rec.delta_t_fragment
        return total


@dataclass(frozen=True, eq=False)
class _BlockFactor:
    """Block LDL^T of the Steiner Hessian, eliminating each Steiner-forest
    component from its leaves to its root along the plan's levels.

    ``inverse[i]`` is the inverse of Steiner point ``i``'s 2x2 pivot and
    ``definite[i]`` whether that pivot is positive definite; by Sylvester's
    law of inertia a component is positive definite exactly when all of its
    pivots are. ``multipliers`` holds, per level, ``inverse[child] @ B`` for
    the Hessian block ``B`` joining each child to its parent.
    """

    partials: SecondPartials
    inverse: np.ndarray
    multipliers: tuple[np.ndarray, ...]
    definite: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``H^-1 rhs`` for ``rhs`` of shape ``(k, 2, c)``."""
        levels = self.partials.plan.forest.levels
        y = rhs.copy()
        for (child, parent, _), w in zip(levels, self.multipliers):
            np.add.at(y, parent, -np.einsum("kba,kbc->kac", w, y[child]))
        x = np.einsum("kab,kbc->kac", self.inverse, y)
        for (child, parent, _), w in zip(reversed(levels), reversed(self.multipliers)):
            x[child] -= np.einsum("kab,kbc->kac", w, x[parent])
        return x

    @cached_property
    def inverse_factors(self):
        """``(Lt, M)``, scipy sparse arrays of 2x2 blocks with ``H^-1 = Lt @ M``
        in the root-down numbering of the forest's ``paths`` (Steiner point i
        is block row ``paths.position[i]``), for callers that apply H^-1 many
        times, like :meth:`SecondPartials.hessian` for H. One-off solves keep
        :meth:`solve`, which trees without a Lanczos run never leave.

        With ``H = L D L^T``, ``Lt`` is ``L^-T`` and ``M`` is ``D^-1 L^-1``.
        Column j of ``L^-1`` is nonzero only on the path from j to its root,
        so each holds one block per point of each Steiner point's path,
        ``depth + 1`` per point: about 3k to 4k blocks on a 120-degree grown
        tree with k = 398, but k^2 / 4 on a path of k points (40k at
        k = 398), so :func:`_lanczos_extremes` builds them only up to
        ``_INVERSE_BLOCKS_PER_POINT`` blocks per point. The build peaks at
        about 104 bytes per block and keeps 72. Row j of ``Lt`` is the
        identity at j followed by ``-multiplier[j]`` times the row of j's
        parent, so the rows take one batched product per level, from the
        roots down; the same products carry each block times its column's
        pivot inverse, which are ``M``'s blocks transposed. A product with
        H^-1 is then two compiled sparse products with no Python loop. A
        component with a singular pivot fills only its own rows with inf and
        nan.
        """
        from scipy.sparse import bsr_array

        forest = self.partials.plan.forest
        paths = forest.paths
        identity = np.eye(2)

        def depths():
            """Per depth, from the roots down, its points' rows as (point, block
            row, path, column): their blocks of Lt beside the same blocks
            times their column's pivot inverse."""
            row = np.empty((forest.roots.size, 2, 1, 4))
            row[:, :, 0, :2], row[:, :, 0, 2:] = identity, self.inverse[forest.roots]
            yield row
            for (child, _, _), above, w in zip(reversed(forest.levels), paths.parents, reversed(self.multipliers)):
                depth = row.shape[2]
                upper = row[above].reshape(child.size, 2, 4 * depth)
                row = np.empty((child.size, 2, depth + 1, 4))
                row[:, :, 0, :2], row[:, :, 0, 2:] = identity, self.inverse[child]
                row[:, :, 1:] = ((-w) @ upper).reshape(child.size, 2, depth, 4)
                yield row

        # the blocks of Lt and of M^T in the paths' row order, each depth's
        # rows written in place as they are made
        lt, mt = np.empty((paths.columns.size, 2, 2)), np.empty((paths.columns.size, 2, 2))
        at = 0
        with np.errstate(invalid="ignore", over="ignore"):
            for row in depths():
                count, size = row.shape[0], row.shape[0] * row.shape[2]
                lt[at : at + size].reshape(count, -1, 2, 2)[:] = row[..., :2].transpose(0, 2, 1, 3)
                mt[at : at + size].reshape(count, -1, 2, 2)[:] = row[..., 2:].transpose(0, 2, 1, 3)
                at += size
        pattern, shape = (paths.columns, paths.indptr), (2 * self.partials.plan.k,) * 2
        return bsr_array((lt, *pattern), shape=shape), bsr_array((mt, *pattern), shape=shape).T


def _inverse2(blocks: np.ndarray) -> np.ndarray:
    """Inverses of a stack of symmetric 2x2 blocks, exactly symmetric themselves."""
    inverse = np.empty_like(blocks)
    inverse[:, 0, 0], inverse[:, 1, 1] = blocks[:, 1, 1], blocks[:, 0, 0]
    inverse[:, 0, 1] = inverse[:, 1, 0] = -0.5 * (blocks[:, 0, 1] + blocks[:, 1, 0])
    inverse /= (inverse[:, 0, 0] * inverse[:, 1, 1] - inverse[:, 0, 1] * inverse[:, 0, 1])[:, None, None]
    return inverse


def _factor(partials: SecondPartials) -> _BlockFactor:
    forest = partials.plan.forest
    pivots = partials.diag.copy()
    inverse = np.empty_like(pivots)
    multipliers = []
    # a singular pivot spreads inf and nan only through its own component,
    # which its definite flag then marks
    with np.errstate(divide="ignore", invalid="ignore"):
        for child, parent, edge in forest.levels:
            inverse[child] = _inverse2(pivots[child])
            w = np.einsum("kab,kbc->kac", inverse[child], partials.off[edge])
            np.add.at(pivots, parent, -np.einsum("kab,kbc->kac", partials.off[edge], w))
            multipliers.append(w)
        inverse[forest.roots] = _inverse2(pivots[forest.roots])
    det = pivots[:, 0, 0] * pivots[:, 1, 1] - pivots[:, 0, 1] * pivots[:, 1, 0]
    return _BlockFactor(partials, inverse, tuple(multipliers), (pivots[:, 0, 0] > 0) & (det > 0))


@dataclass(frozen=True, eq=False)
class _Linearization:
    """A configuration's edge vectors and lengths and the factor of its Steiner
    Hessian: all that a Newton step needs. No factor when an edge is no longer
    than the coincidence threshold."""

    edges: np.ndarray
    lengths: np.ndarray
    factor: _BlockFactor | None


@dataclass(frozen=True, eq=False)
class _Evaluation(_Linearization):
    """A tree's linearization with its health. ``error`` is what a solve here
    raises: the degenerate edge (and then no factor) or the first
    Steiner-forest component that is not definite."""

    tree: SteinerTree
    health: HealthReport
    error: SteinerAdaptError | None


def _is_positive_definite(smallest: float, largest: float) -> bool:
    return bool(largest > 0 and smallest > _PD_RTOL * largest)


def _dense_component(partials: SecondPartials, members: np.ndarray) -> np.ndarray:
    """The Hessian's rows and columns of the Steiner points ``members``, in that order, as a dense matrix."""
    plan = partials.plan
    ss = plan.steiner_steiner
    diagonal = np.arange(members.size)
    local = np.full(plan.k, -1)
    local[members] = diagonal
    a, b = local[plan.tail[ss] - plan.n], local[plan.head[ss] - plan.n]
    inside = a >= 0  # a Steiner-Steiner edge lies in the component of either end
    blocks = np.zeros((members.size, members.size, 2, 2))
    blocks[diagonal, diagonal] = partials.diag[members]
    blocks[a[inside], b[inside]] = blocks[b[inside], a[inside]] = partials.off[inside]
    return blocks.transpose(0, 2, 1, 3).reshape(2 * members.size, 2 * members.size)


def _largest_eigenvalue(apply, points: np.ndarray, k: int) -> float:
    """The largest eigenvalue, by Lanczos (ARPACK), of the symmetric map
    ``apply`` of length-2k vectors on the rows of the Steiner points
    ``points``: it acts on a vector that is zero off them. A run on all k
    points needs no scatter, since its eigenvalues do not depend on their
    order. Every run starts from one fixed vector with ``tol=0``, so that
    equal inputs give equal bits.
    """
    # imported on first use, like scipy.sparse in SecondPartials.hessian
    from scipy.sparse.linalg import LinearOperator, eigsh

    size = 2 * points.size
    if points.size == k:

        def matvec(v: np.ndarray) -> np.ndarray:
            return apply(v.reshape(-1))

    else:
        rows = (2 * points[:, None] + np.arange(2)).reshape(-1)

        def matvec(v: np.ndarray) -> np.ndarray:
            full = np.zeros(2 * k)
            full[rows] = v.reshape(-1)
            return apply(full)[rows]

    start = np.random.default_rng(0).standard_normal(size)
    operator = LinearOperator((size, size), matvec=matvec, dtype=float)
    return float(eigsh(operator, k=1, which="LA", v0=start, tol=0, return_eigenvectors=False)[0])


def _lanczos_extremes(factor: _BlockFactor, members: np.ndarray) -> tuple[float, float]:
    """The smallest and largest eigenvalue of the Hessian on the Steiner points
    ``members`` of one component, from Lanczos.

    The largest comes from products with H, the smallest as the reciprocal
    of the largest eigenvalue of H^-1. H is block diagonal over the
    components, so both act on a vector that is zero off the component.
    H^-1 is applied through the factor's ``inverse_factors`` when they hold
    at most ``_INVERSE_BLOCKS_PER_POINT`` blocks per Steiner point, and by
    the level-by-level solve otherwise.
    """
    plan = factor.partials.plan
    k, forest = plan.k, plan.forest
    largest = _largest_eigenvalue(factor.partials.hessian.dot, members, k)
    if forest.path_blocks <= _INVERSE_BLOCKS_PER_POINT * k:
        lt, m = factor.inverse_factors
        inverse = _largest_eigenvalue(lambda v: lt @ (m @ v), forest.paths.position[members], k)
    else:
        inverse = _largest_eigenvalue(lambda v: factor.solve(v.reshape(k, 2, 1)).reshape(-1), members, k)
    return 1.0 / inverse, largest


def _component_spectrum(factor: _BlockFactor, members: np.ndarray) -> tuple[float, float, str | None]:
    """The extreme eigenvalues of the Hessian on one Steiner-forest component,
    and what makes the component fail the definiteness test (None if it passes).

    A component of at most ``_DENSE_SPECTRUM_MAX`` rows gets a dense
    eigvalsh; a larger one Lanczos, unless a block pivot already shows it
    is not positive definite.
    """
    definite = factor.definite[members]
    if 2 * members.size <= _DENSE_SPECTRUM_MAX:
        eigs = np.linalg.eigvalsh(_dense_component(factor.partials, members))
        smallest, largest = eigs[0], eigs[-1]
    elif not definite.all():
        i = members[int(np.argmin(definite))]
        return math.nan, math.nan, f"has a block pivot at s{i} that is not positive definite"
    else:
        smallest, largest = _lanczos_extremes(factor, members)
    if definite.all() and _is_positive_definite(smallest, largest):
        return smallest, largest, None
    return smallest, largest, f"has eigenvalue range [{smallest:.3e}, {largest:.3e}]"


def _linearize(plan: EdgePlan, terminals: np.ndarray, steiner: np.ndarray) -> _Linearization:
    """Edge vectors, lengths and Hessian factor of the nodes at ``terminals`` and
    ``steiner``, without their health and without building a tree."""
    edges, lengths = plan.edge_vectors(terminals, steiner)
    if (lengths <= COINCIDENT_THRESHOLD).any():
        return _Linearization(edges, lengths, None)
    return _Linearization(edges, lengths, _factor(second_partials(plan, edges, lengths)))


def _assess(tree: SteinerTree, linear: _Linearization) -> _Evaluation:
    """``tree``'s linearization with its health; a degenerate configuration gives a report, not an error."""
    edges, lengths, factor = linear.edges, linear.lengths, linear.factor
    try:
        geo = _geometric_conditions(tree.topology.plan, edges, lengths, angle_tol=1e-6)
    except DegenerateEdgeError as e:
        health = HealthReport(
            min_edge_length=float(lengths.min()),
            max_steiner_angle_deviation=math.pi,
            hessian_condition=math.inf,
            positive_definite=False,
        )
        return _Evaluation(edges, lengths, None, tree, health, e)
    components = tree.topology.plan.forest.components
    spectra = [_component_spectrum(factor, np.array(members)) for members in components]
    offenders = [(members, problem) for members, (_, _, problem) in zip(components, spectra) if problem is not None]
    error = None
    if offenders:
        members, problem = offenders[0]
        error = IllConditionedError(
            f"ill-conditioned at this configuration: Hessian component {list(members)} {problem}"
        )
    # H is block diagonal over the components, so its spectrum is their union
    smallest = min((lo for lo, _, _ in spectra), default=1.0)
    largest = max((hi for _, hi, _ in spectra), default=1.0)
    pd = error is None and _is_positive_definite(smallest, largest)
    health = HealthReport(
        min_edge_length=geo.min_edge_length,
        max_steiner_angle_deviation=geo.max_steiner_angle_deviation,
        hessian_condition=float(largest / smallest) if pd else math.inf,
        positive_definite=pd,
    )
    return _Evaluation(edges, lengths, factor, tree, health, error)


def _evaluate(tree: SteinerTree) -> _Evaluation:
    return _assess(tree, _linearize(tree.topology.plan, tree.terminal_positions, tree.steiner_positions))


def _solve(evaluation: _Evaluation, delta_t: np.ndarray, scale: float) -> np.ndarray:
    """``H^-1 (-M delta_t)`` as ``(2k, c)`` for a flattened terminal displacement
    ``(2n,)`` or ``(2n, c)``; ``scale`` is the norm of ``delta_t`` in the
    per-component residual gate (1 for the identity, which gives X)."""
    if evaluation.error is not None:
        raise evaluation.error
    partials = evaluation.factor.partials
    rhs = -partials.mixed_times(delta_t)
    x = evaluation.factor.solve(rhs)
    forest = partials.plan.forest
    squares = np.square(partials.hessian_times(x) - rhs).sum(axis=(1, 2))
    residual = np.sqrt(np.bincount(forest.component, squares, len(forest.components)))
    failed = np.flatnonzero(residual > _SOLVE_RTOL * partials.hessian_norms() * scale)
    if failed.size:
        raise IllConditionedError(f"ill-conditioned at this configuration: solve residual {residual[failed[0]]:.3e}")
    return x.reshape(2 * partials.plan.k, rhs.shape[2])  # sizes spelled out: k may be 0


def _check_topology(tree: SteinerTree) -> None:
    validation = validate_topology(tree.topology)
    if not validation.ok:
        raise ValueError("invalid topology: " + "; ".join(validation.violations))


def _check_perturbation(tree: SteinerTree, p: Perturbation) -> None:
    if p.delta_t.size != 2 * tree.n:
        raise ValueError(f"perturbation length {p.delta_t.size} does not match 2n = {2 * tree.n}")
    _check_topology(tree)


def sensitivity_matrix(tree: SteinerTree) -> np.ndarray:
    """The 2k x 2n linear map from terminal displacement to Steiner displacement.

    Solved as 2n columns through the block LDL^T factor of the Steiner
    Hessian, which is block diagonal over the Steiner-forest components;
    columns for terminals not attached to a component are exactly zero on
    that component's rows.

    Raises:
        DegenerateEdgeError: an edge is no longer than the coincidence threshold.
        IllConditionedError: the Steiner Hessian is not positive definite
            at this configuration, or a component solve left a residual
            above tolerance.
    """
    _check_topology(tree)
    if tree.k == 0:
        return np.zeros((0, 2 * tree.n))
    return _solve(_evaluate(tree), np.eye(2 * tree.n), 1.0)


def first_order_delta_s(tree: SteinerTree, p: Perturbation) -> np.ndarray:
    """First-order Steiner displacement for ``p``, solved from ``H ds = -M dt`` without forming X."""
    _check_perturbation(tree, p)
    if tree.k == 0:
        return np.zeros(0)
    return _solve(_evaluate(tree), p.delta_t, float(np.linalg.norm(p.delta_t))).reshape(-1)


def health_metrics(tree: SteinerTree) -> HealthReport:
    """Edge, angle and conditioning metrics; degeneracy yields a report, not an error.

    Raises:
        ValueError: the Steiner-Steiner edges contain a cycle, which no
            valid topology has.
    """
    return _evaluate(tree).health


def _correct(tree: SteinerTree) -> _Evaluation:
    """The fixed-topology optimum for ``tree``'s terminals, evaluated, reached from
    its Steiner positions by Newton steps on each iterate's own Hessian factor.

    A first-order prediction is O(h^2) from that optimum, inside Newton's
    quadratic basin, so one or two steps usually reach the gradient tolerance.
    A step is taken in full and accepted only if it decreases ||dJ/ds||. When
    a pivot is not definite, an edge degenerates, a step fails to decrease the
    gradient or the steps run out, the last accepted iterate goes to
    :func:`exact.optimize_fixed_topology` instead.
    """
    plan, terminals, steiner = tree.topology.plan, tree.terminal_positions, tree.steiner_positions
    accepted, gnorm = _linearize(plan, terminals, steiner), math.inf
    if accepted.factor is not None:
        g = steiner_gradient(plan, accepted.edges, accepted.lengths)
        gnorm = float(np.linalg.norm(g))
        for _ in range(_NEWTON_STEPS):
            if gnorm <= _NEWTON_GRAD_TOL or not accepted.factor.definite.all():
                break
            moved = steiner + accepted.factor.solve(-g.reshape(plan.k, 2, 1)).reshape(plan.k, 2)
            trial = _linearize(plan, terminals, moved)
            if trial.factor is None:
                break
            g_trial = steiner_gradient(plan, trial.edges, trial.lengths)
            norm = float(np.linalg.norm(g_trial))
            if not norm < gnorm:
                break
            steiner, accepted, g, gnorm = moved, trial, g_trial, norm
    if gnorm > _NEWTON_GRAD_TOL:
        return _evaluate(exact.optimize_fixed_topology(terminals, tree.topology, steiner).tree)
    # only the accepted iterate becomes a tree
    reached = tree if steiner is tree.steiner_positions else SteinerTree(tree.topology, terminals, steiner)
    return _assess(reached, accepted)


def _advance(evaluation: _Evaluation, frag: np.ndarray, mode: AdaptationMode) -> tuple[np.ndarray, _Evaluation]:
    """One first-order step from an evaluated configuration: the Steiner shift and the evaluated result."""
    tree = evaluation.tree
    ds = _solve(evaluation, frag, float(np.linalg.norm(frag))).reshape(-1)
    new_tree = SteinerTree.from_arrays(tree.topology, tree.t_vector() + frag, tree.s_vector() + ds)
    if mode is AdaptationMode.CORRECTED and tree.k > 0:
        return ds, _correct(new_tree)
    return ds, _evaluate(new_tree)


def adapt_single(
    tree: SteinerTree,
    p: Perturbation,
    mode: AdaptationMode = AdaptationMode.PURE,
) -> tuple[SteinerTree, HealthReport]:
    """Apply one first-order update for the whole perturbation.

    The topology never changes. In corrected mode the Steiner positions
    are re-optimized for the shifted terminals, starting from the
    first-order prediction. A degenerate result is reported through the
    health report rather than silently accepted.
    """
    _check_perturbation(tree, p)
    reached = _advance(_evaluate(tree), p.delta_t, mode)[1]
    return reached.tree, reached.health


def _next_fragment(remaining: np.ndarray, policy: StepPolicy, min_edge: float, total: np.ndarray, done: int) -> np.ndarray:
    if policy.steps is not None:
        if done >= policy.steps - 1:
            return remaining
        return total / policy.steps
    if policy.max_step_norm is not None:
        cap = policy.max_step_norm
    else:
        cap = 0.1 * min_edge
    inf_norm = float(np.abs(remaining).max())
    if cap >= inf_norm or cap <= 0.0:
        return remaining
    return remaining * (cap / inf_norm)


def _status(health: HealthReport, min_edge_floor: float, condition_limit: float) -> AdaptationStatus:
    """Whether stepping may continue from a configuration with this health."""
    if health.min_edge_length < min_edge_floor or health.min_edge_length <= COINCIDENT_THRESHOLD:
        return AdaptationStatus.ABORTED_DEGENERATE_EDGE
    if not health.positive_definite or health.hessian_condition > condition_limit:
        return AdaptationStatus.ABORTED_ILL_CONDITIONED
    return AdaptationStatus.COMPLETED


def adapt_stepwise(tree: SteinerTree, p: Perturbation, policy: StepPolicy | None = None) -> AdaptationReport:
    """Apply a perturbation as a sequence of first-order steps.

    Each step solves with the Hessian factor of the tree it starts from. The
    run halts early when the Hessian condition exceeds the policy limit (or
    definiteness fails), when the minimum edge length falls below the
    policy fraction of its initial value, or when a step reverses an edge;
    records already produced are kept. Fragments sum exactly to the
    requested perturbation on a completed run.

    Raises:
        ValueError: a perturbation of the wrong length, or an invalid topology.
    """
    if policy is None:
        policy = StepPolicy()
    _check_perturbation(tree, p)

    current = _evaluate(tree)
    # read out so that the first evaluation (its factor and sparse forms) is dropped after step 1
    initial_health, initial_length = current.health, float(current.lengths.sum())
    min_edge_floor = policy.min_edge_fraction * initial_health.min_edge_length
    status = _status(initial_health, min_edge_floor, policy.condition_limit)
    records: list[StepRecord] = []
    total = np.array(p.delta_t, dtype=float)
    # `applied` is accumulated with the same operation order the report's
    # applied_delta_t property uses, so a completed run sums exactly.
    applied = np.zeros_like(total)
    while status is AdaptationStatus.COMPLETED and not np.array_equal(applied, total):
        frag = _next_fragment(total - applied, policy, current.health.min_edge_length, total, len(records))
        try:
            ds, reached = _advance(current, frag, policy.mode)
        except IllConditionedError:
            status = AdaptationStatus.ABORTED_ILL_CONDITIONED
            break
        records.append(
            StepRecord(
                index=len(records) + 1,
                delta_t_fragment=frag,
                delta_s=ds,
                tree=reached.tree,
                health=reached.health,
                tree_length=float(reached.lengths.sum()),
            )
        )
        applied = applied + frag
        status = _status(reached.health, min_edge_floor, policy.condition_limit)
        # a small step turns an edge by 90 degrees or more only by collapsing it on the way
        if status is AdaptationStatus.COMPLETED and (np.einsum("ij,ij->i", current.edges, reached.edges) <= 0).any():
            status = AdaptationStatus.ABORTED_DEGENERATE_EDGE
        current = reached

    return AdaptationReport(
        initial_tree=tree,
        initial_health=initial_health,
        initial_length=initial_length,
        steps=tuple(records),
        final_tree=current.tree,
        status=status,
    )
