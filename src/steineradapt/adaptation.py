"""First-order adaptation of Steiner points under terminal perturbations.

At a fixed-topology optimum the Steiner gradient vanishes; differentiating
that stationarity condition in the terminal positions gives the
sensitivity matrix mapping a terminal displacement to the first-order
Steiner displacement:

    X = -(d2J/ds2)^(-1) (d2J/dt ds)

The Steiner Hessian is block diagonal across the connected components of
the Steiner-Steiner subgraph, so the system is solved independently per
component. Large perturbations are handled stepwise: split the move into
fragments and solve each one's first-order update with the Hessian factor
of the current tree, without forming X. The stepper watches edge lengths,
directions and Hessian conditioning and aborts instead of stepping through
a topology breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import exact
from .derivatives import hessian_ss, mixed_ts
from .errors import DegenerateEdgeError, IllConditionedError, SteinerAdaptError
from .trees import (
    COINCIDENT_THRESHOLD,
    SteinerTree,
    check_geometric_conditions,
    edge_vectors,
    steiner_forest_components,
    tree_length,
    validate_topology,
)

# Relative eigenvalue floor below which the Hessian is treated as not
# positive definite.
_PD_RTOL = 1e-12
# Residual gate for the component solves, relative to the matrix norm.
_SOLVE_RTOL = 1e-10


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
class _Evaluation:
    """A configuration's edge vectors, health and ``(rows, H_c, Cholesky factor)``
    per positive definite Steiner-forest component. ``error`` is what a solve
    here raises: the degenerate edge or the first indefinite component."""

    tree: SteinerTree
    edges: np.ndarray
    health: HealthReport
    error: SteinerAdaptError | None
    factors: tuple[tuple[np.ndarray, np.ndarray, tuple], ...]


def _is_positive_definite(eigs: np.ndarray) -> bool:
    if eigs.size == 0:
        return True
    return bool(eigs[-1] > 0 and eigs[0] > _PD_RTOL * eigs[-1])


def _evaluate(tree: SteinerTree) -> _Evaluation:
    """Health and factors of ``tree``; a degenerate configuration gives a report, not an error."""
    edges, lengths = edge_vectors(tree)
    try:
        geo = check_geometric_conditions(tree, angle_tol=1e-6)
    except DegenerateEdgeError as e:
        health = HealthReport(
            min_edge_length=float(lengths.min()),
            max_steiner_angle_deviation=math.pi,
            hessian_condition=math.inf,
            positive_definite=False,
        )
        return _Evaluation(tree, edges, health, e, ())
    H = hessian_ss(tree).to_dense()
    error = None
    factors = []
    spectra = [np.zeros(0)]
    for component in steiner_forest_components(tree.topology):
        rows = np.array([r for i in component for r in (2 * i, 2 * i + 1)])
        Hc = H[np.ix_(rows, rows)]
        eigs = np.linalg.eigvalsh(Hc)
        spectra.append(eigs)
        if _is_positive_definite(eigs):
            factors.append((rows, Hc, cho_factor(Hc, lower=True)))
        elif error is None:
            error = IllConditionedError(
                "ill-conditioned at this configuration: Hessian component "
                f"{component} has eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
            )
    # H is block diagonal over the components, so its spectrum is their union
    eigs = np.sort(np.concatenate(spectra))
    pd = _is_positive_definite(eigs)
    if eigs.size == 0:
        condition = 1.0
    elif pd:
        condition = float(eigs[-1] / eigs[0])
    else:
        condition = math.inf
    health = HealthReport(
        min_edge_length=geo.min_edge_length,
        max_steiner_angle_deviation=geo.max_steiner_angle_deviation,
        hessian_condition=condition,
        positive_definite=pd,
    )
    return _Evaluation(tree, edges, health, error, tuple(factors))


def _solve(evaluation: _Evaluation, rhs: np.ndarray, scale: float) -> np.ndarray:
    """``H^-1 rhs`` per component; ``scale`` is the norm of the terminal
    displacement behind ``rhs`` (1 for the whole mixed partial) in the residual gate."""
    if evaluation.error is not None:
        raise evaluation.error
    x = np.zeros(rhs.shape)
    for rows, Hc, factor in evaluation.factors:
        xc = cho_solve(factor, rhs[rows])
        residual = np.linalg.norm(Hc @ xc - rhs[rows])
        if residual > _SOLVE_RTOL * np.linalg.norm(Hc) * scale:
            raise IllConditionedError(
                f"ill-conditioned at this configuration: solve residual {residual:.3e}"
            )
        x[rows] = xc
    return x


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

    Solved per Steiner-forest component with a symmetric (Cholesky)
    factorization; columns for terminals not attached to a component are
    exactly zero on that component's rows.

    Raises:
        DegenerateEdgeError: an edge is no longer than the coincidence threshold.
        IllConditionedError: the Steiner Hessian is not positive definite
            at this configuration, or a component solve left a residual
            above tolerance.
    """
    _check_topology(tree)
    if tree.k == 0:
        return np.zeros((0, 2 * tree.n))
    return _solve(_evaluate(tree), -mixed_ts(tree).to_dense(), 1.0)


def first_order_delta_s(tree: SteinerTree, p: Perturbation) -> np.ndarray:
    """First-order Steiner displacement for ``p``, solved from ``H ds = -M dt`` without forming X."""
    _check_perturbation(tree, p)
    if tree.k == 0:
        return np.zeros(0)
    return _solve(_evaluate(tree), -(mixed_ts(tree).to_dense() @ p.delta_t), float(np.linalg.norm(p.delta_t)))


def health_metrics(tree: SteinerTree) -> HealthReport:
    """Edge, angle and conditioning metrics; degeneracy yields a report, not an error."""
    return _evaluate(tree).health


def _advance(evaluation: _Evaluation, frag: np.ndarray, mode: AdaptationMode) -> tuple[np.ndarray, _Evaluation]:
    """One first-order step from an evaluated configuration: the Steiner shift and the evaluated result."""
    tree = evaluation.tree
    ds = _solve(evaluation, -(mixed_ts(tree).to_dense() @ frag), float(np.linalg.norm(frag)))
    new_tree = SteinerTree.from_arrays(tree.topology, tree.t_vector() + frag, tree.s_vector() + ds)
    if mode is AdaptationMode.CORRECTED and tree.k > 0:
        new_tree = exact.optimize_fixed_topology(
            new_tree.terminal_positions, tree.topology, new_tree.steiner_positions
        ).tree
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

    start = _evaluate(tree)
    min_edge_floor = policy.min_edge_fraction * start.health.min_edge_length
    status = _status(start.health, min_edge_floor, policy.condition_limit)
    records: list[StepRecord] = []
    current = start
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
                tree_length=tree_length(reached.tree),
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
        initial_health=start.health,
        initial_length=tree_length(tree),
        steps=tuple(records),
        final_tree=current.tree,
        status=status,
    )
