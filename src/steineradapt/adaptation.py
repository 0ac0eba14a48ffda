"""First-order adaptation of Steiner points under terminal perturbations.

At a fixed-topology optimum the Steiner gradient vanishes; differentiating
that stationarity condition in the terminal positions gives the
sensitivity matrix mapping a terminal displacement to the first-order
Steiner displacement:

    X = -(d2J/ds2)^(-1) (d2J/dt ds)

The Steiner Hessian is block diagonal across the connected components of
the Steiner-Steiner subgraph, so the system is solved independently per
component. Large perturbations are handled stepwise: split the move into
fragments, apply the first-order update, re-evaluate X at the updated
tree, repeat. The stepper watches edge lengths and Hessian conditioning
and aborts instead of stepping through a topology breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import exact
from .derivatives import hessian_ss, mixed_ts
from .errors import DegenerateEdgeError, IllConditionedError
from .trees import (
    COINCIDENT_THRESHOLD,
    SteinerTree,
    check_geometric_conditions,
    min_edge_length,
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


def _eigenvalues(tree: SteinerTree) -> np.ndarray:
    return np.linalg.eigvalsh(hessian_ss(tree).to_dense())


def _is_positive_definite(eigs: np.ndarray) -> bool:
    if eigs.size == 0:
        return True
    return bool(eigs[-1] > 0 and eigs[0] > _PD_RTOL * eigs[-1])


def sensitivity_matrix(tree: SteinerTree) -> np.ndarray:
    """The 2k x 2n linear map from terminal displacement to Steiner displacement.

    Solved per Steiner-forest component with a symmetric (Cholesky)
    factorization; columns for terminals not attached to a component are
    exactly zero on that component's rows.

    Raises:
        IllConditionedError: the Steiner Hessian is not positive definite
            at this configuration, or a component solve left a residual
            above tolerance.
    """
    validation = validate_topology(tree.topology)
    if not validation.ok:
        raise ValueError("invalid topology: " + "; ".join(validation.violations))
    k, n = tree.k, tree.n
    X = np.zeros((2 * k, 2 * n))
    if k == 0:
        return X
    H = hessian_ss(tree).to_dense()
    M = mixed_ts(tree).to_dense()
    for component in steiner_forest_components(tree.topology):
        rows = np.array([r for i in component for r in (2 * i, 2 * i + 1)])
        Hc = H[np.ix_(rows, rows)]
        eigs = np.linalg.eigvalsh(Hc)
        if not _is_positive_definite(eigs):
            raise IllConditionedError(
                "ill-conditioned at this configuration: Hessian component "
                f"{component} has eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
            )
        Mc = M[rows, :]
        Xc = cho_solve(cho_factor(Hc, lower=True), -Mc)
        residual = np.linalg.norm(Hc @ Xc + Mc)
        if residual > _SOLVE_RTOL * np.linalg.norm(Hc):
            raise IllConditionedError(
                f"ill-conditioned at this configuration: solve residual {residual:.3e}"
            )
        X[rows, :] = Xc
    return X


def first_order_delta_s(tree: SteinerTree, p: Perturbation) -> np.ndarray:
    """First-order Steiner displacement for the terminal displacement ``p``."""
    if p.delta_t.size != 2 * tree.n:
        raise ValueError(f"perturbation length {p.delta_t.size} does not match 2n = {2 * tree.n}")
    if tree.k == 0:
        return np.zeros(0)
    return sensitivity_matrix(tree) @ p.delta_t


def health_metrics(tree: SteinerTree) -> HealthReport:
    """Edge, angle and conditioning metrics; degeneracy yields a report, not an error."""
    min_edge = min_edge_length(tree)
    if min_edge <= COINCIDENT_THRESHOLD:
        return HealthReport(
            min_edge_length=min_edge,
            max_steiner_angle_deviation=math.pi,
            hessian_condition=math.inf,
            positive_definite=False,
        )
    geo = check_geometric_conditions(tree, angle_tol=1e-6)
    eigs = _eigenvalues(tree)
    pd = _is_positive_definite(eigs)
    if eigs.size == 0:
        condition = 1.0
    elif pd:
        condition = float(eigs[-1] / eigs[0])
    else:
        condition = math.inf
    return HealthReport(
        min_edge_length=geo.min_edge_length,
        max_steiner_angle_deviation=geo.max_steiner_angle_deviation,
        hessian_condition=condition,
        positive_definite=pd,
    )


def _shifted_tree(tree: SteinerTree, frag: np.ndarray, ds: np.ndarray) -> SteinerTree:
    return SteinerTree.from_arrays(tree.topology, tree.t_vector() + frag, tree.s_vector() + ds)


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
    ds = first_order_delta_s(tree, p)
    new_tree = _shifted_tree(tree, p.delta_t, ds)
    if mode is AdaptationMode.CORRECTED and tree.k > 0:
        result = exact.optimize_fixed_topology(
            new_tree.terminal_positions, tree.topology, new_tree.steiner_positions
        )
        new_tree = result.tree
    return new_tree, health_metrics(new_tree)


def _next_fragment(remaining: np.ndarray, policy: StepPolicy, tree: SteinerTree, total: np.ndarray, done: int) -> np.ndarray:
    if policy.steps is not None:
        if done >= policy.steps - 1:
            return remaining
        return total / policy.steps
    if policy.max_step_norm is not None:
        cap = policy.max_step_norm
    else:
        cap = 0.1 * min_edge_length(tree)
    inf_norm = float(np.abs(remaining).max())
    if cap >= inf_norm or cap <= 0.0:
        return remaining
    return remaining * (cap / inf_norm)


def adapt_stepwise(tree: SteinerTree, p: Perturbation, policy: StepPolicy | None = None) -> AdaptationReport:
    """Apply a perturbation as a sequence of first-order steps.

    The sensitivity matrix is re-evaluated at every updated tree. The run
    halts early when the Hessian condition exceeds the policy limit (or
    definiteness fails) or when the minimum edge length falls below the
    policy fraction of its initial value; records already produced are
    kept. Fragments sum exactly to the requested perturbation on a
    completed run.
    """
    if policy is None:
        policy = StepPolicy()
    if p.delta_t.size != 2 * tree.n:
        raise ValueError(f"perturbation length {p.delta_t.size} does not match 2n = {2 * tree.n}")

    initial_health = health_metrics(tree)
    initial_length = tree_length(tree)
    records: list[StepRecord] = []
    status = AdaptationStatus.COMPLETED
    current = tree

    healthy_start = initial_health.positive_definite and initial_health.hessian_condition <= policy.condition_limit
    if not healthy_start:
        degenerate = initial_health.min_edge_length <= COINCIDENT_THRESHOLD
        return AdaptationReport(
            initial_tree=tree,
            initial_health=initial_health,
            initial_length=initial_length,
            steps=(),
            final_tree=tree,
            status=AdaptationStatus.ABORTED_DEGENERATE_EDGE if degenerate else AdaptationStatus.ABORTED_ILL_CONDITIONED,
        )

    total = np.array(p.delta_t, dtype=float)
    # `applied` is accumulated with the same operation order the report's
    # applied_delta_t property uses, so a completed run sums exactly.
    applied = np.zeros_like(total)
    min_edge_floor = policy.min_edge_fraction * initial_health.min_edge_length
    done = 0
    while not np.array_equal(applied, total):
        remaining = total - applied
        frag = _next_fragment(remaining, policy, current, total, done)
        try:
            ds = first_order_delta_s(current, Perturbation(frag))
        except IllConditionedError:
            status = AdaptationStatus.ABORTED_ILL_CONDITIONED
            break
        except DegenerateEdgeError:
            status = AdaptationStatus.ABORTED_DEGENERATE_EDGE
            break
        new_tree = _shifted_tree(current, frag, ds)
        if policy.mode is AdaptationMode.CORRECTED and tree.k > 0:
            result = exact.optimize_fixed_topology(
                new_tree.terminal_positions, tree.topology, new_tree.steiner_positions
            )
            new_tree = result.tree
        health = health_metrics(new_tree)
        done += 1
        records.append(
            StepRecord(
                index=done,
                delta_t_fragment=frag,
                delta_s=ds,
                tree=new_tree,
                health=health,
                tree_length=tree_length(new_tree),
            )
        )
        current = new_tree
        applied = applied + frag
        if health.min_edge_length < min_edge_floor or health.min_edge_length <= COINCIDENT_THRESHOLD:
            status = AdaptationStatus.ABORTED_DEGENERATE_EDGE
            break
        if not health.positive_definite or health.hessian_condition > policy.condition_limit:
            status = AdaptationStatus.ABORTED_ILL_CONDITIONED
            break

    return AdaptationReport(
        initial_tree=tree,
        initial_health=initial_health,
        initial_length=initial_length,
        steps=tuple(records),
        final_tree=current,
        status=status,
    )
