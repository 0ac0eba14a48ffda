"""Shared fixtures and independent numerical oracles for the test suite."""

import math

import numpy as np
import pytest

from steineradapt import (
    NodeKind,
    NodeRef,
    SteinerTopology,
    SteinerTree,
    cost,
    enumerate_full_topologies,
    gradient_s,
    hessian_ss,
    min_edge_length,
    mixed_ts,
    optimize_fixed_topology,
)

# Finite-difference convention used by every derivative check: central
# differences with this step, relative error against max(1, |analytic|).
FD_STEP = 1e-6


def relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float)
    reference = np.asarray(reference, dtype=float)
    denom = np.maximum(1.0, np.abs(analytic))
    return float((np.abs(analytic - reference) / denom).max(initial=0.0))


def fd_gradient_s(tree: SteinerTree, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the cost in the Steiner coordinates."""
    s = tree.s_vector()
    t = tree.terminal_array()
    out = np.zeros_like(s)
    for j in range(s.size):
        plus = s.copy()
        minus = s.copy()
        plus[j] += h
        minus[j] -= h
        out[j] = (
            cost(SteinerTree.from_arrays(tree.topology, t, plus))
            - cost(SteinerTree.from_arrays(tree.topology, t, minus))
        ) / (2 * h)
    return out


def fd_hessian_ss(tree: SteinerTree, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the analytic Steiner gradient, in s."""
    s = tree.s_vector()
    t = tree.terminal_array()
    cols = []
    for j in range(s.size):
        plus = s.copy()
        minus = s.copy()
        plus[j] += h
        minus[j] -= h
        gp = gradient_s(SteinerTree.from_arrays(tree.topology, t, plus))
        gm = gradient_s(SteinerTree.from_arrays(tree.topology, t, minus))
        cols.append((gp - gm) / (2 * h))
    return np.column_stack(cols)


def fd_mixed_ts(tree: SteinerTree, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the analytic Steiner gradient, in t."""
    t = tree.t_vector()
    s = tree.steiner_array()
    cols = []
    for j in range(t.size):
        plus = t.copy()
        minus = t.copy()
        plus[j] += h
        minus[j] -= h
        gp = gradient_s(SteinerTree.from_arrays(tree.topology, plus, s))
        gm = gradient_s(SteinerTree.from_arrays(tree.topology, minus, s))
        cols.append((gp - gm) / (2 * h))
    return np.column_stack(cols)


def dense_step_oracle(tree: SteinerTree, frag: np.ndarray) -> tuple[np.ndarray, float]:
    """First-order Steiner shift ``H^-1 (-M frag)`` from one dense solve over the
    whole Steiner Hessian, and that Hessian's condition number from its full spectrum."""
    H = hessian_ss(tree).to_dense()
    eigs = np.linalg.eigvalsh(H)
    return np.linalg.solve(H, -(mixed_ts(tree).to_dense() @ frag)), float(eigs[-1] / eigs[0])


def node_position(tree: SteinerTree, ref: NodeRef) -> np.ndarray:
    positions = tree.terminal_positions if ref.kind is NodeKind.TERMINAL else tree.steiner_positions
    return positions[ref.index]


def geometric_conditions_loop(tree: SteinerTree) -> tuple[float, float, float]:
    """Reference (min edge length, max Steiner angle deviation, min pairwise
    angle) from a plain loop over each node's incident edge pairs."""
    incident: dict[NodeRef, list[np.ndarray]] = {}
    lengths = []
    for a, b in tree.topology.all_edges():
        d = node_position(tree, b) - node_position(tree, a)
        lengths.append(math.hypot(d[0], d[1]))
        incident.setdefault(a, []).append(d / np.linalg.norm(d))
        incident.setdefault(b, []).append(-d / np.linalg.norm(d))
    max_dev, min_angle = 0.0, math.pi
    for ref, dirs in incident.items():
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                u, v = dirs[i], dirs[j]
                angle = math.atan2(abs(u[0] * v[1] - u[1] * v[0]), u[0] * v[0] + u[1] * v[1])
                min_angle = min(min_angle, angle)
                if ref.kind is NodeKind.STEINER:
                    max_dev = max(max_dev, abs(angle - 2 * math.pi / 3))
    return min(lengths), max_dev, min_angle


def random_valid_tree(rng: np.random.Generator, n: int, min_edge: float = 0.05) -> SteinerTree:
    """A random full topology with random positions and no short edges."""
    topologies = enumerate_full_topologies(n)
    while True:
        topo = topologies[int(rng.integers(len(topologies)))]
        t = rng.uniform(-1.0, 1.0, (n, 2))
        s = rng.uniform(-1.0, 1.0, (topo.k, 2))
        tree = SteinerTree.from_arrays(topo, t, s)
        if min_edge_length(tree) > min_edge:
            return tree


EXAMPLE1_TERMINALS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


@pytest.fixture(scope="session")
def example1_tree() -> SteinerTree:
    """Right-triangle instance with its single Steiner point at the optimum."""
    topo = enumerate_full_topologies(3)[0]
    result = optimize_fixed_topology(EXAMPLE1_TERMINALS, topo, [(1 / 3, 1 / 3)])
    assert result.converged
    return result.tree


# Two Steiner-Steiner clusters joined through a degree-2 terminal (t3),
# laid out so every meeting angle satisfies the 120-degree condition.
BRIDGED_TERMINALS = [
    (-2.0, 3.56),
    (-4.6, 1.83),
    (-3.0, -1.63),
    (0.0, 0.0),
    (3.0, -1.63),
    (2.0, 3.56),
    (4.6, 1.83),
]
BRIDGED_TOPOLOGY = SteinerTopology(
    n=7,
    k=4,
    edges_TS={(0, 0), (1, 0), (2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 3)},
    edges_S={(0, 1), (2, 3)},
)


@pytest.fixture(scope="session")
def bridged_tree() -> SteinerTree:
    result = optimize_fixed_topology(
        BRIDGED_TERMINALS,
        BRIDGED_TOPOLOGY,
        [(-3.0, 1.8), (-2.0, 0.1), (2.0, 0.1), (3.0, 1.8)],
    )
    assert result.converged and not result.collapsed_edges
    return result.tree


# Rectangle whose shortest network is a horizontal double-Y; shrinking the
# width past the height flips the optimal topology to the vertical one.
RECT_TERMINALS = [(-1.5, 0.5), (-1.5, -0.5), (1.5, 0.5), (1.5, -0.5)]
RECT_TOPOLOGY = SteinerTopology(
    n=4, k=2, edges_TS={(0, 0), (1, 0), (2, 1), (3, 1)}, edges_S={(0, 1)}
)


@pytest.fixture(scope="session")
def rect_tree() -> SteinerTree:
    result = optimize_fixed_topology(RECT_TERMINALS, RECT_TOPOLOGY, [(-1.0, 0.0), (1.0, 0.0)])
    assert result.converged and not result.collapsed_edges
    return result.tree
