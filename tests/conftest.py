"""Shared fixtures and independent numerical oracles for the test suite."""

import math

import numpy as np
import pytest

from steineradapt import (
    ExactSolveResult,
    NodeKind,
    NodeRef,
    SteinerTopology,
    SteinerTree,
    canonical_encoding,
    cost,
    enumerate_full_topologies,
    gradient_s,
    hessian_ss,
    min_edge_length,
    mixed_ts,
    optimize_fixed_topology,
    steiner_forest_components,
    tree_length,
)
from steineradapt import exact
from steineradapt.trees import edge_vectors

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


def dense_health_oracle(tree: SteinerTree) -> tuple[bool, float, list[int] | None]:
    """(positive definite, condition number, first offending component) from a
    dense ``eigvalsh`` of each Steiner-forest component's Hessian.

    A component offends when its smallest eigenvalue is not above 1e-12 times
    its largest; the whole Hessian is judged the same way on the union of the
    component spectra, and its condition number is infinite when it fails.
    """
    H = hessian_ss(tree).to_dense()
    offender, spectra = None, [np.zeros(0)]
    for component in steiner_forest_components(tree.topology):
        rows = [r for i in component for r in (2 * i, 2 * i + 1)]
        eigs = np.linalg.eigvalsh(H[np.ix_(rows, rows)])
        spectra.append(eigs)
        if offender is None and not (eigs[-1] > 0 and eigs[0] > 1e-12 * eigs[-1]):
            offender = component
    eigs = np.sort(np.concatenate(spectra))
    if eigs.size == 0:
        return True, 1.0, None
    pd = offender is None and bool(eigs[0] > 1e-12 * eigs[-1])
    return pd, float(eigs[-1] / eigs[0]) if pd else math.inf, offender


def edge_factor_condition(tree: SteinerTree, members=None) -> float:
    """The Steiner Hessian's condition number from the singular values of its edge
    factor, or that of its block on the Steiner points ``members`` if given.

    Each edge projection is ``w w^T / |u|`` with ``w`` the unit normal of the
    edge vector ``u``, so ``H = B^T B`` where row ``e`` of ``B`` holds
    ``w / sqrt(|u|)`` at the edge's Steiner head and its negative at a
    Steiner tail. An SVD of ``B`` resolves the smallest eigenvalue to about
    ``eps * sqrt(cond)`` relative, where a dense ``eigvalsh`` of ``H`` is
    only good to about ``eps * cond``. The block of a Steiner-forest
    component is ``B_c^T B_c`` for ``B``'s columns of its points.
    """
    plan = tree.topology.plan
    nodes = np.concatenate((tree.terminal_positions, tree.steiner_positions))
    B = np.zeros((len(plan.refs), tree.n + tree.k, 2))
    for e in range(plan.steiner_edges.start, plan.steiner_edges.stop):
        u = nodes[plan.head[e]] - nodes[plan.tail[e]]
        w = np.array([-u[1], u[0]]) / np.linalg.norm(u) ** 1.5
        B[e, plan.head[e]] += w
        B[e, plan.tail[e]] -= w
    columns = np.arange(tree.k) if members is None else np.asarray(members)
    singular = np.linalg.svd(B[:, tree.n + columns].reshape(len(plan.refs), -1), compute_uv=False)
    return float((singular[0] / singular[-1]) ** 2)


def grown_tree(rng: np.random.Generator, k: int, scale: float = 1.0) -> SteinerTree:
    """A full tree with ``k`` Steiner points that all meet at exactly 120 degrees.

    Starting from one Steiner point with three open branches, each growth
    step ends a random open branch, at a random length, in a new Steiner
    point that opens two branches at +-60 degrees; the branches still open
    at the end lead to terminals. Every Steiner point's three unit edge
    vectors sum to zero, so the tree is a fixed-topology optimum. Branch
    lengths shrink with depth so that distant branches rarely cross.
    """
    steiner = [np.zeros(2)]
    base = rng.uniform(0.0, 2 * math.pi)
    branches = [(0, base + j * 2 * math.pi / 3, 0) for j in range(3)]
    edges_S, edges_TS, terminals = [], [], []

    def end(branch) -> np.ndarray:
        at, angle, depth = branch
        return steiner[at] + scale * 0.8**depth * rng.uniform(0.5, 1.0) * np.array([math.cos(angle), math.sin(angle)])

    for _ in range(k - 1):
        branch = branches.pop(int(rng.integers(len(branches))))
        steiner.append(end(branch))
        edges_S.append((branch[0], len(steiner) - 1))
        at, angle, depth = branch
        branches += [(len(steiner) - 1, angle + s * math.pi / 3, depth + 1) for s in (1, -1)]
    for branch in branches:
        terminals.append(end(branch))
        edges_TS.append((len(terminals) - 1, branch[0]))
    topology = SteinerTopology(n=len(terminals), k=k, edges_TS=edges_TS, edges_S=edges_S)
    return SteinerTree.from_arrays(topology, terminals, steiner)


def caterpillar_tree(lengths: np.ndarray) -> SteinerTree:
    """A zigzag spine of ``k = len(lengths) - 1`` Steiner points, each with one
    terminal leg, meeting at exactly 120 degrees everywhere.

    Spine edge ``i`` has length ``lengths[i]`` and direction +-30 degrees,
    alternating, and the legs point alternately up and down with the length
    of the spine edge before them. Each end of the spine carries one more
    terminal, so the Steiner forest is a path whose depth from its centre is
    about k / 2.
    """
    k = len(lengths) - 1
    direction = [np.array([math.cos(a), math.sin(a)]) for a in (math.pi / 6, -math.pi / 6)]
    steiner = [np.zeros(2)]
    for i in range(k - 1):
        steiner.append(steiner[-1] + lengths[i + 1] * direction[i % 2])
    # the first terminal continues the spine backwards; the last continues it forwards
    terminals = [steiner[0] - lengths[0] * direction[1]]
    edges_TS = [(0, 0)]
    for i in range(k):
        leg = np.array([0.0, 1.0 if i % 2 else -1.0])
        terminals.append(steiner[i] + lengths[i] * leg)
        edges_TS.append((i + 1, i))
    terminals.append(steiner[-1] + lengths[k] * direction[(k - 1) % 2])
    edges_TS.append((k + 1, k - 1))
    topology = SteinerTopology(n=k + 2, k=k, edges_TS=edges_TS, edges_S=[(i, i + 1) for i in range(k - 1)])
    return SteinerTree.from_arrays(topology, terminals, steiner)


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


def exhaustive_solve(terminals, grad_tol: float = 1e-10, max_iterations: int = 50_000) -> ExactSolveResult:
    """``solve_exact`` by minimizing every full topology, 3 <= n <= 6.

    The full topologies are numbered as the search meets them: terminals are
    inserted in ``exact._insertion_order``, so the enumeration's terminal
    ``j`` becomes the ``j``-th inserted and the Steiner points keep their
    numbers. Each is minimized from the salt-0 seeded cold start, node
    coincidences are merged, and a candidate's length is its network's. The
    shortest candidate wins and every candidate within the 1e-9 relative tie
    tolerance is a tie, one per canonical encoding of its tree: the shortest,
    and of equal ones the one whose full topology encodes first. All of it
    runs in the solver's frame (``exact._frame``), and the ties are mapped
    back onto the given terminals as ``s * scale + centre``. The
    branch-and-bound solve must return the same result bit for bit.
    """
    t = np.asarray(terminals, dtype=float)
    n = len(t)
    tf, centre, scale = exact._frame(t)
    order = exact._insertion_order(np.hypot(*np.moveaxis(t[:, None, :] - t[None, :, :], -1, 0)))
    label = order + list(range(n, 2 * n - 2))
    candidates = []
    unconverged = 0
    for topo in enumerate_full_topologies(n):
        pairs = [(label[a], label[b]) for a, b in topo.plan.node_pairs()]
        A, c = exact._network(tf, n - 2, pairs)
        s, _, _, converged = exact._minimize(A, c, exact._seed_positions(A, c, 0), grad_tol, max_iterations)
        if not converged:
            unconverged += 1
            continue
        full_tree = SteinerTree.from_arrays(SteinerTopology.from_node_pairs(n, n - 2, pairs), tf, s)
        lengths = edge_vectors(full_tree)[1]
        tree = full_tree
        if lengths.min() <= exact._COLLAPSE_LEN:
            tree = exact._contract_collapsed(tf, s, full_tree.topology.plan.node_pairs(), lengths)
        if tree is not None:
            u = A @ s + c
            length = float(np.hypot(u[:, 0], u[:, 1]).sum())
            candidates.append((canonical_encoding(tree.topology), length, canonical_encoding(full_tree.topology), tree))

    best = min(length for _, length, _, _ in candidates)
    tie_tol = 1e-9 * max(1.0, best)
    pool = sorted((item for item in candidates if item[1] <= best + tie_tol), key=lambda item: item[:3])
    deduped = [item for i, item in enumerate(pool) if i == 0 or pool[i - 1][0] != item[0]]
    ties = tuple(SteinerTree.from_arrays(tr.topology, t, tr.steiner_positions * scale + centre) for *_, tr in deduped)
    return ExactSolveResult(
        tree=ties[0],
        length=tree_length(ties[0]),
        ties=ties,
        minimized=len(enumerate_full_topologies(n)),
        unconverged=unconverged,
    )


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
