"""Ground-truth machinery for small instances.

Two services live here: minimizing the tree length over Steiner positions
for a fixed topology, and solving small instances exactly by a branch and
bound over the full topologies. Both are used to verify the first-order
adaptation and to detect topology changes under large perturbations.

The fixed-topology objective is convex in the Steiner positions, so any
descent method that reaches the gradient tolerance certifies the optimum.
The minimizer alternates reweighted linear solves (each solve places the
free nodes at the weighted average of their neighbors, weights one over
edge length) with Newton polishing on the analytic Hessian. Optima that
want two nodes coincident are nonsmooth; they are handled by contracting
the nearly-zero edge, re-optimizing the smaller network, and checking the
subgradient condition that splitting the merged node cannot shorten the
tree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .trees import (
    COINCIDENT_THRESHOLD,
    NodeRef,
    Point2,
    SteinerTopology,
    SteinerTree,
    adjacency,
    check_geometric_conditions,
    tree_length,
    validate_topology,
)

# Smoothing floor for edge lengths inside the minimizer; the objective's
# terms are non-differentiable at zero-length edges.
_SMOOTH_EPS = 1e-12
# Final edge length at or below this counts as a node coincidence.
_COLLAPSE_LEN = 1e-9
# Edge length below which a contraction is attempted. Eager on purpose: a
# wrong attempt is caught by the split test and remembered.
_CONTRACT_TRIGGER = 2e-2
# Reweighted steps a search node's dual certificate runs from its warm start
# before the least-squares correction; 3 to 8 cost a solve alike.
_CERTIFY_STEPS = 4


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of a fixed-topology minimization.

    ``collapsed_edges`` lists edges no longer than 1e-9 of the terminals'
    bounding-box diagonal; the optimum then lives on the boundary where
    those nodes merge. When that happens ``gradient_norm`` is the
    first-order optimality residual of the merged (reduced) network, since
    the smooth gradient is undefined at coincident nodes.
    """

    tree: SteinerTree
    gradient_norm: float
    iterations: int
    collapsed_edges: frozenset[tuple[NodeRef, NodeRef]]
    converged: bool


@dataclass(frozen=True)
class ExactSolveResult:
    """Best tree over all topologies, with every co-optimal tree reported.

    ``ties`` holds all optima within the tie tolerance ordered by their
    canonical topology encoding, of each encoding the shortest and then the
    one from the first full topology by encoding; ``tree`` is ``ties[0]``.
    A single-element ``ties`` means the optimum is unique.

    The search counts its work: ``minimized`` full topologies were
    optimized, ``bounded`` partial topologies were optimized from a cold
    start for a lower bound, ``pruned`` full topologies were skipped because
    a bound ruled them out, and ``unconverged`` of the minimized ones were
    dropped because their optimization did not converge. ``certified``
    search nodes, partial or full, were ruled out by a dual lower bound,
    before or during their minimization; their full topologies count in
    ``pruned``, never in ``minimized``, and a partial one stopped during its
    minimization still counts in ``bounded``. For n >= 3,
    ``minimized + pruned`` is the number of full topologies, (2n - 5)!!;
    for n = 2 all five are 0.
    """

    tree: SteinerTree
    length: float
    ties: tuple[SteinerTree, ...]
    minimized: int = 0
    bounded: int = 0
    pruned: int = 0
    unconverged: int = 0
    certified: int = 0


def full_topology(n: int, k: int, edges_T=frozenset(), edges_TS=frozenset(), edges_S=frozenset()) -> SteinerTopology:
    """A topology with k = n - 2, degree-1 terminals and no terminal-terminal edges, or ValueError."""
    topology = SteinerTopology(n=n, k=k, edges_T=edges_T, edges_TS=edges_TS, edges_S=edges_S)
    if k != n - 2:
        raise ValueError(f"full topology needs k = n - 2, got k={k}, n={n}")
    if topology.edges_T:
        raise ValueError("full topology has no terminal-terminal edges")
    if any(d != 1 for d in topology.terminal_degrees()):
        raise ValueError("full topology terminals must have degree 1")
    if any(d != 3 for d in topology.steiner_degrees()):
        raise ValueError("full topology steiner points must have degree 3")
    return topology


def _points_array(points, name: str) -> np.ndarray:
    arr = np.asarray([(p.x, p.y) if isinstance(p, Point2) else p for p in points], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be an (m, 2) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _frame(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The terminals centred on their bounding box and scaled to a unit diagonal, with that centre and scale.

    The solver runs in this frame, so the length constants above are relative
    to the instance and rounding does not grow with its distance from the
    origin. Returned trees map back as s * scale + centre.
    """
    low, high = t.min(axis=0), t.max(axis=0)
    centre = 0.5 * (low + high)
    scale = float(np.hypot(*(high - low))) or 1.0  # all terminals coincident: any scale will do
    return (t - centre) / scale, centre, scale


# ---------------------------------------------------------------------------
# Internal network form: the Steiner edges' vectors are an affine function of
# the free coordinates, u = A @ s + c with u_e = position[tail] - position[head]
# for node pairs in the plan's stacked ids. That makes reweighted solves and
# Hessian assembly direct, and a contraction is a substitution into (A, c).
# ---------------------------------------------------------------------------


def _steiner_pairs(n: int, pairs) -> list[tuple[int, int]]:
    """The pairs that touch a Steiner point as (low, high), sorted: the rows of :func:`_network`."""
    return sorted((min(p), max(p)) for p in pairs if max(p) >= n)


def _network(t: np.ndarray, k: int, pairs) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) over the pairs that touch a Steiner point, in sorted order as in ``EdgePlan.steiner_edges``."""
    n = len(t)
    tail, head = np.array(_steiner_pairs(n, pairs), dtype=np.intp).reshape(-1, 2).T
    rows = np.arange(len(tail))
    A = np.zeros((len(tail), k))
    c = np.zeros((len(tail), 2))
    free = tail >= n
    A[rows[free], tail[free] - n] += 1.0
    c[~free] += t[tail[~free]]
    A[rows, head - n] -= 1.0  # the head of a Steiner edge is a Steiner point
    return A, c


def _smooth_lengths(u: np.ndarray) -> np.ndarray:
    return np.sqrt((u * u).sum(axis=-1) + _SMOOTH_EPS * _SMOOTH_EPS)


def _gradient(A: np.ndarray, c: np.ndarray, s: np.ndarray):
    u = A @ s + c
    d = _smooth_lengths(u)
    g = A.T @ (u / d[:, None])
    return g, float(np.linalg.norm(g)), u, d


def _irls_step(A: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The positions minimizing Σₑ‖uₑ‖²/dₑ, for one network or stacked ones."""
    w = 1.0 / d
    At = np.swapaxes(A, -1, -2)
    m = At @ (A * w[..., None])
    rhs = -(At @ (c * w[..., None]))
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(m) @ rhs


def _hessian(A: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    u = A @ s + c
    d = _smooth_lengths(u)
    uhat = u / d[:, None]
    proj = (np.eye(2) - uhat[:, :, None] * uhat[:, None, :]) / d[:, None, None]
    nfree = A.shape[1]
    return np.einsum("ei,ej,eab->iajb", A, A, proj).reshape(2 * nfree, 2 * nfree)


def _newton(A, c, s, grad_tol, max_steps):
    """Polish with damped Newton steps, accepting on gradient-norm decrease."""
    g, gnorm, *_ = _gradient(A, c, s)
    steps = 0
    while steps < max_steps:
        if gnorm < grad_tol:
            return s, gnorm, steps, True
        H = _hessian(A, c, s)
        try:
            delta = np.linalg.solve(H, -g.reshape(-1)).reshape(-1, 2)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(10):
            s_try = s + lam * delta
            g_try, gnorm_try, *_ = _gradient(A, c, s_try)
            if gnorm_try < gnorm * (1.0 - 0.25 * lam) or gnorm_try < grad_tol:
                s, g, gnorm = s_try, g_try, gnorm_try
                improved = True
                break
            lam *= 0.5
        steps += 1
        if not improved:
            break
    return s, gnorm, steps, gnorm < grad_tol


def _contract(A: np.ndarray, c: np.ndarray, s: np.ndarray, row: int):
    """Merge the endpoints of one edge; returns the smaller (A, c), its start and a rebuilder."""
    (ends,) = np.nonzero(A[row])
    b = int(ends[A[row, ends].argmin()])  # the head when both ends are free
    # b is free and merges into the other end, which may be fixed
    A_child, c_child = np.delete(A, row, axis=0), np.delete(c, row, axis=0)
    s_child = np.delete(s, b, axis=0)
    if len(ends) == 2:
        a = int(ends[ends != b][0])
        A_child[:, a] += A_child[:, b]
        merged = a if a < b else a - 1
        s_child[merged] = 0.5 * (s[b] + s[a])
    else:
        landing = -A[row, b] * c[row]  # the fixed end's position
        c_child += A_child[:, [b]] * landing

    def rebuild(cs: np.ndarray) -> np.ndarray:
        full = np.insert(cs, b, 0.0, axis=0)
        full[b] = full[a] if len(ends) == 2 else landing
        return full

    return np.delete(A_child, b, axis=1), c_child, s_child, rebuild


def _split_improves(A: np.ndarray, c: np.ndarray, s: np.ndarray, row: int) -> bool:
    """Whether pulling apart the merged endpoints of ``row`` would shorten the tree.

    At a merged node the objective has a unit subgradient ball per
    coincident edge, so the merge is optimal iff the unit vectors of each
    endpoint's other edges sum to norm at most one (plus a ball per
    additional coincident edge).
    """
    u = A @ s + c
    for x in np.flatnonzero(A[row]):
        r = np.zeros(2)
        slack = 0.0
        for e in np.flatnonzero(A[:, x]):
            if e == row:
                continue
            away = A[e, x] * u[e]  # from the other end of edge e towards x
            d = math.hypot(away[0], away[1])
            if d <= _COLLAPSE_LEN:
                slack += 1.0
            else:
                r += away / d
        if np.linalg.norm(r) > 1.0 + slack + 1e-9:
            return True
    return False


def _minimize(A: np.ndarray, c: np.ndarray, s0: np.ndarray, grad_tol: float, budget: int, cut: float = math.inf):
    """Returns (positions, optimality residual, iterations used, converged); the positions
    are None once a reweighted step's :func:`_weak_dual` bound clears ``cut``. Contracted
    children get no cut: their bounds are not bounds on this network."""
    nfree = A.shape[1]
    if nfree == 0:
        return np.zeros((0, 2)), 0.0, 0, True
    # edges between two fixed nodes are constants and can never be contracted
    contractible = np.abs(A).sum(axis=1) > 0
    s = np.asarray(s0, dtype=float).reshape(nfree, 2).copy()
    d = _smooth_lengths(A @ s + c)
    it = 0
    gnorm = math.inf
    rejected: dict[int, float] = {}
    newton_cooldown = 0
    while it < budget:
        s, reweighted_by = _irls_step(A, c, d), d
        it += 1
        _, gnorm, u, d = _gradient(A, c, s)
        if gnorm < grad_tol:
            return s, gnorm, it, True
        if cut < math.inf and _weak_dual(A, u, reweighted_by) > cut:
            return None, gnorm, it, False
        shortest = int(np.argmin(np.where(contractible, d, math.inf)))
        if d[shortest] < _CONTRACT_TRIGGER and (
            shortest not in rejected or d[shortest] < 0.3 * rejected[shortest]
        ):
            A_child, c_child, s_child, rebuild = _contract(A, c, s, shortest)
            cs, cg, used, conv = _minimize(A_child, c_child, s_child, grad_tol, budget - it)
            it += used
            if conv:
                composed = rebuild(cs)
                if not _split_improves(A, c, composed, shortest):
                    return composed, cg, it, True
            rejected[shortest] = d[shortest]
            continue
        if newton_cooldown > 0:
            newton_cooldown -= 1
        elif it >= 2 and float(d.min()) > 1e-7:
            s, gnorm, used, ok = _newton(A, c, s, grad_tol, min(30, budget - it))
            it += used
            if ok:
                return s, gnorm, it, True
            # a failed burst means we are not yet in the Newton basin
            newton_cooldown = 4
            d = _smooth_lengths(A @ s + c)
    return s, gnorm, it, False


def _weak_dual(A: np.ndarray, u: np.ndarray, d: np.ndarray):
    """Σₑ wₑ·uₑ − ‖Aᵀw‖·√k per stacked network, for w = u/d scaled as a whole into the unit balls:
    :func:`_dual_bound`'s certificate for a reweighted iterate's edge vectors u and the lengths d behind it."""
    w = u / d[..., None]
    w /= np.maximum(1.0, np.hypot(w[..., 0], w[..., 1]).max(axis=-1))[..., None, None]
    slack = np.linalg.norm(np.swapaxes(A, -1, -2) @ w, axis=(-2, -1)) * math.sqrt(A.shape[-1])
    return (w * u).sum(axis=(-2, -1)) - slack


def _dual_bound(A: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Certified lower bounds on min_s Σₑ‖A s + c‖ₑ after a few reweighted steps from ``s``.

    Takes B networks of one shape stacked, A as (B, E, k), c as (B, E, 2)
    and s as (B, k, 2), and returns B bounds; unstacked arrays give one.
    Weak duality (G. Xue & Y. Ye, SIAM J. Optim. 7, 1997): for any w with
    ‖wₑ‖ <= 1, Σₑ‖uₑ(s*)‖ >= Σₑ wₑ·uₑ(s) + (Aᵀw)·(s* - s). The unit edge
    vectors at the iterate, corrected onto Aᵀw = 0 by least squares with the
    reweighting's weights 1/dₑ, are the next iterate's edge vectors over the
    current lengths, so the correction costs one more reweighted solve.
    Scaling w as a whole into the unit balls keeps Aᵀw = 0 up to rounding;
    the last term is at most ‖Aᵀw‖·√k because a reweighted iterate and an
    optimum both lie in the terminals' convex hull, of diameter at most 1.
    """
    for _ in range(_CERTIFY_STEPS + 1):
        d = _smooth_lengths(A @ s + c)
        s = _irls_step(A, c, d)
    return _weak_dual(A, A @ s + c, d)


def optimize_fixed_topology(
    terminals,
    topology: SteinerTopology,
    initial_s,
    grad_tol: float = 1e-10,
    max_iterations: int = 100_000,
) -> OptimizeResult:
    """Minimize total length over Steiner positions for a known topology.

    The objective is convex for a fixed topology, so the returned point is
    its global minimum up to degeneracies. Node coincidences at the
    optimum are reported through ``collapsed_edges`` rather than hidden.

    Raises:
        ValueError: invalid topology, nonpositive tolerance, terminals or
            initial positions not a finite (m, 2) array, or an initial
            position count that does not match the topology.
    """
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    validation = validate_topology(topology)
    if not validation.ok:
        raise ValueError("invalid topology: " + "; ".join(validation.violations))
    t = _points_array(terminals, "terminals")
    if t.shape[0] != topology.n:
        raise ValueError(f"expected {topology.n} terminals, got {t.shape[0]}")
    s0 = _points_array(initial_s, "initial positions") if topology.k else np.zeros((0, 2))
    if s0.shape[0] != topology.k:
        raise ValueError(f"expected {topology.k} initial steiner positions, got {s0.shape[0]}")

    tf, centre, scale = _frame(t)
    A, c = _network(tf, topology.k, topology.plan.node_pairs())
    s, gnorm, iters, converged = _minimize(A, c, (s0 - centre) / scale, grad_tol, max_iterations)
    u = A @ s + c
    refs = topology.plan.refs[topology.plan.steiner_edges]  # the network's rows
    collapsed = [ref for ref, d in zip(refs, np.hypot(u[:, 0], u[:, 1])) if d <= _COLLAPSE_LEN]
    return OptimizeResult(
        tree=SteinerTree.from_arrays(topology, t, s * scale + centre),
        gradient_norm=gnorm,
        iterations=iters,
        collapsed_edges=frozenset(collapsed),
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Enumeration and comparison of topologies
# ---------------------------------------------------------------------------


def enumerate_full_topologies(n: int) -> list[SteinerTopology]:
    """Every full topology on ``n`` labeled terminals, 3 <= n <= 6.

    Built incrementally: each new terminal subdivides one existing edge
    with a fresh Steiner point. That yields each full topology exactly
    once up to Steiner relabeling, with counts 1, 3, 15, 105. Built once
    per ``n``; every call returns a new list of the same topologies.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"terminal count must be between 3 and 6, got {n}")
    return list(_full_topologies(n))


def _insertions(edges: list[tuple[int, int]], term: int, fresh: int) -> list[list[tuple[int, int]]]:
    """Each edge list made from ``edges`` by inserting terminal ``term`` into one
    edge through the new Steiner point ``fresh``, in the order of the edges."""
    return [edges[:pos] + edges[pos + 1 :] + [(a, fresh), (fresh, b), (term, fresh)] for pos, (a, b) in enumerate(edges)]


@functools.cache
def _full_topologies(n: int) -> tuple[SteinerTopology, ...]:
    # edges as node pairs in the plan's stacked ids: terminal j is j, Steiner point i is n + i
    states = [[(0, n), (1, n), (2, n)]]
    for term in range(3, n):
        states = [grown for edges in states for grown in _insertions(edges, term, n + term - 2)]
    return tuple(SteinerTopology.from_node_pairs(n, n - 2, edges) for edges in states)


def canonical_encoding(topology: SteinerTopology) -> str:
    """A string invariant of the topology under Steiner relabeling.

    Terminals keep their labels; Steiner nodes are anonymous. Two valid
    topologies are equal up to Steiner renumbering iff their encodings
    match. The tree is encoded rooted at terminal 0 with children sorted
    recursively.

    Raises:
        ValueError: the edges do not form a tree (wrong edge count, a cycle
            or a disconnected node).
    """
    return _encode(topology.n, topology.k, topology.plan.node_pairs())


def _encode(n: int, k: int, pairs) -> str:
    """:func:`canonical_encoding` of the tree on n terminals and k Steiner points with these node pairs."""
    if len(pairs) != n + k - 1:
        raise ValueError(f"a tree on {n + k} nodes has {n + k - 1} edges, got {len(pairs)}")
    adj = adjacency(n + k, pairs)
    visited = [False] * len(adj)

    def enc(u: int, parent: int) -> str:
        if visited[u]:
            raise ValueError("topology must be a tree to encode, found a cycle")
        visited[u] = True
        label = f"t{u}" if u < n else "s"
        kids = sorted(enc(w, u) for w in adj[u] if w != parent)
        return label + "(" + ",".join(kids) + ")" if kids else label

    code = enc(0, -1)
    if not all(visited):
        raise ValueError("topology must be connected to encode")
    return code


def compare_topologies(a: SteinerTopology, b: SteinerTopology) -> bool:
    """True iff ``a`` and ``b`` coincide after some renumbering of Steiner points."""
    if (a.n, a.k) != (b.n, b.k):
        return False
    if (len(a.edges_T), len(a.edges_TS), len(a.edges_S)) != (len(b.edges_T), len(b.edges_TS), len(b.edges_S)):
        return False
    return canonical_encoding(a) == canonical_encoding(b)


# ---------------------------------------------------------------------------
# Solving one full topology
# ---------------------------------------------------------------------------


def _seed_positions(A: np.ndarray, c: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic start: each Steiner point at the (unit-weight) average of
    its neighbors, plus a small seeded jitter to break symmetric degeneracies."""
    base = np.linalg.solve(A.T @ A, -(A.T @ c))
    rng = np.random.default_rng(0x5EED + salt)
    return base + rng.normal(scale=1e-3, size=base.shape)


def _contract_collapsed(t: np.ndarray, s: np.ndarray, ends, lengths: np.ndarray) -> SteinerTree | None:
    """Merge the endpoints of edges no longer than the collapse length and rewire, for the tree on
    terminals ``t``, Steiner points ``s`` and node pairs ``ends``; None if the result is not a valid tree."""
    n = len(t)
    total = n + len(s)
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (p, q), length in zip(ends, lengths):
        if length <= _COLLAPSE_LEN:
            keep, merged = sorted((find(p), find(q)))
            parent[merged] = keep  # the smaller id represents, so terminals (ids < n) win

    # a terminal that does not represent its cluster shares it with a smaller terminal
    if any(find(j) != j for j in range(n)):
        return None  # two terminals forced coincident
    reps = sorted({find(x) for x in range(total)})
    # contracting edges of a tree leaves a tree, so only the merged degrees can be wrong
    degree = dict.fromkeys(reps, 0)
    for p, q in ends:
        if find(p) != find(q):
            degree[find(p)] += 1
            degree[find(q)] += 1
    if any(d != 3 if rep >= n else d > 3 for rep, d in degree.items()):
        return None

    new_steiner_reps = [rep for rep in reps if rep >= n]
    # each node's id in the reduced topology: terminals keep theirs, Steiner representatives are renumbered
    renum = {rep: n + i for i, rep in enumerate(new_steiner_reps)}
    reduced_id = [renum.get(find(x), find(x)) for x in range(total)]
    pairs = {(reduced_id[p], reduced_id[q]) for p, q in ends if reduced_id[p] != reduced_id[q]}
    reduced = SteinerTopology.from_node_pairs(n, len(new_steiner_reps), pairs)
    if not validate_topology(reduced).ok:
        return None
    return SteinerTree.from_arrays(reduced, t, s[[rep - n for rep in new_steiner_reps]])


# ---------------------------------------------------------------------------
# Branch and bound over terminal insertions (W. D. Smith, "How to find Steiner
# minimal trees in Euclidean d-space", Algorithmica 7, 1992)
# ---------------------------------------------------------------------------


def _insertion_order(d: np.ndarray) -> list[int]:
    """Farthest-first: the farthest-apart pair, then each time the terminal
    farthest from those inserted; ties go to the lower index."""
    a, b = np.unravel_index(int(np.argmax(d)), d.shape)
    order = [int(a), int(b)]
    gap = np.minimum(d[a], d[b])
    while len(order) < len(d):
        gap[order] = -1.0
        order.append(int(np.argmax(gap)))
        gap = np.minimum(gap, d[order[-1]])
    return order


def _mst_length(d: np.ndarray) -> float:
    """Prim's algorithm on the dense distance matrix."""
    reach = d[0].copy()
    reach[0] = math.inf
    joined = [0]
    total = 0.0
    for _ in range(len(d) - 1):
        reach[joined] = math.inf
        j = int(np.argmin(reach))
        total += float(reach[j])
        joined.append(j)
        reach = np.minimum(reach, d[j])
    return total


@dataclass
class _Search:
    """State of one branch-and-bound solve.

    Nodes of the search are edge lists of node pairs: terminal ``j`` is
    ``j`` and the Steiner point added with the terminal inserted ``j``-th is
    ``n + j - 2``, so the Steiner point's index is its column in the network
    and its row in the positions. Everything is in the frame of :func:`_frame`.
    A leaf minimizes the network its parent built, from the salt-0 seed like
    a bound, and keeps ``(pairs, positions, network length, reduced tree or None)``.
    """

    t: np.ndarray
    order: list[int]
    grad_tol: float
    max_iterations: int
    incumbent: float
    candidates: list[tuple[list[tuple[int, int]], np.ndarray, float, SteinerTree | None]] = field(default_factory=list)
    minimized: int = 0
    bounded: int = 0
    pruned: int = 0
    unconverged: int = 0
    certified: int = 0

    def visit(self, edges: list[tuple[int, int]], s: np.ndarray) -> None:
        n = len(self.t)
        m = len(edges) // 2 + 2  # terminals inserted
        if m == n:  # only the root of a three-terminal solve
            self.leaf(edges, *_network(self.t, n - 2, edges))
            return
        fresh, term = n + m - 2, self.order[m]
        below = math.prod(2 * j - 3 for j in range(m + 1, n))  # full topologies under each child
        grown = _insertions(edges, term, fresh)
        # every child's network has the same shape, so their certificates run stacked
        A, c = map(np.stack, zip(*(_network(self.t, m - 1, pairs) for pairs in grown)))
        starts = [np.vstack((s, sum(self.t[x] if x < n else s[x - n] for x in (a, b, term)) / 3.0)) for a, b in edges]
        certificates = _dual_bound(A, c, np.stack(starts))
        children = []
        for pos, pairs in enumerate(grown):
            # a child whose dual bound clears the cut is ruled out without a minimization
            if certificates[pos] > self.cut():
                self.certified += 1
                self.pruned += below
            elif m + 1 == n:
                self.leaf(pairs, A[pos], c[pos])
            else:
                bound, s_child, converged = self.bound(A[pos], c[pos])
                if s_child is None:  # ruled out by its own dual bound while minimized
                    self.certified += 1
                    self.pruned += below
                else:
                    children.append((bound, pos, s_child, converged, pairs))
        children.sort(key=lambda child: child[:2])
        for bound, _, s_child, converged, pairs in children:
            if converged and bound > self.cut():
                self.pruned += below
            else:
                self.visit(pairs, s_child)

    def cut(self) -> float:
        """The length above which a lower bound rules out a subtree.

        A bound is a node's converged optimum or a dual bound from before or
        during its minimization, never above the node's optimum. A full
        topology's optimum is at least its ancestors' optima: deleting a leaf
        terminal and suppressing its Steiner point never lengthens a tree.
        A candidate's length is its network's, and the incumbent never falls
        below the final best. So every topology whose candidate lands within
        best + tie_tol has all its bounds at or below this cut (2n - 3
        collapse lengths of slack included) and is reached; ``ties`` stays
        complete and the winner is the exhaustive solve's.
        """
        return self.incumbent + 1e-9 * max(1.0, self.incumbent) + (2 * len(self.t) - 3) * _COLLAPSE_LEN

    def bound(self, A: np.ndarray, c: np.ndarray) -> tuple[float, np.ndarray | None, bool]:
        """Optimal length of a partial topology's network on its own terminals, cold-started;
        no positions when the minimization's own dual bound clears the cut."""
        s, _, _, converged = _minimize(A, c, _seed_positions(A, c, 0), self.grad_tol, self.max_iterations, self.cut())
        self.bounded += 1
        if s is None:
            return math.inf, None, False
        u = A @ s + c
        return float(np.hypot(u[:, 0], u[:, 1]).sum()), s, converged

    def leaf(self, pairs: list[tuple[int, int]], A: np.ndarray, c: np.ndarray) -> None:
        """Minimize a full topology's network (A, c) from the same cold start as a bound and merge its node coincidences."""
        s, _, _, converged = _minimize(A, c, _seed_positions(A, c, 0), self.grad_tol, self.max_iterations, self.cut())
        if s is None:
            self.certified += 1
            self.pruned += 1
            return
        self.minimized += 1
        if not converged:
            self.unconverged += 1
            return
        u = A @ s + c
        lengths = np.hypot(u[:, 0], u[:, 1])
        reduced = None
        if lengths.min() <= _COLLAPSE_LEN:
            reduced = _contract_collapsed(self.t, s, _steiner_pairs(len(self.t), pairs), lengths)
            if reduced is None:
                return
        length = float(lengths.sum())
        self.candidates.append((pairs, s, length, reduced))
        self.incumbent = min(self.incumbent, length)


def solve_exact(terminals, grad_tol: float = 1e-10, max_iterations: int = 50_000) -> ExactSolveResult:
    """Shortest interconnecting tree over 2 to 6 pairwise-distinct terminals.

    Searches the full topologies by branch and bound over terminal
    insertions, optimizes every full topology the bounds cannot rule out
    from one seeded cold start, merges any node coincidences at the
    per-topology optima into valid reduced trees, and returns the shortest.
    Co-optimal trees (within a 1e-9 relative tie tolerance) are all
    reported, as :class:`ExactSolveResult` orders them. Only the trees it
    may return get a topology, never the table of full topologies. The
    result equals, bit for bit, that of optimizing every full topology.

    Raises:
        ValueError: terminals not a finite (m, 2) array, terminal count
            out of range, or coincident terminals.
        ConvergenceError: no topology's optimum converged to a valid tree,
            or the winner fails its own validity checks.
    """
    t = _points_array(terminals, "terminals")
    n = t.shape[0]
    if not 2 <= n <= 6:
        raise ValueError(f"terminal count must be between 2 and 6, got {n}")
    d = np.hypot(*np.moveaxis(t[:, None, :] - t[None, :, :], -1, 0))
    coincident = np.argwhere(np.triu(d <= COINCIDENT_THRESHOLD, 1))
    if coincident.size:
        i, j = coincident[0]
        raise ValueError(f"coincident terminals t{i} and t{j}")

    if n == 2:
        topo = SteinerTopology(n=2, k=0, edges_T=frozenset({(0, 1)}))
        tree = SteinerTree.from_arrays(topo, t, np.zeros((0, 2)))
        return ExactSolveResult(tree=tree, length=tree_length(tree), ties=(tree,))

    tf, centre, scale = _frame(t)
    order = _insertion_order(d)
    search = _Search(tf, order, grad_tol, max_iterations, incumbent=_mst_length(d) / scale)
    # the three-terminal root is never pruned; it is minimized only as the leaf of a three-terminal solve
    search.visit([(order[0], n), (order[1], n), (order[2], n)], tf[order[:3]].mean(axis=0, keepdims=True))

    if not search.candidates:
        raise ConvergenceError("no topology produced a valid optimum")
    best = min(length for _, _, length, _ in search.candidates)
    tie_tol = 1e-9 * max(1.0, best)
    # one tree per encoding: the shortest, and of equal ones that of the first full topology by encoding
    near = []
    for pairs, s, length, tree in search.candidates:
        if length <= best + tie_tol:
            tree = SteinerTree.from_arrays(SteinerTopology.from_node_pairs(n, n - 2, pairs), tf, s) if tree is None else tree
            near.append((canonical_encoding(tree.topology), length, _encode(n, n - 2, pairs), tree))
    near.sort(key=lambda item: item[:3])
    deduped = [tree for j, (code, *_, tree) in enumerate(near) if j == 0 or near[j - 1][0] != code]

    winner = deduped[0]
    report = check_geometric_conditions(winner, angle_tol=1e-6)
    if not (validate_topology(winner.topology).ok and report.satisfies_angle_condition):
        raise ConvergenceError("exact solve produced a tree failing its own validity checks")
    ties = tuple(SteinerTree.from_arrays(tr.topology, t, tr.steiner_positions * scale + centre) for tr in deduped)
    return ExactSolveResult(
        tree=ties[0],
        length=tree_length(ties[0]),
        ties=ties,
        minimized=search.minimized,
        bounded=search.bounded,
        pruned=search.pruned,
        unconverged=search.unconverged,
        certified=search.certified,
    )
