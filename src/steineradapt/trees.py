"""Domain types for planar Steiner trees and their structural/geometric checks.

A tree connects ``n`` terminals (prescribed points) through ``k`` extra
Steiner points. The edge set is partitioned by endpoint kind into
terminal-terminal, terminal-Steiner and Steiner-Steiner edges. Validity
means: at most ``n - 2`` Steiner points, every Steiner point of degree
exactly 3, terminals of degree 1 to 3, and the whole graph a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DegenerateEdgeError

# Edge length below this (in instance units) is treated as a node coincidence;
# every derivative formula divides by edge lengths.
COINCIDENT_THRESHOLD = 1e-12

# Target meeting angle at a Steiner point.
STEINER_ANGLE = 2.0 * math.pi / 3.0


class NodeKind(Enum):
    TERMINAL = "t"
    STEINER = "s"


@dataclass(frozen=True, order=True)
class NodeRef:
    """Reference to a node by kind and zero-based index within its kind."""

    kind: NodeKind
    index: int

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}"

    @staticmethod
    def terminal(index: int) -> "NodeRef":
        return NodeRef(NodeKind.TERMINAL, index)

    @staticmethod
    def steiner(index: int) -> "NodeRef":
        return NodeRef(NodeKind.STEINER, index)


@dataclass(frozen=True)
class Point2:
    """A planar position with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")


def _normalized_pair(pair) -> tuple[int, int]:
    a, b = int(pair[0]), int(pair[1])
    return (a, b) if a <= b else (b, a)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SteinerForest:
    """The Steiner-Steiner subgraph of a topology, ordered for block elimination.

    ``components`` partitions the Steiner indices ``0..k-1`` into sorted
    tuples ordered by smallest member, and ``component[i]`` is the position
    of Steiner point ``i``'s component in it. Each component is rooted at a
    centre (a point of least eccentricity, the smaller index of two), listed
    in ``roots``. ``levels`` holds the other points by depth, deepest first,
    as ``(child, parent, edge)`` index arrays: the points, their parents,
    and the position among the plan's Steiner-Steiner edges of the edge
    joining them. Eliminating the levels in order creates no fill-in, and
    rooting at the centre keeps their number at the component's radius.
    """

    components: tuple[tuple[int, ...], ...]
    component: np.ndarray
    roots: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @cached_property
    def paths(self) -> AncestorPaths:
        """Every Steiner point's path to its root, built on first use."""
        return _build_paths(self.roots, self.levels)

    @property
    def path_blocks(self) -> int:
        """The sum over the Steiner points of their depth + 1: the size of
        :attr:`paths`, counted from the levels without building it."""
        sizes = [self.roots.size] + [child.size for child, _, _ in reversed(self.levels)]
        return int(np.dot(np.arange(1, len(sizes) + 1), sizes))


@dataclass(frozen=True, eq=False)
class AncestorPaths:
    """Every Steiner point's path to the root of its :class:`SteinerForest`
    component: the block pattern of the inverse of the unit factor that
    eliminates each component from its leaves.

    ``position`` numbers the Steiner points from the roots down: the roots,
    then the points of depth 1, 2, ..., each depth in the order of its
    forest level (``position[i]`` is Steiner point ``i``'s number).
    ``parents[d]`` holds, for the points of depth ``d + 1``, their parents'
    indices among the points of depth ``d``. In those positions, row ``r``
    of the pattern is ``columns[indptr[r]:indptr[r + 1]]``: the point
    itself, its parent, and so on up to its root, ``depth + 1`` entries. A
    component has the sum of its points' ``depth + 1`` entries, about
    k^2 / 4 on a path of k points rooted at its centre.
    """

    position: np.ndarray
    parents: tuple[np.ndarray, ...]
    columns: np.ndarray
    indptr: np.ndarray


def _build_paths(roots: np.ndarray, forest_levels: tuple[tuple[np.ndarray, ...], ...]) -> AncestorPaths:
    groups = [roots] + [child for child, _, _ in reversed(forest_levels)]
    order = np.concatenate(groups)
    position = np.empty(order.size, np.intp)
    position[order] = np.arange(order.size)
    offsets = np.cumsum([0] + [g.size for g in groups])
    parents, rows = [], [position[roots][:, None]]
    for depth, (child, parent, _) in enumerate(reversed(forest_levels), 1):
        above = position[parent] - offsets[depth - 1]
        parents.append(_frozen_array(above, np.intp))
        rows.append(np.column_stack((position[child], rows[-1][above])))
    lengths = np.repeat(np.arange(1, len(groups) + 1), [g.size for g in groups])
    return AncestorPaths(
        position=_frozen_array(position, np.intp),
        parents=tuple(parents),
        columns=_frozen_array(np.concatenate([r.reshape(-1) for r in rows]), np.intp),
        indptr=_frozen_array(np.concatenate(([0], np.cumsum(lengths))), np.intp),
    )


def _build_forest(k: int, ends_a: list[int], ends_b: list[int]) -> SteinerForest:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for e, (a, b) in enumerate(zip(ends_a, ends_b)):
        adj[a].append((b, e))
        adj[b].append((a, e))
    component, parent, edge, depth = [-1] * k, [-1] * k, [-1] * k, [0] * k
    components: list[tuple[int, ...]] = []
    roots: list[int] = []
    for start in range(k):
        if component[start] >= 0:
            continue
        members = [start]
        component[start] = len(components)
        for u in members:  # the list grows while it is walked
            for w, _ in adj[u]:
                if component[w] < 0:
                    component[w] = len(components)
                    members.append(w)
        if sum(len(adj[u]) for u in members) != 2 * len(members) - 2:
            raise ValueError(f"the Steiner-Steiner edges among {sorted(members)} contain a cycle")
        # strip leaves until one or two centres remain
        degree = {u: len(adj[u]) for u in members}
        layer, remaining = [u for u in members if degree[u] <= 1], len(members)
        while remaining > 2:
            remaining -= len(layer)
            stripped, layer = layer, []
            for u in stripped:
                for w, _ in adj[u]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        layer.append(w)
        order = [min(layer)]
        for u in order:
            for w, e in adj[u]:
                if w != parent[u]:
                    parent[w], edge[w], depth[w] = u, e, depth[u] + 1
                    order.append(w)
        roots.append(order[0])
        components.append(tuple(sorted(members)))
    by_depth: dict[int, list[int]] = {}
    for i in range(k):
        if depth[i] > 0:
            by_depth.setdefault(depth[i], []).append(i)
    levels = tuple(
        tuple(_frozen_array(values, np.intp) for values in (nodes, [parent[i] for i in nodes], [edge[i] for i in nodes]))
        for _, nodes in sorted(by_depth.items(), reverse=True)
    )
    return SteinerForest(tuple(components), _frozen_array(component, np.intp), _frozen_array(roots, np.intp), levels)


@dataclass(frozen=True, eq=False)
class EdgePlan:
    """A topology's edges as index arrays, in ``all_edges()`` order.

    Nodes are numbered in one stack: the ``n`` terminals ``0..n-1``, then
    the ``k`` Steiner points ``n..n+k-1``. Edge ``e`` joins ``tail[e]`` to
    ``head[e]`` and its edge vector is ``position[head[e]] -
    position[tail[e]]``. The head of every edge touching a Steiner point is
    a Steiner point, and ``steiner_edges`` spans those edges. Each row of
    ``pair_edges`` is two edges meeting at one node, ``pair_sign`` is +1
    when both leave that node along their edge vectors' directions (or both
    against), and ``pair_at_steiner`` marks pairs meeting at a Steiner
    point.
    """

    n: int
    k: int
    tail: np.ndarray
    head: np.ndarray
    refs: tuple[tuple[NodeRef, NodeRef], ...]
    terminal_terminal: slice
    terminal_steiner: slice
    steiner_steiner: slice
    steiner_edges: slice
    pair_edges: np.ndarray
    pair_sign: np.ndarray
    pair_at_steiner: np.ndarray

    def node_pairs(self) -> list[tuple[int, int]]:
        """Every edge as its ``(tail, head)`` pair of stacked ids."""
        return list(zip(self.tail.tolist(), self.head.tolist()))

    def edge_vectors(self, terminals: np.ndarray, steiner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`edge_vectors` of the nodes at ``terminals`` ``(n, 2)`` and ``steiner`` ``(k, 2)``."""
        nodes = np.concatenate((terminals, steiner))
        u = nodes[self.head] - nodes[self.tail]
        return u, np.hypot(u[:, 0], u[:, 1])

    @cached_property
    def forest(self) -> SteinerForest:
        """The Steiner-Steiner subgraph ordered for elimination, built on first use.

        Raises:
            ValueError: the Steiner-Steiner edges contain a cycle.
        """
        ss = self.steiner_steiner
        return _build_forest(self.k, (self.tail[ss] - self.n).tolist(), (self.head[ss] - self.n).tolist())


def _build_plan(topology: SteinerTopology) -> EdgePlan:
    n, k = topology.n, topology.k
    tt, ts, ss = sorted(topology.edges_T), sorted(topology.edges_TS), sorted(topology.edges_S)
    refs = (
        [(NodeRef.terminal(i), NodeRef.terminal(j)) for i, j in tt]
        + [(NodeRef.terminal(j), NodeRef.steiner(i)) for j, i in ts]
        + [(NodeRef.steiner(m), NodeRef.steiner(l)) for m, l in ss]
    )

    def node(ref: NodeRef) -> int:
        # an index outside its kind's range maps past the last node, so position lookups fail
        offset, count = (0, n) if ref.kind is NodeKind.TERMINAL else (n, k)
        return offset + ref.index if 0 <= ref.index < count else n + k

    ends = [(node(a), node(b)) for a, b in refs]
    # (edge, +1 if the node is the edge's tail else -1) for the edges at each node
    incident: dict[int, list[tuple[int, int]]] = {}
    for e, (a, b) in enumerate(ends):
        incident.setdefault(a, []).append((e, 1))
        incident.setdefault(b, []).append((e, -1))
    pairs = [
        (e1, e2, s1 * s2, at >= n)
        for at, meeting in incident.items()
        for x, (e1, s1) in enumerate(meeting)
        for e2, s2 in meeting[x + 1 :]
    ]
    return EdgePlan(
        n=n,
        k=k,
        tail=_frozen_array([a for a, _ in ends], np.intp),
        head=_frozen_array([b for _, b in ends], np.intp),
        refs=tuple(refs),
        terminal_terminal=slice(0, len(tt)),
        terminal_steiner=slice(len(tt), len(tt) + len(ts)),
        steiner_steiner=slice(len(tt) + len(ts), len(ends)),
        steiner_edges=slice(len(tt), len(ends)),
        pair_edges=_frozen_array([p[:2] for p in pairs], np.intp).reshape(-1, 2),
        pair_sign=_frozen_array([p[2] for p in pairs], float),
        pair_at_steiner=_frozen_array([p[3] for p in pairs], bool),
    )


@dataclass(frozen=True)
class SteinerTopology:
    """Combinatorial structure of a Steiner tree.

    ``edges_T`` holds unordered terminal-terminal index pairs, ``edges_S``
    unordered Steiner-Steiner pairs (both stored sorted), and ``edges_TS``
    pairs ``(terminal_index, steiner_index)``. The constructor normalizes
    the edge containers; it does not validate, so arbitrary candidate
    structures can be represented and then checked with
    :func:`validate_topology`.
    """

    n: int
    k: int
    edges_T: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    edges_TS: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    edges_S: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges_T", frozenset(_normalized_pair(e) for e in self.edges_T))
        object.__setattr__(self, "edges_TS", frozenset((int(a), int(b)) for a, b in self.edges_TS))
        object.__setattr__(self, "edges_S", frozenset(_normalized_pair(e) for e in self.edges_S))

    @staticmethod
    def from_node_pairs(n: int, k: int, pairs) -> "SteinerTopology":
        """A topology from edges given as node pairs in the plan's stacked ids:
        terminal ``j`` is ``j`` and Steiner point ``i`` is ``n + i``."""
        tt, ts, ss = set(), set(), set()
        for pair in pairs:
            a, b = _normalized_pair(pair)
            if b < n:
                tt.add((a, b))
            elif a < n:
                ts.add((a, b - n))
            else:
                ss.add((a - n, b - n))
        return SteinerTopology(n, k, tt, ts, ss)

    @cached_property
    def plan(self) -> EdgePlan:
        """The edges in index form, built on first use and kept for the topology's lifetime."""
        return _build_plan(self)

    @cached_property
    def validation(self) -> TopologyValidation:
        """:func:`validate_topology`'s result, computed on first use and kept like :attr:`plan`."""
        return _validate(self)

    @property
    def edge_count(self) -> int:
        return len(self.edges_T) + len(self.edges_TS) + len(self.edges_S)

    def all_edges(self) -> Iterator[tuple[NodeRef, NodeRef]]:
        """Yield every edge as a pair of node references, deterministically ordered:
        terminal-terminal, terminal-Steiner, then Steiner-Steiner, each sorted."""
        return iter(self.plan.refs)

    def terminal_degrees(self) -> list[int]:
        deg = [0] * self.n
        for i, j in self.edges_T:
            if 0 <= i < self.n:
                deg[i] += 1
            if 0 <= j < self.n:
                deg[j] += 1
        for j, _ in self.edges_TS:
            if 0 <= j < self.n:
                deg[j] += 1
        return deg

    def steiner_degrees(self) -> list[int]:
        deg = [0] * self.k
        for _, i in self.edges_TS:
            if 0 <= i < self.k:
                deg[i] += 1
        for m, l in self.edges_S:
            if 0 <= m < self.k:
                deg[m] += 1
            if 0 <= l < self.k:
                deg[l] += 1
        return deg


@dataclass(frozen=True, eq=False)
class SteinerTree:
    """A topology together with concrete coordinates for every node.

    ``terminal_positions`` is a read-only ``(n, 2)`` float array and
    ``steiner_positions`` a read-only ``(k, 2)`` one; the constructor
    copies whatever array-like it is given. Flattening them row by row as
    ``(x0, y0, x1, y1, ...)`` gives the terminal and Steiner coordinate
    vectors used throughout the derivative and adaptation machinery.
    Trees compare equal when their topologies and positions are equal.

    Raises:
        ValueError: a position count that does not match the topology, or
            a coordinate that is not finite.
    """

    topology: SteinerTopology
    terminal_positions: np.ndarray
    steiner_positions: np.ndarray

    def __post_init__(self) -> None:
        for kind, count in (("terminal", self.topology.n), ("steiner", self.topology.k)):
            arr = np.array(getattr(self, f"{kind}_positions"), dtype=float)
            if arr.size != 2 * count:
                raise ValueError(f"expected {count} {kind} positions, got {arr.size} coordinates")
            if not np.isfinite(arr).all():
                raise ValueError(f"{kind} coordinates must be finite")
            arr = arr.reshape(count, 2)
            arr.flags.writeable = False
            object.__setattr__(self, f"{kind}_positions", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SteinerTree):
            return NotImplemented
        return (
            self.topology == other.topology
            and np.array_equal(self.terminal_positions, other.terminal_positions)
            and np.array_equal(self.steiner_positions, other.steiner_positions)
        )

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def k(self) -> int:
        return self.topology.k

    def terminal_array(self) -> np.ndarray:
        return self.terminal_positions

    def steiner_array(self) -> np.ndarray:
        return self.steiner_positions

    def t_vector(self) -> np.ndarray:
        return self.terminal_positions.reshape(-1)

    def s_vector(self) -> np.ndarray:
        return self.steiner_positions.reshape(-1)

    @staticmethod
    def from_arrays(topology: SteinerTopology, terminals, steiner) -> "SteinerTree":
        return SteinerTree(topology, terminals, steiner)


@dataclass(frozen=True)
class TopologyValidation:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class GeometricConditionReport:
    """Edge-length and meeting-angle summary of a concrete tree.

    ``max_steiner_angle_deviation`` is the largest absolute deviation from
    120 degrees over all edge pairs at Steiner points;
    ``min_pairwise_angle`` is the smallest angle between tree edges meeting
    at any node. Both are radians in [0, pi].
    """

    min_edge_length: float
    max_steiner_angle_deviation: float
    min_pairwise_angle: float
    satisfies_angle_condition: bool


def validate_topology(topology: SteinerTopology) -> TopologyValidation:
    """Check every structural rule; violations are data, not exceptions.

    Each violation message names the failed rule and the offending node or
    edge, so callers can surface them directly. The result depends only on
    the topology, which keeps it after the first check.
    """
    return topology.validation


def _validate(topology: SteinerTopology) -> TopologyValidation:
    v: list[str] = []
    n, k = topology.n, topology.k

    if n < 2:
        v.append(f"terminal-count: need at least 2 terminals, got {n}")
    if k < 0:
        v.append(f"steiner-count: negative steiner count {k}")
    if n >= 2 and k > n - 2:
        v.append(f"steiner-count: k <= n - 2 violated (k={k}, n={n})")

    in_range = True
    for i, j in topology.edges_T:
        if not (0 <= i < n and 0 <= j < n):
            v.append(f"index-range: terminal edge ({i},{j}) out of range")
            in_range = False
        elif i == j:
            v.append(f"self-loop: terminal edge ({i},{j})")
    for j, i in topology.edges_TS:
        if not (0 <= j < n and 0 <= i < k):
            v.append(f"index-range: terminal-steiner edge (t{j},s{i}) out of range")
            in_range = False
    for m, l in topology.edges_S:
        if not (0 <= m < k and 0 <= l < k):
            v.append(f"index-range: steiner edge ({m},{l}) out of range")
            in_range = False
        elif m == l:
            v.append(f"self-loop: steiner edge ({m},{l})")

    if n >= 2 and k >= 0 and in_range:
        expected = n + k - 1
        if topology.edge_count != expected:
            v.append(f"edge-count: a tree on {n + k} nodes needs {expected} edges, got {topology.edge_count}")
        for j, d in enumerate(topology.steiner_degrees()):
            if d != 3:
                v.append(f"steiner-degree: s{j} has degree {d} (expected exactly 3)")
        for j, d in enumerate(topology.terminal_degrees()):
            if not 1 <= d <= 3:
                v.append(f"terminal-degree: t{j} has degree {d} (expected 1 to 3)")
        if not _is_connected(topology):
            v.append("connectivity: graph is not connected")

    return TopologyValidation(ok=not v, violations=tuple(v))


def adjacency(total: int, pairs) -> list[list[int]]:
    """Neighbors of each of the nodes ``0..total-1`` joined by the node ``pairs``,
    in the plan's stacked ids: terminal ``j`` is ``j``, Steiner point ``i`` is ``n + i``."""
    adj: list[list[int]] = [[] for _ in range(total)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _is_connected(topology: SteinerTopology) -> bool:
    adj = adjacency(topology.n + topology.k, topology.plan.node_pairs())
    total = len(adj)
    if total == 0:
        return False
    seen = [False] * total
    stack = [0]
    seen[0] = True
    count = 0
    while stack:
        u = stack.pop()
        count += 1
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return count == total


def steiner_forest_components(topology: SteinerTopology) -> list[list[int]]:
    """Connected components of the Steiner-Steiner subgraph.

    Returns a partition of ``{0, ..., k-1}`` as sorted lists, ordered by
    smallest member. Steiner points with no Steiner neighbor form
    singletons. Read from the topology's cached :class:`SteinerForest`.

    Raises:
        ValueError: the Steiner-Steiner edges contain a cycle.
    """
    return [list(c) for c in topology.plan.forest.components]


def edge_vectors(tree: SteinerTree) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors ``(E, 2)`` and lengths ``(E,)`` of every edge, in ``all_edges()`` order.

    Row ``e`` is ``position[head[e]] - position[tail[e]]`` over the
    topology's :class:`EdgePlan`. Degenerate edges are returned as they
    are; see :func:`nondegenerate_edge_vectors`.
    """
    return tree.topology.plan.edge_vectors(tree.terminal_positions, tree.steiner_positions)


def nondegenerate_edge_vectors(tree: SteinerTree) -> tuple[np.ndarray, np.ndarray]:
    """:func:`edge_vectors` for computations that divide by edge lengths.

    Raises:
        DegenerateEdgeError: naming the first edge no longer than the
            coincidence threshold.
    """
    u, lengths = edge_vectors(tree)
    _check_nondegenerate(tree.topology.plan, lengths)
    return u, lengths


def _check_nondegenerate(plan: EdgePlan, lengths: np.ndarray) -> None:
    short = np.flatnonzero(lengths <= COINCIDENT_THRESHOLD)
    if short.size:
        a, b = plan.refs[short[0]]
        raise DegenerateEdgeError(f"coincident nodes: edge {a}-{b} has length {lengths[short[0]]:.3e}")


def tree_length(tree: SteinerTree) -> float:
    """Sum of Euclidean edge lengths over the whole tree."""
    return float(edge_vectors(tree)[1].sum())


def min_edge_length(tree: SteinerTree) -> float:
    lengths = edge_vectors(tree)[1]
    return float(lengths.min()) if lengths.size else 0.0


def check_geometric_conditions(tree: SteinerTree, angle_tol: float = 1e-6) -> GeometricConditionReport:
    """Measure edge lengths and meeting angles against the 120-degree rules.

    The report satisfies the angle condition when every Steiner meeting
    angle is within ``angle_tol`` of 120 degrees and no two edges anywhere
    meet at less than 120 degrees minus ``angle_tol``.

    Raises:
        DegenerateEdgeError: if any edge is shorter than the coincidence
            threshold; angles are undefined there.
    """
    return _geometric_conditions(tree.topology.plan, *edge_vectors(tree), angle_tol)


def _geometric_conditions(plan: EdgePlan, u: np.ndarray, lengths: np.ndarray, angle_tol: float) -> GeometricConditionReport:
    """:func:`check_geometric_conditions` from the tree's :func:`edge_vectors`."""
    _check_nondegenerate(plan, lengths)
    unit = u / lengths[:, None]
    a, b = unit[plan.pair_edges[:, 0]], unit[plan.pair_edges[:, 1]]
    # atan2 form is stable for nearly parallel and nearly opposite directions
    cross = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    angles = np.arctan2(cross, plan.pair_sign * (a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]))
    max_dev = float(np.abs(angles[plan.pair_at_steiner] - STEINER_ANGLE).max(initial=0.0))
    min_angle = float(angles.min(initial=math.pi))

    satisfied = max_dev <= angle_tol and min_angle >= STEINER_ANGLE - angle_tol
    return GeometricConditionReport(
        min_edge_length=float(lengths.min()) if lengths.size else 0.0,
        max_steiner_angle_deviation=max_dev,
        min_pairwise_angle=min_angle,
        satisfies_angle_condition=bool(satisfied),
    )
