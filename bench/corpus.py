"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` made from the workload
seed and returns plain arrays or library objects built from them, so the
same seed always yields the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

from steineradapt import derivatives, exact, trees


def grown_tree(rng: np.random.Generator, k: int) -> trees.SteinerTree:
    """A full Steiner tree with ``k`` Steiner points that meet at exactly 120 degrees.

    Growth starts from a root Steiner point with three open ends 120
    degrees apart. Each expansion picks one of the three oldest open ends,
    places a Steiner point at distance ``0.75**depth * U(0.6, 1)`` along
    it, and opens two ends at +-60 degrees. After ``k - 1`` expansions the
    ``k + 2`` remaining ends become terminals. Every Steiner point then has
    three unit edge directions summing to zero, so the tree is a
    fixed-topology optimum by construction.
    """
    steiner = [(0.0, 0.0)]
    # open end: (steiner index it leaves, direction angle, depth)
    base = rng.uniform(0.0, 2.0 * math.pi)
    ends = [(0, base + j * 2.0 * math.pi / 3.0, 1) for j in range(3)]
    edges_ts, edges_ss = [], []

    def reach(end):
        parent, angle, depth = end
        dist = 0.75**depth * rng.uniform(0.6, 1.0)
        px, py = steiner[parent]
        return (px + dist * math.cos(angle), py + dist * math.sin(angle))

    for _ in range(k - 1):
        end = ends.pop(int(rng.integers(min(3, len(ends)))))
        parent, angle, depth = end
        steiner.append(reach(end))
        child = len(steiner) - 1
        edges_ss.append((parent, child))
        ends += [(child, angle + math.pi / 3.0, depth + 1), (child, angle - math.pi / 3.0, depth + 1)]

    terminals = []
    for end in ends:
        terminals.append(reach(end))
        edges_ts.append((len(terminals) - 1, end[0]))
    topology = trees.SteinerTopology(
        n=len(terminals), k=k, edges_TS=frozenset(edges_ts), edges_S=frozenset(edges_ss)
    )
    return trees.SteinerTree.from_arrays(topology, np.array(terminals), np.array(steiner))


def solved_small_tree(rng: np.random.Generator, n: int) -> trees.SteinerTree:
    """An exactly solved tree on ``n`` terminals with at least one Steiner point.

    Drawn the way the acceptance suite draws its optimized instances:
    terminals uniform in [-1, 1]^2, redrawn while the optimum has no
    Steiner point.
    """
    while True:
        tree = exact.solve_exact(rng.uniform(-1.0, 1.0, (n, 2))).tree
        if tree.k > 0:
            return tree


def random_moves(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """Flattened terminal moves: terminal ``j`` moves ``lengths[j]`` in a uniform random direction."""
    angle = rng.uniform(0.0, 2.0 * math.pi, lengths.size)
    return (lengths[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])).reshape(-1)


def terminal_edge_lengths(tree: trees.SteinerTree) -> np.ndarray:
    """Length of each terminal's single edge in a full topology."""
    t = tree.terminal_array()
    s = tree.steiner_array()
    lengths = np.zeros(tree.n)
    for j, i in tree.topology.edges_TS:
        lengths[j] = math.hypot(*(t[j] - s[i]))
    return lengths


def mst_length(points: np.ndarray) -> float:
    """Euclidean minimum spanning tree length (Prim, O(n^2))."""
    n = len(points)
    best = np.full(n, math.inf)
    best[0] = 0.0
    done = np.zeros(n, dtype=bool)
    total = 0.0
    for _ in range(n):
        u = int(np.argmin(np.where(done, math.inf, best)))
        done[u] = True
        total += best[u]
        best = np.minimum(best, np.hypot(*(points - points[u]).T))
    return float(total)


def gradient_norm(tree: trees.SteinerTree) -> float:
    """First-order optimality residual ||dJ/ds|| of a tree."""
    return float(np.linalg.norm(derivatives.gradient_s(tree)))
