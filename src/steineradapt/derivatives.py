"""Analytic derivatives of the tree-length cost with respect to node positions.

The cost of a tree is the sum of its Euclidean edge lengths. Only edges
touching a Steiner point contribute to the Steiner gradient and to the
second partials; terminal-terminal edges are constant in the Steiner
variables. Every second-derivative block is built from the same rank-1
projection ``(I - u u^T / |u|^2) / |u|`` of an edge vector ``u``, which
makes the Steiner Hessian block-sparse: a diagonal block per Steiner
point plus one off-diagonal block per Steiner-Steiner edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateEdgeError
from .trees import COINCIDENT_THRESHOLD, NodeRef, SteinerTree, nondegenerate_edge_vectors


@dataclass(frozen=True)
class BlockMatrix2:
    """A block_rows x block_cols grid of 2x2 blocks with sparse storage.

    Absent blocks are semantically zero. ``blocks`` maps a (row, col)
    block index to its 2x2 array.
    """

    block_rows: int
    block_cols: int
    blocks: dict[tuple[int, int], np.ndarray]

    def block(self, i: int, j: int) -> np.ndarray:
        """The 2x2 block at (i, j), a zero block if absent."""
        if not (0 <= i < self.block_rows and 0 <= j < self.block_cols):
            raise IndexError(f"block index ({i}, {j}) out of range")
        b = self.blocks.get((i, j))
        return np.zeros((2, 2)) if b is None else b

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((2 * self.block_rows, 2 * self.block_cols))
        for (i, j), b in self.blocks.items():
            dense[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = b
        return dense


class EdgeTermKind(Enum):
    TERMINAL_STEINER = "terminal-steiner"
    STEINER_STEINER = "steiner-steiner"


@dataclass(frozen=True)
class EdgeTerm:
    """One edge's additive contribution to the Steiner Hessian.

    A terminal-Steiner edge contributes a single diagonal block at its
    Steiner index; a Steiner-Steiner edge (m, l) contributes the familiar
    graph-Laplacian pattern: +A at (m,m) and (l,l), -A at (m,l) and (l,m).
    """

    kind: EdgeTermKind
    edge: tuple[NodeRef, NodeRef]
    contribution: BlockMatrix2


def edge_projection(u) -> np.ndarray:
    """``(I - u u^T / |u|^2) / |u|`` for a nonzero 2-vector ``u``.

    Symmetric, nonnegative definite, rank 1, and annihilates ``u``.
    """
    u = np.asarray(u, dtype=float).reshape(1, 2)
    d = np.hypot(u[:, 0], u[:, 1])
    if d[0] <= COINCIDENT_THRESHOLD:
        raise DegenerateEdgeError(f"degenerate edge: |u| = {d[0]:.3e}")
    return _projections(u, d)[0]


def _projections(u: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`edge_projection` of every row of ``u`` (shape (E, 2) -> (E, 2, 2))."""
    outer = u[:, :, None] * u[:, None, :]
    return (np.eye(2) - outer / (lengths * lengths)[:, None, None]) / lengths[:, None, None]


def cost(tree: SteinerTree) -> float:
    """Total edge length of the tree; rejects degenerate edges."""
    return float(nondegenerate_edge_vectors(tree)[1].sum())


def gradient_s(tree: SteinerTree) -> np.ndarray:
    """Gradient of the cost with respect to the flattened Steiner vector.

    The 2-subvector for Steiner point ``i`` sums the unit vectors pointing
    from each neighbor toward ``i``; at a fixed-topology optimum it
    vanishes.
    """
    plan = tree.topology.plan
    u, lengths = nondegenerate_edge_vectors(tree)
    unit = u / lengths[:, None]
    g = np.zeros((tree.n + tree.k, 2))
    np.add.at(g, np.concatenate((plan.head, plan.tail)), np.concatenate((unit, -unit)))
    return g[tree.n :].reshape(-1)


def hessian_ss(tree: SteinerTree) -> BlockMatrix2:
    """Second partial of the cost in the Steiner variables, as 2x2 blocks.

    Diagonal block ``i`` sums the edge projections of all edges at Steiner
    point ``i``; the off-diagonal block of an adjacent Steiner pair is the
    negated projection of their connecting edge. Non-adjacent pairs are
    absent (zero).
    """
    n, k, plan = tree.n, tree.k, tree.topology.plan
    proj = _projections(*nondegenerate_edge_vectors(tree))
    ss = plan.steiner_steiner
    diag = np.zeros((k, 2, 2))
    np.add.at(diag, plan.head[plan.steiner_edges] - n, proj[plan.steiner_edges])
    np.add.at(diag, plan.tail[ss] - n, proj[ss])
    blocks = {(i, i): diag[i] for i in range(k)}
    for m, l, p in zip((plan.tail[ss] - n).tolist(), (plan.head[ss] - n).tolist(), proj[ss]):
        blocks[(m, l)] = -p
        blocks[(l, m)] = -p
    return BlockMatrix2(k, k, blocks)


def mixed_ts(tree: SteinerTree) -> BlockMatrix2:
    """Mixed second partial: Steiner block rows against terminal block columns.

    Block (i, j) is the negated edge projection of the terminal-Steiner
    edge between them when such an edge exists, and absent otherwise.
    """
    n, plan = tree.n, tree.topology.plan
    proj = _projections(*nondegenerate_edge_vectors(tree))
    ts = plan.terminal_steiner
    blocks = {(i - n, j): -p for j, i, p in zip(plan.tail[ts].tolist(), plan.head[ts].tolist(), proj[ts])}
    return BlockMatrix2(tree.k, n, blocks)


def edge_terms(tree: SteinerTree) -> list[EdgeTerm]:
    """Per-edge decomposition of the Steiner Hessian.

    Summing every contribution reproduces :func:`hessian_ss` entrywise.
    Each term is nonnegative definite, which is what makes the assembled
    Hessian nonnegative definite before any angle argument is invoked.
    """
    n, k, plan = tree.n, tree.k, tree.topology.plan
    proj = _projections(*nondegenerate_edge_vectors(tree))
    terms: list[EdgeTerm] = []
    for e in range(plan.steiner_edges.start, plan.steiner_edges.stop):
        a, m, l = proj[e], int(plan.tail[e]) - n, int(plan.head[e]) - n
        if e < plan.steiner_steiner.start:
            kind, blocks = EdgeTermKind.TERMINAL_STEINER, {(l, l): a.copy()}
        else:
            kind, blocks = EdgeTermKind.STEINER_STEINER, {(m, m): a.copy(), (l, l): a.copy(), (m, l): -a, (l, m): -a}
        terms.append(EdgeTerm(kind=kind, edge=plan.refs[e], contribution=BlockMatrix2(k, k, blocks)))
    return terms
