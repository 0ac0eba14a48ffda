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
from functools import cached_property

import numpy as np

from .errors import DegenerateEdgeError
from .trees import COINCIDENT_THRESHOLD, EdgePlan, NodeRef, SteinerTree, nondegenerate_edge_vectors

_IDENTITY = np.eye(2)
_IDENTITY.flags.writeable = False


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
    return (_IDENTITY - outer / (lengths * lengths)[:, None, None]) / lengths[:, None, None]


def cost(tree: SteinerTree) -> float:
    """Total edge length of the tree; rejects degenerate edges."""
    return float(nondegenerate_edge_vectors(tree)[1].sum())


def gradient_s(tree: SteinerTree) -> np.ndarray:
    """Gradient of the cost with respect to the flattened Steiner vector.

    The 2-subvector for Steiner point ``i`` sums the unit vectors pointing
    from each neighbor toward ``i``; at a fixed-topology optimum it
    vanishes.
    """
    return steiner_gradient(tree.topology.plan, *nondegenerate_edge_vectors(tree))


def steiner_gradient(plan: EdgePlan, u: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """:func:`gradient_s` from the edge vectors and lengths of a nondegenerate configuration."""
    se, ss = plan.steiner_edges, plan.steiner_steiner
    unit = u / lengths[:, None]
    g = np.zeros((plan.k, 2))
    # the head of every Steiner edge is a Steiner point, and only Steiner-Steiner edges have one as tail
    np.add.at(g, np.concatenate((plan.head[se], plan.tail[ss])) - plan.n, np.concatenate((unit[se], -unit[ss])))
    return g.reshape(-1)


@dataclass(frozen=True, eq=False)
class SecondPartials:
    """The second partials of the cost at one configuration, as stacks of 2x2 blocks.

    Indexed over the topology's :class:`~steineradapt.trees.EdgePlan`:
    ``diag[i]`` is the Steiner Hessian's block (i, i); ``off[e]`` is its
    block at both (m, l) and (l, m) for the plan's e-th Steiner-Steiner
    edge (m, l); ``mixed[e]`` is the mixed partial's block (i, j) for the
    plan's e-th terminal-Steiner edge (t_j, s_i). Every other block is zero.
    """

    plan: EdgePlan
    diag: np.ndarray
    off: np.ndarray
    mixed: np.ndarray

    @cached_property
    def hessian(self):
        """The Steiner Hessian as a scipy sparse matrix of 2x2 blocks, for
        callers that multiply by it many times.

        Building it costs about 40 µs even at k <= 4, more than one
        :meth:`hessian_times` product there (about 35 µs); at k = 398 one
        product with it takes 12-20 µs against about 100 µs, which pays
        off over the ~90 products of a Lanczos run. scipy.sparse is
        imported here, on first use, because its import costs more than
        50 ms that trees without a Lanczos run never need.
        """
        from scipy.sparse import bsr_array

        plan = self.plan
        ss = plan.steiner_steiner
        m, l, i = plan.tail[ss] - plan.n, plan.head[ss] - plan.n, np.arange(plan.k)
        rows, cols = np.concatenate((i, m, l)), np.concatenate((i, l, m))
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=plan.k))))
        blocks = np.concatenate((self.diag, self.off, self.off))[order]
        return bsr_array((blocks, cols[order], indptr), shape=(2 * plan.k, 2 * plan.k))

    def hessian_times(self, x: np.ndarray) -> np.ndarray:
        """``H x`` for ``x`` of shape ``(k, 2, c)``, one block product per block."""
        plan = self.plan
        ss = plan.steiner_steiner
        m, l = plan.tail[ss] - plan.n, plan.head[ss] - plan.n
        y = np.einsum("kab,kbc->kac", self.diag, x)
        np.add.at(y, m, np.einsum("kab,kbc->kac", self.off, x[l]))
        np.add.at(y, l, np.einsum("kab,kbc->kac", self.off, x[m]))
        return y

    def hessian_norms(self) -> np.ndarray:
        """Frobenius norm of the Hessian restricted to each Steiner-forest component."""
        plan, forest = self.plan, self.plan.forest
        ss = plan.steiner_steiner
        squares = np.bincount(forest.component, np.square(self.diag).sum(axis=(1, 2)), len(forest.components))
        squares += 2 * np.bincount(
            forest.component[plan.tail[ss] - plan.n], np.square(self.off).sum(axis=(1, 2)), len(forest.components)
        )
        return np.sqrt(squares)

    def mixed_times(self, delta_t: np.ndarray) -> np.ndarray:
        """``M delta_t`` as ``(k, 2, c)`` for a flattened terminal displacement ``(2n,)`` or ``(2n, c)``."""
        plan = self.plan
        ts = plan.terminal_steiner
        delta_t = delta_t.reshape(plan.n, 2, -1)
        y = np.zeros((plan.k, 2, delta_t.shape[2]))
        np.add.at(y, plan.head[ts] - plan.n, self.mixed @ delta_t[plan.tail[ts]])
        return y


def second_partials(plan: EdgePlan, u: np.ndarray, lengths: np.ndarray) -> SecondPartials:
    """:class:`SecondPartials` from the edge vectors and lengths of a nondegenerate configuration."""
    n, k = plan.n, plan.k
    proj = _projections(u, lengths)
    ss = plan.steiner_steiner
    diag = np.zeros((k, 2, 2))
    np.add.at(diag, plan.head[plan.steiner_edges] - n, proj[plan.steiner_edges])
    np.add.at(diag, plan.tail[ss] - n, proj[ss])
    return SecondPartials(plan, diag, -proj[ss], -proj[plan.terminal_steiner])


def hessian_ss(tree: SteinerTree) -> BlockMatrix2:
    """Second partial of the cost in the Steiner variables, as 2x2 blocks.

    Diagonal block ``i`` sums the edge projections of all edges at Steiner
    point ``i``; the off-diagonal block of an adjacent Steiner pair is the
    negated projection of their connecting edge. Non-adjacent pairs are
    absent (zero).
    """
    plan = tree.topology.plan
    partials = second_partials(plan, *nondegenerate_edge_vectors(tree))
    ss = plan.steiner_steiner
    blocks = {(i, i): b for i, b in enumerate(partials.diag)}
    for m, l, b in zip((plan.tail[ss] - plan.n).tolist(), (plan.head[ss] - plan.n).tolist(), partials.off):
        blocks[(m, l)] = b
        blocks[(l, m)] = b
    return BlockMatrix2(tree.k, tree.k, blocks)


def mixed_ts(tree: SteinerTree) -> BlockMatrix2:
    """Mixed second partial: Steiner block rows against terminal block columns.

    Block (i, j) is the negated edge projection of the terminal-Steiner
    edge between them when such an edge exists, and absent otherwise.
    """
    plan = tree.topology.plan
    partials = second_partials(plan, *nondegenerate_edge_vectors(tree))
    ts = plan.terminal_steiner
    blocks = {(i - plan.n, j): b for j, i, b in zip(plan.tail[ts].tolist(), plan.head[ts].tolist(), partials.mixed)}
    return BlockMatrix2(tree.k, tree.n, blocks)


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
