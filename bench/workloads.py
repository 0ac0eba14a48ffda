"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, makes the
untimed arguments of op ``i`` in :meth:`prepare`, runs one user-level
call in :meth:`op` (the only timed part), and verifies the result in
:meth:`check`. A check raises :class:`CheckFailed` on a wrong output and
otherwise returns the op's ``(accuracy ratio, first-order residual)``
sample, ``None`` for either part that does not apply. Package
functions are always reached through their module attribute, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os

import numpy as np

from steineradapt import adaptation, cli, derivatives, documents, exact, trees

import corpus

# Relative tolerance of the sampled-step check against a dense solve.
DELTA_S_RTOL = 1e-9
# Corrected-mode runs must end at a fixed-topology optimum to this residual.
CORRECTED_GRAD_TOL = 1e-8
# Rounding allowance when comparing a winner with the terminals' MST.
MST_RTOL = 1e-12


class CheckFailed(Exception):
    """An op returned a result that fails one of the benchmark's correctness checks."""


def dense_delta_s(tree: trees.SteinerTree, delta_t: np.ndarray) -> np.ndarray:
    """First-order Steiner displacement from a dense solve of the Hessian system."""
    h = derivatives.hessian_ss(tree).to_dense()
    m = derivatives.mixed_ts(tree).to_dense()
    return np.linalg.solve(h, -(m @ delta_t))


def check_report(report: adaptation.AdaptationReport, delta_t: np.ndarray, rng: np.random.Generator) -> None:
    """A run must complete, sum its fragments exactly, and predict ``delta_s`` correctly."""
    if report.status is not adaptation.AdaptationStatus.COMPLETED:
        raise CheckFailed(f"adaptation ended with status {report.status.value}")
    if not np.array_equal(report.applied_delta_t, delta_t):
        raise CheckFailed("fragments do not sum exactly to the requested delta_t")
    j = int(rng.integers(len(report.steps)))
    before = report.initial_tree if j == 0 else report.steps[j - 1].tree
    record = report.steps[j]
    expected = dense_delta_s(before, record.delta_t_fragment)
    error = float(np.linalg.norm(record.delta_s - expected))
    if error > DELTA_S_RTOL * float(np.linalg.norm(expected)):
        raise CheckFailed(f"step {j + 1}: delta_s differs from the dense solve by {error:.3e}")


def pure_accuracy(report: adaptation.AdaptationReport, delta_t: np.ndarray) -> tuple[float, float]:
    """(residual ratio, residual) of a pure-mode run's final tree.

    The residual is ||dJ/ds|| at the final tree. The ratio divides it by
    the residual of a single first-order step over the whole move, made
    here with a dense solve. The ratio is about 1/steps when every step is
    first-order accurate, and it varies far less between trees and moves
    than the residual itself.
    """
    start = report.initial_tree
    one_step = trees.SteinerTree.from_arrays(
        start.topology, start.t_vector() + delta_t, start.s_vector() + dense_delta_s(start, delta_t)
    )
    residual = corpus.gradient_norm(report.final_tree)
    return residual / corpus.gradient_norm(one_step), residual


class AdaptLarge:
    """``adapt_stepwise`` in pure mode, 4 steps, on 120-degree trees with k = 398."""

    name = "adapt-large"
    k = 398
    trees_per_corpus = 16
    move_fraction = 0.15
    # Largest ||dJ/ds|| accepted for a tree grown at exactly 120 degrees.
    grown_grad_tol = 1e-12

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.policy = adaptation.StepPolicy(steps=4)

    def setup(self) -> list[str]:
        rng = np.random.default_rng([self.seed, 0])
        self.trees, self.move_lengths = [], []
        records = []
        for _ in range(self.trees_per_corpus):
            tree = corpus.grown_tree(rng, self.k)
            grad = corpus.gradient_norm(tree)
            if grad > self.grown_grad_tol:
                raise RuntimeError(f"grown tree is not at an optimum: ||dJ/ds|| = {grad:.3e}")
            eigs = np.linalg.eigvalsh(derivatives.hessian_ss(tree).to_dense())
            if not eigs[0] > 0:
                raise RuntimeError(f"grown tree has a Hessian that is not positive definite: {eigs[0]:.3e}")
            self.trees.append(tree)
            self.move_lengths.append(self.move_fraction * corpus.terminal_edge_lengths(tree))
            records.append(
                f"k={tree.k} n={tree.n} grad={grad:.1e} cond={eigs[-1] / eigs[0]:.4g} "
                f"min_edge={trees.min_edge_length(tree):.4g}"
            )
        self.rng = np.random.default_rng([self.seed, 1])
        return records

    def prepare(self, i: int):
        which = i % len(self.trees)
        p = adaptation.Perturbation(corpus.random_moves(self.rng, self.move_lengths[which]))
        return self.trees[which], p

    def op(self, args):
        tree, p = args
        return adaptation.adapt_stepwise(tree, p, self.policy)

    def check(self, args, report) -> tuple[float, float]:
        _, p = args
        check_report(report, p.delta_t, self.rng)
        return pure_accuracy(report, p.delta_t)

    def release(self, args) -> None:
        pass


class AdaptCliSmall:
    """In-process ``steineradapt adapt --steps 8`` on exactly solved 3..6-terminal trees."""

    name = "adapt-cli-small"
    # Equal numbers of trees per terminal count, so that the mix of tree
    # sizes, which sets the mean op cost, is the same for every seed.
    trees_per_size = 8
    moves_per_tree = 4
    move_fraction = 0.2

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._setups = 0

    def setup(self) -> list[str]:
        # A fresh directory per set-up: rewriting an existing file is far
        # slower than creating one on some file systems.
        docdir = os.path.join(self.workdir, f"setup{self._setups}")
        self._setups += 1
        os.makedirs(docdir)
        rng = np.random.default_rng([self.seed, 0])
        self.pool = []
        sizes = []
        for t_idx in range(4 * self.trees_per_size):
            tree = corpus.solved_small_tree(rng, 3 + t_idx % 4)
            sizes.append(tree.k)
            instance = os.path.join(docdir, f"tree{t_idx}.json")
            with open(instance, "w", encoding="utf-8") as fh:
                fh.write(documents.encode_instance(tree))
            length = self.move_fraction * trees.min_edge_length(tree)
            for m_idx in range(self.moves_per_tree):
                p = adaptation.Perturbation(corpus.random_moves(rng, np.full(tree.n, length)))
                delta = os.path.join(docdir, f"tree{t_idx}-move{m_idx}.json")
                with open(delta, "w", encoding="utf-8") as fh:
                    fh.write(documents.encode_perturbation(p))
                self.pool.append((instance, delta, p.delta_t))
        self.rng = np.random.default_rng([self.seed, 1])
        return [f"trees={len(sizes)} n=3..6 k=" + ",".join(map(str, sizes)) + f" documents={len(self.pool) + len(sizes)}"]

    def prepare(self, i: int):
        instance, delta, delta_t = self.pool[(i // 2) % len(self.pool)]
        mode = ("pure", "corrected")[i % 2]
        out = os.path.join(self.workdir, f"report{i}.json")
        trace = os.path.join(self.workdir, f"trace{i}.csv")
        argv = ["adapt", "--instance", instance, "--delta", delta, "--steps", "8", "--mode", mode, "--out", out, "--trace", trace]
        return argv, mode, out, trace, delta_t

    def op(self, args):
        return cli.run_cli(args[0])

    def check(self, args, code) -> tuple[float, float] | None:
        _, mode, out, _, delta_t = args
        if code != 0:
            raise CheckFailed(f"adapt exited with status {code}")
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        report = documents.decode_report(text)
        written = json.loads(text)["status"]
        if report.status.value != written:
            raise CheckFailed(f"decoded status {report.status.value} differs from written status {written}")
        check_report(report, delta_t, self.rng)
        if mode == "pure":
            return pure_accuracy(report, delta_t)
        residual = corpus.gradient_norm(report.final_tree)
        if residual > CORRECTED_GRAD_TOL:
            raise CheckFailed(f"corrected run ended at ||dJ/ds|| = {residual:.3e}")
        return None

    def release(self, args) -> None:
        for path in args[2:4]:
            if os.path.exists(path):
                os.unlink(path)


class SolveN6:
    """``solve_exact`` on 6 terminals uniform in the unit square."""

    name = "solve-n6"
    instances = 4096

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> list[str]:
        rng = np.random.default_rng([self.seed, 0])
        self.terminals = rng.uniform(0.0, 1.0, (self.instances, 6, 2))
        return [f"instances={self.instances} n=6"]

    def prepare(self, i: int):
        return self.terminals[i % self.instances]

    def op(self, terminals):
        return exact.solve_exact(terminals)

    def check(self, terminals, result) -> tuple[float, None]:
        winner = result.tree
        report = trees.check_geometric_conditions(winner, 1e-6)
        if not report.satisfies_angle_condition:
            raise CheckFailed(f"winner fails the angle conditions: {report}")
        if result.length != trees.tree_length(winner):
            raise CheckFailed(f"reported length {result.length!r} differs from tree_length")
        mst = corpus.mst_length(terminals)
        if result.length > mst * (1.0 + MST_RTOL):
            raise CheckFailed(f"winner length {result.length!r} exceeds the MST length {mst!r}")
        return result.length / mst, None

    def release(self, args) -> None:
        pass


WORKLOADS = {w.name: w for w in (AdaptLarge, AdaptCliSmall, SolveN6)}
