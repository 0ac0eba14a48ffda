"""Time the pieces of one Steiner-forest component's spectrum check.

Usage (from the root of any checkout):

    python3 tools/spectrum_timing.py

The script imports the ``src/`` next to it, pins every BLAS pool to one
thread before numpy loads, and needs no network. For 120-degree grown trees
(``bench/corpus.grown_tree``, the trees of the ``adapt-large`` workload,
``default_rng([k, 0])``) with k = 80 to 398 and for caterpillars
(``tests/conftest.caterpillar_tree``) with k = 398 to 1598, each a single
component, it prints the number of 2x2 blocks in the factor's sparse H^-1
(``blocks``, the sum of depth + 1 over the points), that number per point,
and the median milliseconds over ``REPEATS`` repeats of:

- ``dense``: the dense spectrum, the component's dense Hessian and its
  ``eigvalsh``, which components of at most ``_DENSE_SPECTRUM_MAX`` rows get
  (timed up to k = 398 only: above that it takes seconds and hundreds of MB);
- ``λmax``: the Lanczos run for the largest eigenvalue, including the
  sparse Hessian it multiplies by;
- ``build``: building the factor's two sparse inverse factors;
- ``λmin``: the Lanczos run for the smallest eigenvalue through them;
- ``λmin loop``: the same run through the level-by-level
  ``_BlockFactor.solve`` instead;
- ``lanczos``: what a component above ``_DENSE_SPECTRUM_MAX`` rows pays,
  λmax plus the λmin path that ``_INVERSE_BLOCKS_PER_POINT`` picks (named in
  the ``H^-1`` column: ``sparse`` for build + λmin, ``loop`` for λmin loop),
  and ``dense / lanczos``.

Each repeat starts from a fresh factor, so that no cached operator is
reused. All Lanczos runs go through ``adaptation._largest_eigenvalue``, the
run that the library makes.
"""

import os
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import corpus  # noqa: E402
from conftest import caterpillar_tree  # noqa: E402
from steineradapt import adaptation  # noqa: E402

GROWN = (80, 100, 120, 140, 160, 240, 398)
CATERPILLARS = (398, 798, 1198, 1598)
DENSE_MAX_K = 398
REPEATS = 7
COLUMNS = ("dense", "λmax", "build", "λmin", "λmin loop", "lanczos", "dense / lanczos")


def seconds(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def time_tree(tree) -> tuple[dict[str, float], bool]:
    """The medians of one tree, and whether the library applies H^-1 through the sparse factors."""
    k = tree.k
    members = np.arange(k)
    forest = tree.topology.plan.forest
    sparse = forest.path_blocks <= adaptation._INVERSE_BLOCKS_PER_POINT * k
    times: dict[str, list[float]] = {name: [] for name in COLUMNS[:5] if name != "dense" or k <= DENSE_MAX_K}
    for repeat in range(REPEATS + 1):  # the first round warms up and is dropped
        factor = adaptation._evaluate(tree).factor
        partials = factor.partials
        partials.__dict__.pop("hessian", None)
        factor.__dict__.pop("inverse_factors", None)
        sample = {
            "λmax": seconds(lambda: adaptation._largest_eigenvalue(partials.hessian.dot, members, k)),
            "build": seconds(lambda: factor.inverse_factors),
        }
        if "dense" in times:
            sample["dense"] = seconds(lambda: np.linalg.eigvalsh(adaptation._dense_component(partials, members)))
        lt, m = factor.inverse_factors
        sample["λmin"] = seconds(lambda: adaptation._largest_eigenvalue(lambda v: lt @ (m @ v), members, k))
        solve = lambda v: factor.solve(v.reshape(k, 2, 1)).reshape(-1)  # noqa: E731
        sample["λmin loop"] = seconds(lambda: adaptation._largest_eigenvalue(solve, members, k))
        del factor, partials, lt, m
        if repeat:
            for name, value in sample.items():
                times[name].append(value)
    medians = {name: 1e3 * statistics.median(values) for name, values in times.items()}
    medians["lanczos"] = medians["λmax"] + (medians["build"] + medians["λmin"] if sparse else medians["λmin loop"])
    if "dense" in medians:
        medians["dense / lanczos"] = medians["dense"] / medians["lanczos"]
    return medians, sparse


def main() -> None:
    cases = [(f"grown k={k}", corpus.grown_tree(np.random.default_rng([k, 0]), k)) for k in GROWN]
    cases += [
        (f"caterpillar k={k}", caterpillar_tree(np.random.default_rng([k, 1]).uniform(0.3, 1.5, k + 1)))
        for k in CATERPILLARS
    ]
    print(f"{'tree':<19} {'blocks':>7} {'per point':>9} {'H^-1':>6}" + "".join(f" {name:>15}" for name in COLUMNS))
    for label, tree in cases:
        medians, sparse = time_tree(tree)
        blocks = tree.topology.plan.forest.path_blocks
        cells = "".join(f" {medians[name]:>15.3f}" if name in medians else f" {'-':>15}" for name in COLUMNS)
        kind = "sparse" if sparse else "loop"
        print(f"{label:<19} {blocks:>7} {blocks / tree.k:>9.1f} {kind:>6}" + cells, flush=True)
    print(f"milliseconds, median of {REPEATS} repeats; one BLAS thread")


if __name__ == "__main__":
    main()
