"""Fingerprint the exact solver's output, bit for bit.

Usage (from the root of any checkout):

    python3 tools/exact_digest.py

The script imports the ``src/`` next to it and prints two SHA-256 digests
per corpus. The first covers every byte of every result: two checkouts
whose solvers agree bitwise print the same one, and a single differing bit
changes it. The second, the combinatorial digest, covers only the discrete
outcome: which topologies win and tie, and how each minimization went. A
change that moves only low bits leaves it equal, so it is the tolerance
oracle for such a change.

- ``solve_exact``: criterion 6's 1000 instances (``default_rng(7003)``, 400,
  300, 200 and 100 uniform instances at n = 3, 4, 5, 6), then the unit
  square, the regular pentagon and hexagon (co-optimal ties) and a nearly
  collinear triangle. Hashed: the length, and every tie's edge sets and
  Steiner-position bytes. Combinatorial: every tie's canonical encoding.
- ``solve_exact degenerate``: n = 6 inputs that strain the solver's
  tolerances: 30 nearly collinear sets, 30 sets in two or three tight
  clusters, 20 lattice patches with co-optimal ties, 40 uniform sets offset
  by 1e4, and the regular hexagon. Hashed like ``solve_exact``.
- ``optimize_fixed_topology``: 60 runs on uniform instances with a random
  full topology and a random start, then the crossing topology on the unit
  square, whose optimum merges two free Steiner points. Hashed: the
  positions, ``gradient_norm``, ``iterations``, ``collapsed_edges`` and
  ``converged``. Combinatorial: ``converged`` and ``collapsed_edges`` only,
  so a change that moves only iteration counts keeps it; the summed
  ``iterations`` are printed beside it.

A solve that raises is hashed, in both digests, by its exception's type and
message. After each solve corpus's digests the script prints the search's
summed ``minimized``, ``bounded``, ``pruned``, ``unconverged`` and
``certified`` counts, the corpus's wall time and its slowest single solve
(the input's index in the corpus and its seconds), so a stall shows without
a profiler. It also prints the corpus's summed solver work: calls of the
reweighted step (``exact._irls_step``, one per step of a stack of networks),
of the Newton Hessian assembly (``exact._hessian``), and of the Newton
burst (``exact._newton``), all of them and those that return unconverged.
These counts are exact, so they compare two solvers' work where wall time
is too noisy. All of this stays outside the hashes.
"""

import contextlib
import hashlib
import math
import os
import struct
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from steineradapt import exact  # noqa: E402
from steineradapt import (  # noqa: E402
    SteinerTopology,
    canonical_encoding,
    enumerate_full_topologies,
    optimize_fixed_topology,
    solve_exact,
)

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def regular_polygon(n: int) -> list[tuple[float, float]]:
    return [(math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n)) for i in range(n)]


def solve_instances() -> list:
    rng = np.random.default_rng(7003)
    instances = [rng.uniform(0.0, 1.0, (n, 2)) for n, count in ((3, 400), (4, 300), (5, 200), (6, 100)) for _ in range(count)]
    return instances + [SQUARE, regular_polygon(5), regular_polygon(6), [(0.0, 0.0), (2.0, 0.0), (1.0, 0.05)]]


def degenerate_instances() -> list:
    rng = np.random.default_rng(6006)
    collinear = [np.column_stack((rng.uniform(0.0, 1.0, 6), rng.uniform(-1e-3, 1e-3, 6))) for _ in range(30)]
    clustered = [
        np.resize(rng.uniform(0.0, 1.0, (clusters, 2)), (6, 2)) + rng.normal(0.0, 1e-3, (6, 2))
        for clusters in (2, 3)
        for _ in range(15)
    ]
    lattice = [
        [(i * dx + (j % 2) * shear, j * dy) for j in range(rows) for i in range(6 // rows)]
        for rows in (2, 3)
        for dx, dy, shear in ((1.0, 1.0, 0.0), (1.0, 0.5, 0.0), (1.0, 2.0, 0.0), (1.0, 0.8, 0.0), (1.0, 1.2, 0.0),
                              (1.0, math.sqrt(3) / 2, 0.5), (1.0, 1.0, 0.5), (2.0, 1.0, 0.0), (1.0, 0.1, 0.0),
                              (0.3, 1.0, 0.15))
    ]
    offset = [rng.uniform(0.0, 1.0, (6, 2)) + 1e4 for _ in range(40)]
    return collinear + clustered + lattice + offset + [regular_polygon(6)]


def optimize_runs() -> list:
    rng = np.random.default_rng(9001)
    runs = []
    for _ in range(60):
        n = int(rng.integers(3, 7))
        topologies = enumerate_full_topologies(n)
        topology = topologies[int(rng.integers(len(topologies)))]
        runs.append((rng.uniform(0.0, 1.0, (n, 2)), topology, rng.uniform(-0.5, 1.5, (n - 2, 2))))
    crossing = SteinerTopology(n=4, k=2, edges_TS={(0, 0), (2, 0), (1, 1), (3, 1)}, edges_S={(0, 1)})
    return runs + [(SQUARE, crossing, [(0.3, 0.4), (0.7, 0.6)])]


def edge_bytes(topology: SteinerTopology) -> bytes:
    return repr((sorted(topology.edges_T), sorted(topology.edges_TS), sorted(topology.edges_S))).encode()


WORK = ("minimized", "bounded", "pruned", "unconverged", "certified")
# solver functions whose calls are counted, by the label they are printed under,
# with the test a call's result must pass to count (None: every call counts)
COUNTED = {
    "reweighted_steps": ("_irls_step", None),
    "newton_hessians": ("_hessian", None),
    "newton_bursts": ("_newton", None),
    "newton_failed": ("_newton", lambda result: not result[3]),
}


@contextlib.contextmanager
def counting_calls(calls: dict):
    """Count, under each label of ``COUNTED``, the calls of its function in ``exact`` that pass its test."""
    originals = {name: getattr(exact, name) for name, _ in COUNTED.values()}

    def counter(name: str, original):
        tests = [(label, test) for label, (counted_name, test) in COUNTED.items() if counted_name == name]

        def counted(*args):
            result = original(*args)
            for label, test in tests:
                calls[label] += test is None or test(result)
            return result

        return counted

    for name, original in originals.items():
        setattr(exact, name, counter(name, original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(exact, name, original)


def solve_digest(instances: list) -> tuple[int, str, str, str]:
    digest, combinatorial = hashlib.sha256(), hashlib.sha256()
    work = dict.fromkeys(WORK, 0)
    calls = dict.fromkeys(COUNTED, 0)
    start = time.perf_counter()
    slowest = (0.0, -1)
    for index, terminals in enumerate(instances):
        began = time.perf_counter()
        try:
            with counting_calls(calls):
                result = solve_exact(terminals)
        except (ValueError, RuntimeError) as error:
            digest.update(repr(error).encode())
            combinatorial.update(repr(error).encode())
            continue
        finally:
            slowest = max(slowest, (time.perf_counter() - began, index))
        for name in WORK:
            work[name] += getattr(result, name)
        digest.update(struct.pack("<d", result.length))
        for tie in result.ties:
            digest.update(edge_bytes(tie.topology))
            digest.update(tie.steiner_positions.tobytes())
        combinatorial.update(repr([canonical_encoding(tie.topology) for tie in result.ties]).encode())
    summary = " ".join(f"{name} {count}" for name, count in {**work, **calls}.items())
    wall = f"in {time.perf_counter() - start:.1f} s, slowest input {slowest[1]} in {slowest[0]:.3f} s"
    return len(instances), digest.hexdigest(), combinatorial.hexdigest(), f"{summary} {wall}"


def optimize_digest() -> tuple[int, str, str, str]:
    digest, combinatorial = hashlib.sha256(), hashlib.sha256()
    runs = optimize_runs()
    iterations = 0
    for terminals, topology, start in runs:
        result = optimize_fixed_topology(terminals, topology, start)
        collapsed = repr(sorted((str(a), str(b)) for a, b in result.collapsed_edges)).encode()
        digest.update(result.tree.steiner_positions.tobytes())
        digest.update(struct.pack("<dq?", result.gradient_norm, result.iterations, result.converged))
        digest.update(collapsed)
        combinatorial.update(struct.pack("<?", result.converged))
        combinatorial.update(collapsed)
        iterations += result.iterations
    return len(runs), digest.hexdigest(), combinatorial.hexdigest(), f"iterations {iterations}"


def main() -> None:
    corpora = (
        ("solve_exact", lambda: solve_digest(solve_instances())),
        ("solve_exact degenerate", lambda: solve_digest(degenerate_instances())),
        ("optimize_fixed_topology", optimize_digest),
    )
    for name, compute in corpora:
        count, hexdigest, combinatorial, summary = compute()
        print(f"{name:<24} {count:>5} results  sha256 {hexdigest}")
        print(f"{'':<24} combinatorial  sha256 {combinatorial}")
        print(f"{'':<24} {summary}", flush=True)


if __name__ == "__main__":
    main()
