"""Print the per-metric ratios between two sides of BENCH files.

Usage (from the repository root):

    python3 tools/bench_compare.py BENCH_a.json[:side] BENCH_b.json[:side]

A BENCH file holds, per workload, pairs of ``bench/run.py --trace 0``
results for a ``parent`` and a ``child`` checkout; ``side`` picks one of the
two and defaults to ``child``. For every workload and end-to-end metric in
both, the script prints each side's median with its quartiles and the
ratio of the second median to the first. When both sides come from the same
file, it also counts the pairs (same seed) in which the second side is
better, in the direction ``BENCHMARK.json`` gives for the metric.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(spec: str) -> tuple[str, str, dict]:
    path, _, side = spec.partition(":")
    side = side or "child"
    if side not in ("parent", "child"):
        raise SystemExit(f"unknown side {side!r}: use parent or child")
    with open(path, encoding="utf-8") as fh:
        return path, side, json.load(fh)["runs"]


def values(runs: list[dict], side: str, metric: str) -> dict[int, float]:
    return {run["seed"]: run[side]["metrics"][metric]["value"] for run in runs if metric in run[side]["metrics"]}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, statistics.median(xs), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (path_a, side_a, runs_a), (path_b, side_b, runs_b) = load(argv[0]), load(argv[1])
    better = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}
    paired = path_a == path_b
    print(f"base {path_a}:{side_a}  new {path_b}:{side_b}")
    for workload in [w for w in runs_a if w in runs_b]:
        for metric in better:
            a, b = values(runs_a[workload], side_a, metric), values(runs_b[workload], side_b, metric)
            if not a or not b:
                continue
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            line = (
                f"{workload:16s} {metric:16s} base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  new/base {qb[1] / qa[1]:.4g}"
            )
            if paired:
                sign = 1 if better[metric] == "higher" else -1
                wins = sum(sign * (b[s] - a[s]) > 0 for s in a if s in b)
                line += f"  wins {wins}/{len(a.keys() & b.keys())}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
