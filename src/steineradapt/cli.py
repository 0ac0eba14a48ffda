"""Command-line interface.

Exit statuses: 0 for success or a true verdict, 1 for validation failures
or a false verdict, 2 for numerical aborts (ill-conditioning, degenerate
edges, non-convergence), 3 for usage errors. Diagnostics go to stderr;
data goes only to the requested output targets.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import documents, exact
from .adaptation import (
    AdaptationMode,
    AdaptationStatus,
    StepPolicy,
    adapt_stepwise,
    sensitivity_matrix,
)
from .derivatives import cost, gradient_s, hessian_ss, mixed_ts
from .errors import ConvergenceError, DegenerateEdgeError, DocumentError, IllConditionedError, UsageError
from .trees import SteinerTree, check_geometric_conditions, validate_topology


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="steineradapt", description="Adapt Steiner trees to moved terminals.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("adapt", help="apply a perturbation with first-order steps")
    p.add_argument("--instance", required=True, help="instance file with a full tree")
    p.add_argument("--delta", required=True, help="perturbation file")
    sizing = p.add_mutually_exclusive_group()
    sizing.add_argument("--steps", type=int, help="split the perturbation into this many equal steps")
    sizing.add_argument("--max-step", type=float, dest="max_step", help="cap per-step terminal displacement (infinity norm)")
    p.add_argument("--mode", choices=["pure", "corrected"], default="pure")
    p.add_argument("--out", required=True, help="report output file")
    p.add_argument("--trace", help="optional per-step trace (CSV)")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("solve", help="exact solve of a terminals-only instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle-optimize", help="re-optimize Steiner positions for a fixed topology")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grad-tol", type=float, default=1e-10, dest="grad_tol")
    p.set_defaults(func=_cmd_oracle_optimize)

    p = sub.add_parser("check", help="validate a tree and its meeting angles")
    p.add_argument("--instance", required=True)
    p.add_argument("--angle-tol", type=float, default=1e-6, dest="angle_tol")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("derivatives", help="dump cost, gradient, Hessian, mixed partial and sensitivity")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_derivatives)

    p = sub.add_parser("compare", help="topology equality up to Steiner relabeling")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run_cli`, built once per process: parsing does not change it."""
    return build_parser()


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _require_tree(decoded, path: str) -> SteinerTree:
    if not isinstance(decoded, SteinerTree):
        raise DocumentError(f"{path}: instance must carry steiner points and edges for this command")
    return decoded


def _cmd_adapt(args) -> int:
    tree = _require_tree(documents.decode_instance(_read(args.instance)), args.instance)
    delta = documents.decode_perturbation(_read(args.delta), expected_n=tree.n)
    policy = StepPolicy(
        steps=args.steps,
        max_step_norm=args.max_step,
        mode=AdaptationMode(args.mode),
    )
    report = adapt_stepwise(tree, delta, policy)
    _write(args.out, documents.encode_report(report))
    if args.trace:
        documents.emit_trace(report, args.trace)
    if report.status is not AdaptationStatus.COMPLETED:
        print(f"adaptation aborted: {report.status.value}", file=sys.stderr)
        return 2
    return 0


def _cmd_solve(args) -> int:
    decoded = documents.decode_instance(_read(args.instance))
    if isinstance(decoded, SteinerTree):
        raise DocumentError(f"{args.instance}: solve expects a terminals-only instance")
    result = exact.solve_exact(decoded)
    _write(args.out, documents.encode_instance(result.tree))
    return 0


def _cmd_oracle_optimize(args) -> int:
    tree = _require_tree(documents.decode_instance(_read(args.instance)), args.instance)
    result = exact.optimize_fixed_topology(
        tree.terminal_positions, tree.topology, tree.steiner_positions, grad_tol=args.grad_tol
    )
    _write(args.out, documents.encode_instance(result.tree))
    if not result.converged:
        print(f"optimizer did not converge: residual {result.gradient_norm:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    decoded = documents.decode_instance(_read(args.instance))
    if not isinstance(decoded, SteinerTree):
        print("topology: missing (terminals-only instance)")
        return 1
    validation = validate_topology(decoded.topology)
    if not validation.ok:
        print("topology: invalid")
        for violation in validation.violations:
            print(f"  - {violation}")
        return 1
    print("topology: ok")
    report = check_geometric_conditions(decoded, angle_tol=args.angle_tol)
    print(f"min_edge_length: {report.min_edge_length!r}")
    print(f"max_steiner_angle_deviation_rad: {report.max_steiner_angle_deviation!r}")
    print(f"min_pairwise_angle_rad: {report.min_pairwise_angle!r}")
    print(f"satisfies_angle_condition: {'true' if report.satisfies_angle_condition else 'false'}")
    return 0 if report.satisfies_angle_condition else 1


def _cmd_derivatives(args) -> int:
    tree = _require_tree(documents.decode_instance(_read(args.instance)), args.instance)
    payload = {
        "format_version": documents.FORMAT_VERSION,
        "cost": cost(tree),
        "gradient_s": [float(v) for v in gradient_s(tree)],
        "hessian_ss": hessian_ss(tree).to_dense().tolist(),
        "mixed_ts": mixed_ts(tree).to_dense().tolist(),
        "sensitivity": sensitivity_matrix(tree).tolist(),
    }
    _write(args.out, documents._dump(payload))
    return 0


def _cmd_compare(args) -> int:
    tree_a = _require_tree(documents.decode_instance(_read(args.a)), args.a)
    tree_b = _require_tree(documents.decode_instance(_read(args.b)), args.b)
    equal = exact.compare_topologies(tree_a.topology, tree_b.topology)
    print("equal" if equal else "different")
    return 0 if equal else 1


def run_cli(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except DocumentError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 1
    except (ConvergenceError, DegenerateEdgeError, IllConditionedError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
