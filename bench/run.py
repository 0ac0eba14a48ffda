"""Closed-loop benchmark of the steineradapt package.

Usage (from the repository root):

    python3 bench/run.py --workload adapt-large --seed 1 --seconds 30 --trace 0

One caller in one process runs ops back to back, BLAS pinned to one
thread. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics. Each
metric gets its own row, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for the workloads and the metric definitions.
"""

import time

STARTED = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated this many times per run; setup_s takes the median.
SETUP_REPEATS = 3
# Fewest timed ops per run, so that ten samples lie beyond the 90th percentile.
MIN_OPS = 100
# A traced run alternates this many blocks of untraced and traced ops.
TRACE_BLOCKS = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
    "accuracy_ratio": "1",
}


class BenchmarkError(Exception):
    """The benchmark cannot run in this environment."""


def pin_blas_threads() -> dict[str, str]:
    """Pin every BLAS thread pool to one thread; only possible before numpy loads."""
    if "numpy" in sys.modules:
        raise BenchmarkError("numpy was imported before the BLAS thread count could be pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def import_package(root: str) -> None:
    """Import steineradapt from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "steineradapt")):
        raise BenchmarkError(f"no steineradapt package under {src}")
    sys.path.insert(0, src)
    import steineradapt

    if os.path.dirname(os.path.dirname(os.path.realpath(steineradapt.__file__))) != os.path.realpath(src):
        raise BenchmarkError(f"steineradapt was imported from {steineradapt.__file__}, not from {src}")


def measure(workload, seconds: float, tracer):
    """Run ops until ``seconds`` have passed and at least MIN_OPS ran.

    Returns per-op wall times (untraced and traced), accuracy samples, and
    failure counts by message. Only the op call itself is timed; inputs
    are prepared and outputs checked outside that interval. With a tracer,
    blocks of untraced and traced ops alternate, so that both halves see
    the same machine conditions.
    """
    plain, traced, samples = [], [], []
    failures: dict[str, int] = {}
    block_seconds = seconds / TRACE_BLOCKS
    tracing_on = False
    start = block_start = time.perf_counter()
    i = 0
    try:
        while (now := time.perf_counter()) - start < seconds or i < MIN_OPS:
            # switch only at even ops, so each block holds whole pure/corrected pairs
            if tracer is not None and i % 2 == 0 and now - block_start >= block_seconds:
                tracing_on = not tracing_on
                (tracer.install if tracing_on else tracer.uninstall)()
                block_start = now
            args = workload.prepare(i)
            if tracing_on:
                tracer.begin(i)
            error = None
            t0 = time.perf_counter_ns()
            try:
                result = workload.op(args)
            except Exception as e:  # an op that raises is a failed op, not a crashed run
                error = e
            elapsed = time.perf_counter_ns() - t0
            if tracing_on:
                tracer.end(elapsed)
                traced.append(elapsed)
            else:
                plain.append(elapsed)
            try:
                if error is not None:
                    raise error
                sample = workload.check(args, result)
            except Exception as e:
                key = f"{type(e).__name__}: {e}"[:300]
                failures[key] = failures.get(key, 0) + 1
            else:
                if sample is not None:
                    samples.append(sample)
            workload.release(args)
            i += 1
    finally:
        if tracing_on:
            tracer.uninstall()
    return plain, traced, samples, failures


def run(args, root: str, workdir: str, blas_env: dict[str, str]) -> dict:
    import machine
    import tracing
    import workloads

    imported = time.perf_counter()
    threads = machine.openblas_threads()
    if any(count != 1 for count in threads.values()):
        raise BenchmarkError(f"OpenBLAS is not single-threaded: {threads}")
    print("machine: " + json.dumps(machine.describe(root, workdir, blas_env), sort_keys=True))

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        records = workload.setup()
        setup_times.append(time.perf_counter() - t0)
    for record in records:
        print(f"corpus: {record}")
    setup_s = (imported - STARTED) + statistics.median(setup_times)

    # one untimed op so that lazy imports and first-call costs are paid
    warm = workload.prepare(-1)
    try:
        workload.check(warm, workload.op(warm))
    except Exception as e:  # the timed ops count and report failures
        print(f"warm-up op failed: {type(e).__name__}: {e}")
    workload.release(warm)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, samples, failures = measure(workload, args.seconds, tracer)
    attempted = len(plain) + len(traced)
    failed = sum(failures.values())
    for message, count in failures.items():
        print(f"failed {count}x: {message}")

    if tracer is not None:
        overhead = (sum(traced) / len(traced)) / (sum(plain) / len(plain))
        values = tracer.metrics(overhead)
        units = tracing.per_layer_units()
        spans = os.path.join(os.path.dirname(workdir), f"spans-{args.workload}-seed{args.seed}.csv.gz")
        if os.path.exists(spans):
            os.unlink(spans)
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.span_start)} written to {os.path.relpath(spans, root)}")
    else:
        if not samples:
            raise BenchmarkError("no op passed its checks, so there is no accuracy to report")
        lat_ms = [ns / 1e6 for ns in plain]
        values = {
            "setup_s": setup_s,
            "ops_per_s": (attempted - failed) / (sum(plain) / 1e9),
            "latency_ms_p50": statistics.median(lat_ms),
            "latency_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_ratio": statistics.median(ratio for ratio, _ in samples),
        }
        units = END_TO_END

    print(f"{args.workload:16s} {'attempted':42s} {attempted}")
    print(f"{args.workload:16s} {'failed_ratio':42s} {failed / attempted:.6g}")
    residuals = [residual for _, residual in samples if residual is not None]
    if residuals:
        print(f"{args.workload:16s} {'first_order_residual':42s} {statistics.median(residuals):.6g}")
    for name, value in values.items():
        print(f"{args.workload:16s} {name:42s} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("adapt-large", "adapt-cli-small", "solve-n6"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        blas_env = pin_blas_threads()
        import_package(root)
    except (BenchmarkError, ImportError) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(root, ".bench_run", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, root, workdir, blas_env)
    except BenchmarkError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
