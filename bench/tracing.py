"""Spans around the public functions of each package module, recorded from outside.

The benchmark never edits the package. While tracing it replaces each
listed function by a timing wrapper in every ``steineradapt`` module
namespace that binds it (``adaptation`` imports ``hessian_ss`` and friends
by name, so patching only the defining module would miss those calls),
and puts the originals back afterwards. Spans are kept in memory as
flat arrays, each with its op id and parent span, and written out once at
the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from array import array

# Layer (package module) -> public functions wrapped in it. "Class.name"
# entries are attributes of a class defined in that module.
LAYERS = {
    "trees": (
        "SteinerTree.from_arrays",
        "validate_topology",
        "steiner_forest_components",
        "check_geometric_conditions",
        "tree_length",
        "min_edge_length",
    ),
    "derivatives": ("hessian_ss", "mixed_ts", "BlockMatrix2.to_dense"),
    "adaptation": ("sensitivity_matrix", "first_order_delta_s", "health_metrics", "adapt_stepwise"),
    "exact": ("optimize_fixed_topology", "solve_exact", "enumerate_full_topologies", "canonical_encoding"),
    "documents": ("decode_instance", "decode_perturbation", "encode_report", "emit_trace"),
    "cli": ("run_cli",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["exact.optimize_fixed_topology.iterations"] = "count"
    units["exact.optimize_fixed_topology.unconverged"] = "count"
    units["documents.encode_report.bytes"] = "bytes"
    units["documents.emit_trace.bytes"] = "bytes"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Records spans of the ops run while its wrappers are installed.

    Installing and removing the wrappers rebinds module globals, which
    makes the interpreter drop its specialised lookups; callers therefore
    switch tracing on and off for blocks of ops, not around each op.
    """

    def __init__(self) -> None:
        self._op = -1
        self._stack: list[list[int]] = []  # [span index, child time in ns]
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.iterations = 0
        self.optimize_results = 0
        self.unconverged = 0
        self.report_bytes = 0
        self.trace_bytes = 0
        self.ops = 0
        self.op_ns = 0
        self._patches = self._build_patches()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name_id: int, fn, after=None):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:  # a call outside any traced op, e.g. from a check
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_op.append(self._op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_name.append(name_id)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                duration = t1 - t0
                self.calls[name_id] += 1
                self.self_ns[name_id] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result, args)
            return result

        return traced

    def _after_optimize(self, result, args) -> None:
        self.optimize_results += 1
        self.iterations += result.iterations
        self.unconverged += not result.converged

    def _after_encode_report(self, result, args) -> None:
        self.report_bytes += len(result.encode("utf-8"))

    def _after_emit_trace(self, result, args) -> None:
        target = args[1]  # a path when called from the command line
        if isinstance(target, (str, os.PathLike)):
            self.trace_bytes += os.path.getsize(target)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, replacement) for every binding to patch."""
        after = {
            "exact.optimize_fixed_topology": self._after_optimize,
            "documents.encode_report": self._after_encode_report,
            "documents.emit_trace": self._after_emit_trace,
        }
        patches = []
        for name_id, name in enumerate(SPAN_NAMES):
            layer, _, attr = name.partition(".")
            module = importlib.import_module(f"steineradapt.{layer}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrap(name_id, original.__func__, after.get(name)))
                else:
                    replacement = self._wrap(name_id, original, after.get(name))
                patches.append((cls, method, original, replacement))
                continue
            original = getattr(module, attr)
            replacement = self._wrap(name_id, original, after.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "steineradapt" and not mod_name.startswith("steineradapt."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, binding, original, replacement))
        return patches

    # -- op boundaries ------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place of the original functions."""
        for target, attr, _, replacement in self._patches:
            setattr(target, attr, replacement)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for target, attr, original, _ in self._patches:
            setattr(target, attr, original)
        self._stack.clear()

    def begin(self, op_id: int) -> None:
        """Spans recorded from now until :meth:`end` belong to op ``op_id``."""
        self._op = op_id

    def end(self, op_ns: int) -> None:
        """Count one traced op of ``op_ns`` wall time."""
        self._op = -1
        self.ops += 1
        self.op_ns += op_ns

    # -- results ------------------------------------------------------------

    def metrics(self, overhead: float) -> dict[str, float]:
        """Per-op means of every per-layer metric, plus coverage and ``overhead``."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name_id, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[name_id] / ops
            out[f"{name}.self_ms"] = self.self_ns[name_id] / 1e6 / ops
        out["exact.optimize_fixed_topology.iterations"] = (
            self.iterations / self.optimize_results if self.optimize_results else 0.0
        )
        out["exact.optimize_fixed_topology.unconverged"] = self.unconverged / ops
        out["documents.encode_report.bytes"] = self.report_bytes / ops
        out["documents.emit_trace.bytes"] = self.trace_bytes / ops
        out["trace.coverage"] = sum(self.self_ns) / self.op_ns if self.op_ns else 0.0
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as gzipped CSV: op, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for idx in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[idx]},{idx},{self.span_parent[idx]},{SPAN_NAMES[self.span_name[idx]]},"
                    f"{self.span_start[idx]},{self.span_end[idx]}\n"
                )
