"""Structured-text documents: instances, perturbations, run reports, traces.

All documents are JSON objects carrying ``format_version: 1``. Unknown
fields are rejected so that typos fail loudly. Numbers are emitted with
Python's shortest round-tripping representation, so encode/decode cycles
are lossless. Node references in edge lists are strings like ``"t0"`` and
``"s2"``. Encoders write one line of compact JSON; the decoders accept any
whitespace, so indented documents decode alike.
"""

from __future__ import annotations

import json
import math
import re
from typing import Sequence

import numpy as np

from .adaptation import AdaptationReport, AdaptationStatus, HealthReport, Perturbation, StepRecord
from .errors import DocumentError
from .trees import Point2, SteinerTopology, SteinerTree, validate_topology

FORMAT_VERSION = 1

_NODE_REF_RE = re.compile(r"([ts])(0|[1-9][0-9]*)")
_INSTANCE_KEYS = {"format_version", "terminals", "steiner", "edges"}
_PERTURBATION_KEYS = {"format_version", "delta_t"}
_REPORT_KEYS = {"format_version", "status", "initial", "steps", "final_tree"}


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    return doc


def _check_version_and_keys(doc: dict, allowed: set[str]) -> None:
    if "format_version" not in doc:
        raise DocumentError("missing field 'format_version'")
    # type check first: JSON true would otherwise equal 1
    if type(doc["format_version"]) is not int or doc["format_version"] != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version: {doc['format_version']!r}")
    for key in doc:
        if key not in allowed:
            raise DocumentError(f"unknown field '{key}'")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(raw, name: str) -> np.ndarray:
    """``raw``, already checked to hold only numbers, as a float array of finite values."""
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError as e:
        raise DocumentError(f"'{name}': {e}") from e
    if not np.isfinite(arr).all():
        raise DocumentError(f"'{name}' must hold only finite numbers")
    return arr


def _number(raw, name: str) -> float:
    if not _is_number(raw):
        raise DocumentError(f"'{name}' must be a number")
    return float(_finite(raw, name))


def _number_list(raw, name: str) -> np.ndarray:
    if not (isinstance(raw, list) and all(_is_number(v) for v in raw)):
        raise DocumentError(f"'{name}' must be a list of numbers")
    return _finite(raw, name)


def _object(raw, name: str, fields: tuple[str, ...]) -> dict:
    if not isinstance(raw, dict):
        raise DocumentError(f"'{name}' must be an object")
    for key in fields:
        if key not in raw:
            raise DocumentError(f"'{name}' is missing field '{key}'")
    return raw


def _decode_positions(raw, name: str) -> np.ndarray:
    """An (m, 2) array of finite coordinates from a list of [x, y] pairs."""
    if not isinstance(raw, list):
        raise DocumentError(f"'{name}' must be a list of [x, y] pairs")
    for idx, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2 and all(_is_number(v) for v in item)):
            raise DocumentError(f"'{name}[{idx}]' must be a pair of numbers")
    return _finite(raw, name).reshape(-1, 2)


def _decode_edges(raw, n: int, k: int) -> SteinerTopology:
    if not isinstance(raw, list):
        raise DocumentError("'edges' must be a list of two-element node references")
    pairs = set()
    for idx, item in enumerate(raw):
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(v, str) for v in item)):
            raise DocumentError(f"'edges[{idx}]' must be a pair of node reference strings")
        ends = []
        for ref in item:
            m = _NODE_REF_RE.fullmatch(ref)
            if m is None:
                raise DocumentError(f"'edges[{idx}]': malformed node reference {ref!r}")
            kind, index = m.group(1), int(m.group(2))
            bound = n if kind == "t" else k
            if index >= bound:
                raise DocumentError(f"'edges[{idx}]': index out of range: {ref!r}")
            ends.append(index if kind == "t" else n + index)
        pair = tuple(sorted(ends))
        if pair in pairs:
            raise DocumentError(f"'edges[{idx}]': repeated edge {item[0]}-{item[1]}")
        pairs.add(pair)
    return SteinerTopology.from_node_pairs(n, k, pairs)


def decode_instance(text: str) -> SteinerTree | list[Point2]:
    """Decode an instance document.

    Returns a :class:`SteinerTree` when the document carries edges, and a
    plain list of terminal positions otherwise.
    """
    doc = _load_object(text)
    _check_version_and_keys(doc, _INSTANCE_KEYS)
    if "terminals" not in doc:
        raise DocumentError("missing field 'terminals'")
    terminals = _decode_positions(doc["terminals"], "terminals")
    if not len(terminals):
        raise DocumentError("'terminals' must not be empty")

    if "edges" not in doc:
        if "steiner" in doc:
            raise DocumentError("'edges' is required when 'steiner' is present")
        return [Point2(x, y) for x, y in terminals.tolist()]

    steiner = _decode_positions(doc.get("steiner", []), "steiner")
    return _decode_tree(terminals, steiner, doc["edges"])


def _decode_tree(terminals: np.ndarray, steiner: np.ndarray, raw_edges) -> SteinerTree:
    """The tree on decoded positions and raw edges, which must form a valid topology."""
    topology = _decode_edges(raw_edges, n=len(terminals), k=len(steiner))
    validation = validate_topology(topology)
    if not validation.ok:
        raise DocumentError("invalid tree: " + "; ".join(validation.violations))
    return SteinerTree(topology, terminals, steiner)


def _dump(doc: dict) -> str:
    """``doc`` as one line of standard JSON. Without indentation ``json`` runs its
    C encoder, several times faster on a report than the indented Python one."""
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def _tree_payload(tree: SteinerTree) -> dict:
    return {
        "terminals": tree.terminal_positions.tolist(),
        "steiner": tree.steiner_positions.tolist(),
        "edges": [[str(a), str(b)] for a, b in tree.topology.all_edges()],
    }


def encode_instance(obj: SteinerTree | Sequence[Point2]) -> str:
    if isinstance(obj, SteinerTree):
        doc = {"format_version": FORMAT_VERSION, **_tree_payload(obj)}
    else:
        doc = {"format_version": FORMAT_VERSION, "terminals": [[p.x, p.y] for p in obj]}
    return _dump(doc)


def decode_perturbation(text: str, expected_n: int | None = None) -> Perturbation:
    """Decode a perturbation document of per-terminal [dx, dy] pairs."""
    doc = _load_object(text)
    _check_version_and_keys(doc, _PERTURBATION_KEYS)
    if "delta_t" not in doc:
        raise DocumentError("missing field 'delta_t'")
    pairs = _decode_positions(doc["delta_t"], "delta_t")
    if expected_n is not None and len(pairs) != expected_n:
        raise DocumentError(f"'delta_t' has {len(pairs)} pairs but the instance has {expected_n} terminals")
    return Perturbation.from_pairs(pairs)


def encode_perturbation(p: Perturbation) -> str:
    pairs = p.delta_t.reshape(-1, 2)
    doc = {"format_version": FORMAT_VERSION, "delta_t": [[float(dx), float(dy)] for dx, dy in pairs]}
    return _dump(doc)


def _health_payload(health: HealthReport) -> dict:
    condition = health.hessian_condition
    return {
        "min_edge_length": health.min_edge_length,
        "max_steiner_angle_deviation": health.max_steiner_angle_deviation,
        # standard JSON has no infinity; an infinite condition is written as null
        "hessian_condition": condition if math.isfinite(condition) else None,
        "positive_definite": health.positive_definite,
    }


def _health_from_payload(raw, name: str) -> HealthReport:
    fields = ("min_edge_length", "max_steiner_angle_deviation", "hessian_condition", "positive_definite")
    raw = _object(raw, name, fields)
    if not isinstance(raw["positive_definite"], bool):
        raise DocumentError(f"'{name}.positive_definite' must be true or false")
    condition = raw["hessian_condition"]
    return HealthReport(
        min_edge_length=_number(raw["min_edge_length"], f"{name}.min_edge_length"),
        max_steiner_angle_deviation=_number(raw["max_steiner_angle_deviation"], f"{name}.max_steiner_angle_deviation"),
        hessian_condition=math.inf if condition is None else _number(condition, f"{name}.hessian_condition"),
        positive_definite=raw["positive_definite"],
    )


def _tree_from_payload(raw, name: str) -> SteinerTree:
    raw = _object(raw, name, ("terminals", "steiner", "edges"))
    terminals = _decode_positions(raw["terminals"], f"{name}.terminals")
    steiner = _decode_positions(raw["steiner"], f"{name}.steiner")
    return _decode_tree(terminals, steiner, raw["edges"])


def encode_report(report: AdaptationReport) -> str:
    """Machine-readable mirror of a stepwise run, losslessly round-trippable, in standard JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "status": report.status.value,
        "initial": {
            "tree": _tree_payload(report.initial_tree),
            "health": _health_payload(report.initial_health),
            "length": report.initial_length,
        },
        "steps": [
            {
                "index": rec.index,
                "delta_t": [float(v) for v in rec.delta_t_fragment],
                "delta_s": [float(v) for v in rec.delta_s],
                "tree": _tree_payload(rec.tree),
                "health": _health_payload(rec.health),
                "length": rec.tree_length,
            }
            for rec in report.steps
        ],
        "final_tree": _tree_payload(report.final_tree),
    }
    return _dump(doc)


def decode_report(text: str) -> AdaptationReport:
    doc = _load_object(text)
    _check_version_and_keys(doc, _REPORT_KEYS)
    for key in ("status", "initial", "steps", "final_tree"):
        if key not in doc:
            raise DocumentError(f"missing field '{key}'")
    try:
        status = AdaptationStatus(doc["status"])
    except ValueError as e:
        raise DocumentError(f"unknown status {doc['status']!r}") from e
    initial = _object(doc["initial"], "initial", ("tree", "health", "length"))
    if not isinstance(doc["steps"], list):
        raise DocumentError("'steps' must be a list")
    records = []
    for idx, raw in enumerate(doc["steps"]):
        name = f"steps[{idx}]"
        raw = _object(raw, name, ("index", "delta_t", "delta_s", "tree", "health", "length"))
        if type(raw["index"]) is not int:
            raise DocumentError(f"'{name}.index' must be an integer")
        records.append(
            StepRecord(
                index=raw["index"],
                delta_t_fragment=_number_list(raw["delta_t"], f"{name}.delta_t"),
                delta_s=_number_list(raw["delta_s"], f"{name}.delta_s"),
                tree=_tree_from_payload(raw["tree"], f"{name}.tree"),
                health=_health_from_payload(raw["health"], f"{name}.health"),
                tree_length=_number(raw["length"], f"{name}.length"),
            )
        )
    return AdaptationReport(
        initial_tree=_tree_from_payload(initial["tree"], "initial.tree"),
        initial_health=_health_from_payload(initial["health"], "initial.health"),
        initial_length=_number(initial["length"], "initial.length"),
        steps=tuple(records),
        final_tree=_tree_from_payload(doc["final_tree"], "final_tree"),
        status=status,
    )


def emit_trace(report: AdaptationReport, target) -> None:
    """Write the per-step trajectory as comma-separated text for plotting.

    One row per configuration (the starting tree first), with columns:
    step index, Euclidean norm of the cumulative applied terminal
    displacement, tree length, minimum edge length, maximum Steiner angle
    deviation in degrees, Hessian condition number, then the flattened
    Steiner coordinates. ``target`` is a path or a writable file object.
    """
    k = report.initial_tree.k
    header = [
        "step",
        "cum_delta_t_norm",
        "tree_length",
        "min_edge_length",
        "max_angle_deviation_deg",
        "hessian_condition",
    ]
    for i in range(k):
        header += [f"s{i}_x", f"s{i}_y"]

    def row(step: int, cum_norm: float, length: float, health: HealthReport, tree: SteinerTree) -> str:
        values = [
            str(step),
            repr(float(cum_norm)),
            repr(float(length)),
            repr(float(health.min_edge_length)),
            repr(math.degrees(health.max_steiner_angle_deviation)),
            repr(float(health.hessian_condition)),
        ]
        values += [repr(float(v)) for v in tree.s_vector()]
        return ",".join(values)

    lines = [",".join(header)]
    lines.append(row(0, 0.0, report.initial_length, report.initial_health, report.initial_tree))
    cumulative = np.zeros(2 * report.initial_tree.n)
    for rec in report.steps:
        cumulative = cumulative + rec.delta_t_fragment
        lines.append(row(rec.index, float(np.linalg.norm(cumulative)), rec.tree_length, rec.health, rec.tree))
    text = "\n".join(lines) + "\n"

    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
