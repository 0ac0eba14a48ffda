"""Property tests of the document decoders: a document is accepted or raises
``DocumentError``, never anything else, and solved trees survive a round trip.

Inputs are arbitrary JSON values, objects carrying each decoder's own keys
with arbitrary values, and valid instance and report documents whose
``edges`` entries are replaced, deleted, duplicated or extended.
"""

import functools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from steineradapt import DocumentError, Perturbation, StepPolicy, adapt_stepwise, solve_exact, validate_topology
from steineradapt.documents import decode_instance, decode_perturbation, decode_report, encode_instance, encode_report

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)
ROUND_TRIP = settings(max_examples=12, deadline=None, derandomize=True)

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
node_refs = st.sampled_from(["t0", "t1", "t3", "t9", "s0", "s1", "s2", "s9", "t01", "t-1", "x0", "t", "", "T0", " s0"])
edge_entries = st.lists(node_refs, min_size=2, max_size=2) | st.lists(node_refs, max_size=3) | json_values
DECODERS = {
    "instance": (decode_instance, ("terminals", "steiner", "edges")),
    "perturbation": (decode_perturbation, ("delta_t",)),
    "report": (decode_report, ("status", "initial", "steps", "final_tree")),
}


def accepted_or_document_error(decode, text: str):
    try:
        return decode(text)
    except DocumentError:
        return None


@functools.cache
def solved_instance_doc(n: int) -> dict:
    rng = np.random.default_rng(n)
    return json.loads(encode_instance(solve_exact(rng.uniform(0.0, 1.0, (n, 2))).tree))


@functools.cache
def report_doc() -> dict:
    rng = np.random.default_rng(11)
    tree = solve_exact(rng.uniform(0.0, 1.0, (5, 2))).tree
    report = adapt_stepwise(tree, Perturbation.from_pairs(rng.uniform(-0.01, 0.01, (5, 2))), StepPolicy(steps=2))
    return json.loads(encode_report(report))


@st.composite
def mutated_edges(draw, edges: list) -> list:
    edges = list(edges)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "append"]))
        idx = draw(st.integers(0, max(len(edges) - 1, 0)))
        if op == "append" or not edges:
            edges.append(draw(edge_entries))
        elif op == "replace":
            edges[idx] = draw(edge_entries)
        elif op == "delete":
            del edges[idx]
        else:
            edges.insert(idx, list(reversed(edges[idx])) if isinstance(edges[idx], list) else edges[idx])
    return edges


@FUZZ
@given(value=json_values)
def test_any_json_value_is_accepted_or_a_document_error(value):
    text = json.dumps(value)
    for decode, _ in DECODERS.values():
        accepted_or_document_error(decode, text)


@FUZZ
@given(data=st.data(), kind=st.sampled_from(sorted(DECODERS)))
def test_documents_with_their_own_keys_are_accepted_or_a_document_error(data, kind):
    decode, keys = DECODERS[kind]
    doc = data.draw(st.fixed_dictionaries({"format_version": st.just(1)}, optional={key: json_values for key in keys}))
    accepted_or_document_error(decode, json.dumps(doc))


@FUZZ
@given(data=st.data(), n=st.integers(3, 6))
def test_instances_with_mutated_edges_are_accepted_or_a_document_error(data, n):
    doc = dict(solved_instance_doc(n))
    doc["edges"] = data.draw(mutated_edges(doc["edges"]))
    tree = accepted_or_document_error(decode_instance, json.dumps(doc))
    if tree is not None:
        assert validate_topology(tree.topology).ok


@FUZZ
@given(data=st.data())
def test_reports_with_mutated_edges_are_accepted_or_a_document_error(data):
    doc = json.loads(json.dumps(report_doc()))
    doc["final_tree"]["edges"] = data.draw(mutated_edges(doc["final_tree"]["edges"]))
    accepted_or_document_error(decode_report, json.dumps(doc))


@ROUND_TRIP
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6))
def test_solved_trees_round_trip(seed, n):
    result = solve_exact(np.random.default_rng(seed).uniform(0.0, 1.0, (n, 2)))
    for tree in result.ties:
        assert decode_instance(encode_instance(tree)) == tree
