"""The loader's schema errors on space documents, pinned:
`tests/golden/space_errors.json`.

Each input is a model document with one or more faults in its `prob`
part (and a few in `access` and `relations`, whose error locations are
built the same way).  A case records the first `SchemaError` message
`load_model` raises, or, for a document that loads, its rows: `names`,
`pred`, `spaces` and `strays`.  Several cases put two faults in one
space, or the same weights in two spaces, so the order in which the
checks run, and what the loader keeps between spaces, are pinned too.

Regenerate (only when a message is meant to change):

    PYTHONPATH=src python tests/test_space_errors.py
"""

import json
from pathlib import Path

import pytest

from pckfo.errors import SchemaError
from pckfo.parser import load_model

GOLDEN = Path(__file__).resolve().parent / "golden" / "space_errors.json"

WHOLE = ["s0", "s1", "s2"]
HALVES = {"0": "1/2", "1": "1/2"}


def _space(sample, atoms, weights):
    return {"sample": sample, "atoms": atoms, "weights": weights}


def _doc(**per_state):
    """States s0-s2, agents a and b; agent b has a good space at s0, and
    agent a the spaces given, keyed by state."""
    return {"states": ["s2", "s0", "s1"], "domain": ["d0"],
            "agents": ["b", "a"],
            "relations": [{"symbol": "p", "arity": 0,
                           "table": {"s0": [[]]}}],
            "access": {"a": [["s0", "s1"], ["s1", "s2"]]},
            "prob": {"b": {"s0": _space(["s0", "s1"], [["s0"], ["s1"]],
                                        HALVES)},
                     "a": per_state}}


def _at_s1(space):
    """Agent a's space at s1 is the one given, after a good one at s0."""
    return _doc(s0=_space(["s0", "s1"], [["s0"], ["s1"]], HALVES),
                s1=space)


def _weights(*values):
    return {str(k): v for k, v in enumerate(values)}


def _cases():
    two = ["s0", "s1"]
    pair = [["s0"], ["s1"]]
    cases = {
        # sample
        "sample-missing": _at_s1({"atoms": pair, "weights": HALVES}),
        "sample-string": _at_s1(_space("s0", pair, HALVES)),
        "sample-object": _at_s1(_space({"s0": 1}, pair, HALVES)),
        "sample-null": _at_s1(_space(None, pair, HALVES)),
        "sample-int-member": _at_s1(_space(["s0", 5], pair, HALVES)),
        "sample-null-member": _at_s1(_space(["s0", None], pair, HALVES)),
        "sample-list-member": _at_s1(_space(["s0", ["s1"]], pair, HALVES)),
        "sample-unknown-name": _at_s1(_space(["s0", "zz"], [["s0"], ["zz"]],
                                             HALVES)),
        "sample-unknown-default-atoms": _at_s1(
            {"sample": ["zz", "s0"], "weights": HALVES}),
        "sample-repeated": _at_s1({"sample": ["s1", "s0", "s1"],
                                   "weights": _weights("1/4", "1/4", "1/2")}),
        "sample-empty": _at_s1({"sample": [], "weights": {}}),
        # atoms
        "atoms-string": _at_s1(_space(two, "s0", HALVES)),
        "atoms-object": _at_s1(_space(two, {"s0": 1}, HALVES)),
        "atoms-null": _at_s1(_space(two, None, HALVES)),
        "atom-string": _at_s1(_space(two, ["s0", "s1"], HALVES)),
        "atom-object": _at_s1(_space(two, [{"s0": 1}, ["s1"]], HALVES)),
        "atom-null": _at_s1(_space(two, [["s0"], None], HALVES)),
        "atom-int-member": _at_s1(_space(two, [["s0", 5], ["s1"]], HALVES)),
        "atom-null-member": _at_s1(_space(two, [["s0"], [None]], HALVES)),
        "atom-list-member": _at_s1(_space(two, [["s0", ["s1"]]], HALVES)),
        "atom-bool-member": _at_s1(_space(two, [[True], ["s1"]], HALVES)),
        "atom-unknown-name": _at_s1(_space(two, [["s0"], ["s1", "zz"]],
                                           HALVES)),
        "atoms-out-of-order": _at_s1(_space(WHOLE, [["s2"], ["s0"], ["s1"]],
                                            _weights("1/2", "1/3", "1/6"))),
        "atoms-pairs-out-of-order": _at_s1(_space(
            WHOLE, [["s2", "s1"], ["s0"]], _weights("1/3", "2/3"))),
        "atoms-tied-low-bits": _at_s1(_space(
            WHOLE, [["s0", "s2"], ["s0", "s1"]], _weights("1/3", "2/3"))),
        "atoms-empty": _at_s1(_space(two, [[], ["s1"], ["s0"]],
                                     _weights("0", "1/2", "1/2"))),
        "atoms-outside-sample": _at_s1(_space(["s0"], [["s0"], ["s2"]],
                                              HALVES)),
        # weights
        "weights-missing": _at_s1({"sample": two, "atoms": pair}),
        "weights-list": _at_s1(_space(two, pair, ["1/2", "1/2"])),
        "weights-string": _at_s1(_space(two, pair, "1/2")),
        "weights-null": _at_s1(_space(two, pair, None)),
        "weight-key-missing": _at_s1(_space(two, pair, {"0": "1"})),
        "weight-key-padded": _at_s1(_space(two, pair,
                                           {"00": "1/2", "1": "1/2"})),
        "weight-key-extra": _at_s1(_space(two, pair, _weights(
            "1/2", "1/2", "0"))),
        "weight-float": _at_s1(_space(two, pair, _weights(0.5, "1/2"))),
        "weight-float-one": _at_s1(_space(two, pair, _weights("0", 1.0))),
        "weight-true": _at_s1(_space(two, pair, _weights(True, "0"))),
        "weight-false": _at_s1(_space(two, pair, _weights("1", False))),
        "weight-null": _at_s1(_space(two, pair, _weights(None, "1"))),
        "weight-list": _at_s1(_space(two, pair, _weights(["1"], "0"))),
        "weight-object": _at_s1(_space(two, pair, _weights({}, "0"))),
        "weight-bad-text": _at_s1(_space(two, pair, _weights("1/2", "half"))),
        "weight-zero-denominator": _at_s1(_space(two, pair,
                                                 _weights("1/0", "1"))),
        "weight-empty-text": _at_s1(_space(two, pair, _weights("", "1"))),
        "weight-nan": _at_s1(_space(two, pair, _weights("nan", "1"))),
        "weight-integers": _at_s1(_space(two, pair, _weights(1, 0))),
        "weight-texts-spaced": _at_s1(_space(two, pair,
                                             _weights(" 1/2", "0.5 "))),
        "weight-negative": _at_s1(_space(two, pair, _weights("-1/2", "3/2"))),
        "weight-keys-out-of-order": _at_s1(_space(
            two, pair, {"1": "3/4", "0": "1/4"})),
        # two faults in one space: the first check to run reports
        "sample-bad-and-weights-missing": _at_s1(
            {"sample": ["s0", 5], "atoms": None}),
        "atoms-bad-and-weight-float": _at_s1(_space(
            two, [["s0"], 7], _weights(0.5, 0.5))),
        "weight-float-then-bad-text": _at_s1(_space(
            two, pair, _weights(0.5, "half"))),
        "weight-bad-text-then-float": _at_s1(_space(
            two, pair, _weights("half", 0.5))),
        "weight-key-missing-and-extra": _at_s1(_space(
            two, pair, {"0": "1/2", "2": "1/2"})),
        "weight-missing-then-float": _at_s1(_space(
            two, pair, {"1": 0.5})),
        "unknown-name-and-bad-atom": _at_s1(_space(
            ["zz", "s0"], [["zz"], [3]], HALVES)),
        # the containers around a space
        "space-list": _at_s1([two, pair, HALVES]),
        "space-string": _at_s1("s0"),
        "space-null": _at_s1(None),
        "per-state-list": {**_doc(), "prob": {"b": {}, "a": [HALVES]}},
        "prob-list": {**_doc(), "prob": [HALVES]},
        "stray-agent": {**_doc(), "prob": {
            "zz": {"s0": _space(["s0"], [["s0"]], {"0": "1"})}}},
        "stray-state": _doc(s0=_space(["s0"], [["s0"]], {"0": "1"}),
                            s9=_space(["s9"], [["s9"]], {"0": "1"})),
        "stray-bad": _doc(s9=_space(["s9"], [["s9"]], {"0": 1.5})),
        # access and relations
        "access-not-list": {**_doc(), "access": {"a": {"s0": "s1"}}},
        "access-bad-edge": {**_doc(), "access": {"a": [["s0", "s1", "s2"]]}},
        "access-non-string-end": {**_doc(), "access": {"a": [["s0", 1]]}},
        "access-unknown-end": {**_doc(), "access": {"a": [["s0", "zz"]]}},
        "access-unknown-then-space": {
            **_doc(s0=_space(WHOLE, [["s2"], ["s0", "s1"]], HALVES)),
            "access": {"a": [["zz", "s1"]]}},
        # the first fault of an agent's edges after well-formed ones
        "access-unknown-after-pairs": {**_doc(), "access": {
            "a": [["s0", "s1"], ["s1", "s2"], ["s2", "zz"], ["s0", "s2"]]}},
        "access-triple-last": {**_doc(), "access": {
            "a": [["s0", "s1"], ["s1", "s2"], ["s0", "s1", "s2"]]}},
        "access-single-last": {**_doc(), "access": {
            "a": [["s0", "s1"], ["s1"]]}},
        "access-string-after-pairs": {**_doc(), "access": {
            "a": [["s0", "s1"], "s1"]}},
        "access-unhashable-after-pairs": {**_doc(), "access": {
            "a": [["s0", "s1"], [["s0"], "s1"]]}},
        "access-unknown-then-bad": {**_doc(), "access": {
            "a": [["s0", "s1"], ["yy", "s1"], ["s1", 2]]}},
        "access-second-agent-after-stray": {**_doc(), "access": {
            "a": [["s0", "zz"], ["s1", "s2"]],
            "b": [["s1", "s0"], ["zz", "s2"], ["s2", "yy"], ["yy", "zz"]]}},
        # the first fault of a space's atoms after one-name atoms
        "atom-pair-after-singletons": _at_s1(_space(
            WHOLE, [["s0"], ["s1", "s2"]], HALVES)),
        "atom-pair-out-of-order-after-singletons": _at_s1(_space(
            WHOLE, [["s1"], ["s2", "s0"]], HALVES)),
        "atom-state-as-string": _at_s1(_space(two, [["s0"], "s1"], HALVES)),
        "atom-one-list-member": _at_s1(_space(two, [["s0"], [["s1"]]],
                                              HALVES)),
        "atom-one-int-member": _at_s1(_space(two, [["s0"], [1]], HALVES)),
        "atom-one-unknown-name": _at_s1(_space(["s0", "zz"],
                                               [["s0"], ["zz"]], HALVES)),
        "atom-one-letter-state-as-string": {
            "states": ["x", "y"], "domain": ["d0"], "agents": ["a"],
            "prob": {"a": {"x": _space(["x", "y"], ["x", ["y"]], HALVES)}}},
        "relation-rows-not-list": {**_doc(), "relations": [
            {"symbol": "R", "arity": 1, "table": {"s1": "d0"}}]},
        "relation-row-non-string": {**_doc(), "relations": [
            {"symbol": "R", "arity": 1, "table": {"s1": [["d0"], [3]]}}]},
        # one weights run in several spaces
        "weights-reused-fewer-atoms": _doc(
            s0=_space(two, pair, HALVES),
            s1=_space(["s1"], [["s1"]], HALVES)),
        "weights-reused-more-atoms": _doc(
            s0=_space(two, pair, HALVES),
            s1=_space(WHOLE, [["s0"], ["s1"], ["s2"]], HALVES)),
        "weights-prefix-reused": _doc(
            s0=_space(two, pair, HALVES),
            s1=_space(two, pair, _weights("1/2", "1/2", "0"))),
        "weights-reordered-reused": _doc(
            s0=_space(two, pair, _weights("1/4", "3/4")),
            s1=_space(two, pair, {"1": "3/4", "0": "1/4"}),
            s2=_space(two, pair, {"1": "1/4", "0": "3/4"})),
        "weights-int-then-float": _doc(
            s0=_space(["s0"], [["s0"]], {"0": 1}),
            s1=_space(["s1"], [["s1"]], {"0": 1.0})),
        "weights-int-then-true": _doc(
            s0=_space(["s0"], [["s0"]], {"0": 1}),
            s1=_space(["s1"], [["s1"]], {"0": True})),
        "weights-text-then-int": _doc(
            s0=_space(["s0"], [["s0"]], {"0": "1"}),
            s1=_space(["s1"], [["s1"]], {"0": 1}),
            s2=_space(["s2"], [["s2"]], {"0": "1"})),
        "weights-text-then-float": _doc(
            s0=_space(["s0"], [["s0"]], {"0": "1"}),
            s1=_space(["s1"], [["s1"]], {"0": 1.0})),
        "weights-good-then-bad-text": _doc(
            s0=_space(two, pair, HALVES),
            s1=_space(two, pair, _weights("1/2", "1/2x"))),
        "default-atoms-reuse": _doc(
            s0={"sample": ["s1", "s0"], "weights": HALVES},
            s1={"sample": ["s2", "s1"], "weights": HALVES},
            s2={"sample": ["s2"], "weights": {"0": "1"}}),
        "default-atoms-reuse-fewer": _doc(
            s0={"sample": ["s1", "s0"], "weights": HALVES},
            s1={"sample": ["s1"], "weights": HALVES}),
    }
    return cases


CASES = _cases()


def outcome(doc):
    """The first schema error of the document, or its rows."""
    try:
        m = load_model(doc)
    except SchemaError as exc:
        return {"error": str(exc)}
    return {"rows": {
        "names": list(m.names),
        "pred": {agent: list(row) for agent, row in sorted(m.pred.items())},
        "spaces": {agent: [_entry(e) for e in row]
                   for agent, row in sorted(m.spaces.items())},
        "strays": [[list(key), _entry(e)] for key, e in m.strays]}}


def _entry(entry):
    if entry is None:
        return None
    sample, atoms, nums, den = entry
    return [sample, list(atoms), list(nums), den]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_space_errors_are_pinned(name, golden):
    # a document goes through JSON, as the command line reads it
    assert outcome(json.loads(json.dumps(CASES[name]))) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: outcome(json.loads(json.dumps(doc)))
         for name, doc in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
