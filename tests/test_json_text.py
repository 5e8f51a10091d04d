"""`report.json_text` writes what `json.dumps(value, indent=2,
sort_keys=...)` writes, byte for byte, and raises what it raises: the same
exception type and message.  json.dumps is the reference throughout, with
and without `sort_keys`, on every golden report and artifact, on seeded
random nested values and on edge cases: strings that hold the writer's own
separators, numbers the C encoder spells, empty containers, a list that
mixes objects with `{}`, dict subclasses, keys that are not strings, a
value no encoder knows, and cycles."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pckfo.report import json_text

GOLDEN = Path(__file__).resolve().parent / "golden"


def _outcome(write, value, sort_keys):
    try:
        return write(value, sort_keys)
    except Exception as exc:
        return type(exc), str(exc)


def _reference(value, sort_keys):
    return json.dumps(value, indent=2, sort_keys=sort_keys)


def _check(value):
    for sort_keys in (False, True):
        assert _outcome(json_text, value, sort_keys) == \
            _outcome(_reference, value, sort_keys), sort_keys


def _documents(doc):
    """doc, and every text inside it that is a JSON object or array (the
    reports and artifact files a golden file pins)."""
    found = [doc]
    todo = [doc]
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            todo += v.values()
        elif isinstance(v, list):
            todo += v
        elif isinstance(v, str) and v[:1] in ("{", "["):
            try:
                found.append(json.loads(v))
            except ValueError:
                pass
    return found


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")),
                         ids=lambda p: p.name)
def test_golden_reports(path):
    for doc in _documents(json.loads(path.read_text())):
        _check(doc)


_TEXTS = ["", "s0", "},\n      {", "},\n  {", "}", "{", "]", '"', "\\",
          "\x00\x07\x1f\x7f", "\n", "naïve ∀x", " ", "\ud800", "𝔓"]
_NUMBERS = [0, -1, 7, 10 ** 400, -2 ** 70, 0.0, -0.0, 0.1, 1e300, -1e-300,
            float("nan"), float("inf"), float("-inf")]
_SCALARS = _TEXTS + _NUMBERS + [True, False, None]


def _random_value(rng, depth):
    """A nested value, leaning towards the shapes the writer encodes in
    one call: flat objects and arrays, and lists of flat objects."""
    kind = rng.random()
    if depth == 0 or kind < 0.3:
        return rng.choice(_SCALARS)
    size = rng.choice([0, 1, 1, 2, 3, 5])
    if kind < 0.45:     # a list of flat objects, one in ten of them {}
        sizes = [0 if rng.random() < 0.1 else rng.choice([1, 2, 3])
                 for _ in range(size)]
        return [{rng.choice(_TEXTS): rng.choice(_SCALARS) for _ in range(k)}
                for k in sizes]
    if kind < 0.75:
        return {rng.choice(_TEXTS): _random_value(rng, depth - 1)
                for _ in range(size)}
    items = [_random_value(rng, depth - 1) for _ in range(size)]
    return tuple(items) if kind < 0.8 else items


@pytest.mark.parametrize("seed", range(40))
def test_random_values(seed):
    rng = random.Random(seed)
    for _ in range(25):
        _check(_random_value(rng, rng.choice([1, 2, 3, 5])))


class Plain(dict):
    pass


class Boxed(dict):
    """A dict subclass whose items the encoders read through `items`."""

    def items(self):
        return [(k, [v]) for k, v in super().items()]


def _cycles():
    array = []
    array.append(array)
    obj = {}
    obj["self"] = obj
    deep = {"a": [1, {"b": []}]}
    deep["a"][1]["b"].append(deep)
    return {"array": array, "object": obj, "nested": [{"x": 1}, deep],
            "tuple": ("t", [array])}


_CASES = {
    "separator-in-strings": [{"a": "},\n      {", "b": "x"},
                             {"},\n      {": "y"}, {"a": "}"}],
    "separator-in-nested-strings": {"r": [{"a": "},\n    {"}, {"a": "{"}],
                                    "s": ["},\n    {", "]"]},
    "escapes": {"q": '"', "b": "\\", "c": "\x00\x1f\x7f\n\t",
                "u": "naïve ∀x  ", "lone": "\ud800", "pair": "𝔓"},
    "escapes-in-rows": [{"s": '"\\'}, {"s": "\udfff"}, {"s": "é"}],
    "numbers": [float("nan"), float("inf"), float("-inf"), -0.0, 1e300,
                10 ** 399 + 7],
    "numbers-in-rows": [{"n": float("nan"), "i": float("inf")},
                        {"z": -0.0, "e": 1e300, "big": -(10 ** 399)}],
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "empties-nested": {"a": {}, "b": [], "c": (), "d": [{}, [], ()]},
    "rows-with-empty-object": [{"a": 1}, {}, {"b": 2}],
    "empty-object-first": [{}, {"a": 1}, {"b": 2}],
    "empty-object-last": [{"a": 1}, {"b": 2}, {}],
    "tuple-of-rows": ({"a": 1}, {"b": [2]}, {"c": 3}),
    "plain-dict-subclass": [Plain(a=1), Plain(b=2)],
    "dict-subclass-items": {"k": Boxed(a=1, b="x")},
    "dict-subclass-rows": [Boxed(a="x"), Boxed(b="y")],
    "int-keys": {2: "b", 1: "a", -3: [1]},
    "float-keys": {2.5: "b", float("nan"): "n", -0.0: "z"},
    "bool-keys": {True: "t", False: {"f": 1}},
    "none-key": {None: [None]},
    "mixed-keys": {"a": 1, 2: "b"},
    "mixed-keys-nested": [{"x": {1: "a", "b": 2}}],
    "mixed-non-string-keys": {1.5: "a", None: "b", 3: "c"},
    "fraction-value": {"w": Fraction(1, 2)},
    "fraction-in-rows": [{"w": "1/2"}, {"w": Fraction(1, 3)}],
    "fraction-in-array": ["a", [Fraction(2, 3)]],
    "fraction-key": {Fraction(1, 2): "half"},
    "scalar-text": "top",
    "scalar-number": 12,
    "scalar-null": None,
}
_CASES.update((f"cycle-{k}", v) for k, v in _cycles().items())


@pytest.mark.parametrize("name", list(_CASES))
def test_edge_cases(name):
    _check(_CASES[name])
