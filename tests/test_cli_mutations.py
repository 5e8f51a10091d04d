"""Mutated inputs through `cli.main`: every run ends in a documented exit
code (0-6) and lets no exception escape.

The inputs are formula texts and model and proof documents: the shipped
fixtures and shapes nested far past the interpreter's recursion limit.
Each mutant drops, duplicates or swaps one token of a text or one value of
a document, or wraps the input 5000 levels deeper.  The generator is
seeded, so every run sends the same mutants.  Apart from the mutants, each
input is also sent with one of its numerals swapped for a 5000-digit one,
past the digits Python converts between int and str, and with one 0xff
byte, which is not UTF-8, in front of it.
"""

import contextlib
import copy
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pckfo import axioms as ax
from pckfo.cli import main
from pckfo.parser import proof_to_json
from pckfo.proofcheck import ProofBuilder
from pckfo.syntax import Atom

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MUTANTS = 6
WRAP = 5000
BIG = "9" * 5000

_TOKEN = re.compile(r"\s+|[A-Za-z0-9_']+|<->|->|>=|<=|\S")
# a numeral inside a text: "1" and "2" in "1/2", not the "0" of "s0"
_NUMERAL = re.compile(r"(?<![\w.])\d+(?:\.\d+)?")

DEEP_FORMULAS = [
    "K[a] " * 5000 + "p",
    "!(" * 5000 + "p" + ")" * 5000,
    "R(" + "f(" * 5000 + "c" + ")" * 5001,
    " -> ".join(["p"] * 601),
]


def _deep_proofs():
    apc = ProofBuilder()
    apc.axiom(ax.APC, {"group": ("a", "b"), "r": Fraction(1, 2), "m": 199,
                       "phi": Atom("p")})
    t = "f(" * 450 + "y" + ")" * 450
    fo2 = {"formula": f"(forall x (forall y R(x,y))) -> (forall y R({t},y))",
           "just": {"kind": "axiom", "name": "FO2"}}
    with_params = copy.deepcopy(fo2)
    with_params["just"]["params"] = {"x": "x", "phi": "forall y R(x,y)",
                                     "term": t}
    chain = {"formula": " -> ".join(["p"] * 202),
             "just": {"kind": "axiom", "name": "Prop"}}
    return [json.loads(proof_to_json(apc.build()))] + [
        {"hypotheses": [], "steps": [step]}
        for step in (fo2, with_params, chain)]


def _mutate_text(text, rng):
    toks = _TOKEN.findall(text)
    how = rng.choice(("drop", "duplicate", "swap", "wrap"))
    if how == "wrap" or not toks:
        return "!(" * WRAP + text + ")" * WRAP
    i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
    if how == "drop":
        del toks[i]
    elif how == "duplicate":
        toks.insert(i, toks[i])
    else:
        toks[i], toks[j] = toks[j], toks[i]
    return "".join(toks)


def _slots(doc):
    """(path, container, key) of every value inside doc."""
    out, todo = [], [((), doc)]
    while todo:
        path, value = todo.pop()
        keys = value if isinstance(value, dict) else \
            range(len(value)) if isinstance(value, list) else ()
        for key in keys:
            out.append((path + (key,), value, key))
            todo.append((path + (key,), value[key]))
    return out


def _mutate_doc(doc, rng):
    doc = copy.deepcopy(doc)
    slots = _slots(doc)
    how = rng.choice(("drop", "duplicate", "swap", "text", "wrap"))
    if how == "wrap":
        return "[" * WRAP + json.dumps(doc) + "]" * WRAP
    path, box, key = rng.choice(slots)
    if how == "text":
        strings = [s for s in slots if isinstance(s[1][s[2]], str)]
        _, box, key = rng.choice(strings)
        box[key] = _mutate_text(box[key], rng)
    elif how == "drop":
        del box[key]
    elif how == "duplicate":
        if isinstance(box, list):
            box.insert(key, copy.deepcopy(box[key]))
        else:
            box[key + "_"] = copy.deepcopy(box[key])
    else:
        # neither value may hold the other, or the swap makes a cycle
        other, obox, okey = rng.choice(slots)
        n = min(len(path), len(other))
        if path[:n] != other[:n]:
            box[key], obox[okey] = obox[okey], box[key]
    return json.dumps(doc)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _cases():
    """(name, input kind, original input) of every harness input."""
    cases = []
    for path in sorted((FIXTURES / "proofs").glob("*.json")):
        doc = json.loads(path.read_text())
        cases.append((f"proof-{path.stem}", "proof", doc))
        cases += [(f"formula-{path.stem}-{k}", "formula", step["formula"])
                  for k, step in enumerate(doc["steps"][:3])]
    for path in sorted((FIXTURES / "models").glob("*.json")):
        cases.append((f"model-{path.stem}", "model",
                      json.loads(path.read_text())))
    cases += [(f"formula-deep-{k}", "formula", text)
              for k, text in enumerate(DEEP_FORMULAS)]
    cases += [(f"proof-deep-{k}", "proof", doc)
              for k, doc in enumerate(_deep_proofs())]
    return cases


def _apc_with_params():
    """A one-step APC proof with its parameters written out, so that the
    document has an "m" and a rational of its own."""
    b = ProofBuilder()
    b.axiom(ax.APC, {"group": ("a", "b"), "r": Fraction(1, 2), "m": 3,
                     "phi": Atom("p")})
    doc = json.loads(proof_to_json(b.build()))
    doc["steps"][0]["just"]["params"] = {"group": ["a", "b"], "r": "1/2",
                                         "m": 3, "phi": "p"}
    return doc


def _swap_last_numeral(text):
    *_, last = _NUMERAL.finditer(text)
    return text[:last.start()] + BIG + text[last.end():]


def _oversized_cases():
    """(name, input kind, input text) for each kind of numeral in each
    harness input: the first arity, the first "m", the first other JSON
    integer, and the last numeral of the first text that has one (a
    rational), swapped for BIG."""
    cases = []
    for name, kind, original in _cases() + [
            ("proof-apc-params", "proof", _apc_with_params())]:
        if kind == "formula":
            if _NUMERAL.search(original):
                cases.append((f"{name}-text", kind,
                              _swap_last_numeral(original)))
            continue
        paths = {}
        for path, box, key in _slots(original):
            value = box[key]
            if type(value) is int:
                paths.setdefault(key if key in ("arity", "m") else "int",
                                 path)
            elif isinstance(value, str) and _NUMERAL.search(value):
                paths.setdefault("text", path)
        for label, path in paths.items():
            doc = copy.deepcopy(original)
            box = doc
            for key in path[:-1]:
                box = box[key]
            if label == "text":
                box[path[-1]] = _swap_last_numeral(box[path[-1]])
                text = json.dumps(doc)
            else:   # json.dumps cannot write BIG as an int
                box[path[-1]] = "<BIG>"
                text = json.dumps(doc).replace('"<BIG>"', BIG)
            cases.append((f"{name}-{label}", kind, text))
    return cases


def _assert_answers(kind, text, path, label):
    """Send text, an input of the given kind, through every command that
    reads that kind; path is a scratch file for documents."""
    if kind == "formula":
        chain = str(FIXTURES / "models" / "chain3.json")
        runs = [["eval", "--model", chain, "--formula", text]]
    else:
        path.write_text(text)
        runs = [["check-proof", "--proof", str(path)]] \
            if kind == "proof" else [
            ["validate", "--model", str(path)],
            ["eval", "--model", str(path), "--formula", "K[a] p"]]
    for argv in runs:
        assert _run(argv) in range(7), (label, argv)


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("name, kind, original", _cases(),
                         ids=[c[0] for c in _cases()])
def test_mutants_answer(tmp_path, name, kind, original):
    rng = random.Random(f"cli-mutations-{name}")
    path = tmp_path / "input.json"
    for k in range(MUTANTS + 1):
        if kind == "formula":
            text = _mutate_text(original, rng) if k else original
        else:
            text = _mutate_doc(original, rng) if k else json.dumps(original)
        _assert_answers(kind, text, path, k)


@pytest.mark.parametrize("name, kind, text", _oversized_cases(),
                         ids=[c[0] for c in _oversized_cases()])
def test_oversized_numeral_answers(tmp_path, name, kind, text):
    _assert_answers(kind, text, tmp_path / "input.json", name)


@pytest.mark.parametrize("name, kind, original", _cases(),
                         ids=[c[0] for c in _cases()])
def test_non_utf8_input_is_schema_error(tmp_path, name, kind, original):
    """A document file that does not decode as UTF-8 is a parse error, exit
    3.  A formula is argv text, where Python keeps an undecodable byte as a
    lone surrogate; it cannot be read as a formula either."""
    path = tmp_path / "input.json"
    if kind == "formula":
        chain = str(FIXTURES / "models" / "chain3.json")
        runs = [["eval", "--model", chain, "--formula", "\udcff" + original]]
    else:
        path.write_bytes(b"\xff" + json.dumps(original).encode())
        runs = [["check-proof", "--proof", str(path)]] \
            if kind == "proof" else [
            ["validate", "--model", str(path)],
            ["eval", "--model", str(path), "--formula", "K[a] p"]]
    for argv in runs:
        assert _run(argv) == 3, argv
