"""The model-path reports, pinned: `tests/golden/model_reports.json`.

The inputs are every shipped model fixture, the seeded mutants of each
that `test_cli_mutations.py` sends (the same generator and seeds, and
further mutants from the same stream), the documents it sends with one
numeral swapped for a 5000-digit one, and hand-written documents that
break each model invariant `validate` checks, some several times over.
Each input is written to a scratch file and run through `pckfo.cli.main`
with `validate`, `classify` and `eval` on a `P` and a `Cs` formula, all
with `--json`.  A case records the exit code, stdout and stderr of each
command, with the scratch file's path written as `{model}`.

Regenerate (only when a report is meant to change):

    PYTHONPATH=src python tests/test_model_pins.py
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from pckfo import cli
from test_cli_mutations import FIXTURES, _cases, _mutate_doc, _oversized_cases

GOLDEN = Path(__file__).resolve().parent / "golden" / "model_reports.json"
MUTANTS = 30    # per fixture; the first six are those test_cli_mutations sends
COMMANDS = {
    "validate": ["validate"],
    "classify": ["classify"],
    "eval-P": ["eval", "--formula", "P[a]>=1/2 p"],
    "eval-Cs": ["eval", "--formula", "Cs{a,1/2} p"],
}


def _space(sample, atoms, *weights):
    return {"sample": sample, "atoms": atoms,
            "weights": {str(k): w for k, w in enumerate(weights)}}


def _broken():
    """(name, document) of hand-written documents: three states s0 -> s1
    -> s2 with p at s0 and s1, one agent a, and one change each."""
    def doc(**changes):
        base = {"states": ["s0", "s1", "s2"], "domain": ["d0"],
                "agents": ["a"], "groups": {"G": ["a"]},
                "relations": [{"symbol": "p", "arity": 0,
                               "table": {"s0": [[]], "s1": [[]]}}],
                "access": {"a": [["s0", "s1"], ["s1", "s2"]]}}
        base.update(changes)
        return base

    def spaces(**per_state):
        return {"prob": {"a": per_state}}

    whole = ["s0", "s1", "s2"]
    return [
        ("edges-outside", doc(access={
            "a": [["s2", "zz"], ["s0", "s1"], ["yy", "s1"], ["yy", "zz"],
                  ["s1", "a0"]],
            "ghost": [["s0", "s0"]], "b": []})),
        ("states-repeated", doc(states=["s2", "s0", "s1", "s0"],
                                agents=["a", "a"])),
        ("sample-outside", doc(**spaces(
            s0=_space(["s0", "zz"], [["s0"], ["zz"]], "1/2", "1/2"),
            s1=_space(["a0", "s1"], [["a0", "s1"]], "1")))),
        ("sample-empty", doc(**spaces(s0=_space([], []),
                                      s1={"sample": [], "weights": {}}))),
        ("atoms-overlap", doc(**spaces(
            s0=_space(whole, [["s0"], ["s1"], ["s0", "s1"]],
                      "1/3", "1/3", "1/3"),
            s1=_space(whole, [["s1", "s2"], ["s0", "s2"], ["s2"], ["s0"]],
                      "0", "0", "1/2", "1/2"),
            s2=_space(["s1", "s2"], [["a0", "s2"], ["s1", "s2"], ["s1"]],
                      "1/2", "1/4", "1/4")))),
        ("atoms-empty", doc(**spaces(
            s0=_space(["s0", "s1"], [[], ["s1"], [], ["s0"]],
                      "0", "1/2", "0", "1/2"),
            s1=_space(["s0", "s1"], [["s0", "s0"], ["s1"]], "1/2", "1/2")))),
        ("atoms-short", doc(**spaces(
            s0=_space(whole, [["s2"], ["s0"]], "1/2", "1/2")))),
        ("sample-repeated", doc(**spaces(
            s0={"sample": ["s1", "s0", "s1"],
                "weights": {"0": "1/4", "1": "1/4", "2": "1/2"}}))),
        ("weights-range", doc(**spaces(
            s0=_space(["s0", "s1"], [["s0"], ["s1"]], "3/2", "-1/2"),
            s1=_space(["s0", "s1"], [["s1"], ["s0"]], "1/3", "1/3"),
            s2=_space(["s2"], [["s2"]], 2)))),
        ("keys-unknown", {**doc(), "prob": {
            "zz": {"s0": _space(["s0"], [["s0"]], "1")},
            "a": {"s9": _space(["s0"], [["s0"]], "1"),
                  "s1": _space(["s1"], [["s1"]], "1"),
                  "zz": _space(["s1"], [["s1"]], "1")}}}),
        ("coarse", doc(**spaces(
            s0=_space(whole, [["s1", "s2"], ["s0"]], "1/3", "2/3"),
            s1=_space(whole, [["s1", "s2"], ["s0"]], "1/3", "2/3"),
            s2=_space(["s0", "s2"], [["s2", "s0"]], "1")))),
        ("uniform", doc(
            access={"a": [[s, t] for s in whole for t in whole]},
            **spaces(**{s: _space(whole, [["s2"], ["s1"], ["s0"]], "1/6",
                                  "0.5", "1/3") for s in whole}))),
        ("uniform-unnormalized", doc(**spaces(
            s0=_space(whole, [["s2"], ["s1"], ["s0"]], "1/6", "0.5", 1)))),
        ("groups-bad", doc(groups={"G": [], "a": ["a"], "H": ["zz"]})),
        ("relations-bad", doc(relations=[
            {"symbol": "p", "arity": 0, "table": {"s0": [[]], "s9": [[]]}},
            {"symbol": "R", "arity": 1, "table": {"s1": [["d9"]],
                                                  "s2": [[]]}}])),
    ]


def _inputs():
    """(name, document text) of every pinned input."""
    out = []
    for name, kind, original in _cases():
        if kind != "model":
            continue
        rng = random.Random(f"cli-mutations-{name}")
        out.append((name, json.dumps(original)))
        out += [(f"{name}-mutant-{k}", _mutate_doc(original, rng))
                for k in range(1, MUTANTS + 1)]
    out += [(name, text) for name, kind, text in _oversized_cases()
            if kind == "model"]
    out += [(f"broken-{name}", json.dumps(doc)) for name, doc in _broken()]
    return out


INPUTS = dict(_inputs())


def run_input(text):
    """Every command's {code, stdout, stderr} on the document text."""
    out = {}
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "model.json")
            Path(path).write_text(text)
            for label, (cmd, *rest) in COMMANDS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main([cmd, "--model", path, *rest, "--json"])
                out[label] = {
                    "code": code,
                    "stdout": stdout.getvalue().replace(path, "{model}"),
                    "stderr": stderr.getvalue().replace(path, "{model}")}
    finally:
        sys.setrecursionlimit(old)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_input(golden):
    assert sorted(golden) == sorted(INPUTS)


def test_fixtures_are_inputs():
    for path in FIXTURES.glob("models/*.json"):
        assert f"model-{path.stem}" in INPUTS


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_model_reports_are_pinned(name, golden):
    assert run_input(INPUTS[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: run_input(text) for name, text in sorted(INPUTS.items())},
        indent=1, sort_keys=True) + "\n")
