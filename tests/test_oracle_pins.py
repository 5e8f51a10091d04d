"""The brute-force reports, pinned: `tests/golden/oracle_reports.json`.

Each CLI case runs `pckfo.cli.main` in this process twice, once with
`--json` and an `--out` path in a scratch directory, once for the text
report, and records both exit codes, both stdouts and the bytes of every
file the `--out` path holds afterwards (the path itself for one
artifact, the files of a directory for several).  The cases are the
searches and demos whose counts come from the enumeration: a witness
late in a 3-state shape, 3-state misses, grids that normalize no space
over one state or over any state, two agents and merged atoms, the four
validity families at two seeds and the invalid-distribution demo.  Each
library case runs `validity_suite` with the family table replaced by
labelled formulas that fail at several models, and records the report's
JSON, so that the order and numbering of `counterexample-N` are pinned.

Regenerate (only when a report is meant to change):

    PYTHONPATH=src python tests/test_oracle_pins.py
"""

import contextlib
import io
import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from pckfo import cli, oracle
from pckfo.oracle import (
    SearchBudget, enumerate_models, random_models, validity_suite,
)
from pckfo.parser import parse_formula

GOLDEN = Path(__file__).resolve().parent / "golden" / "oracle_reports.json"

_FULL_SINGLETON = ["--sample-mode", "full", "--atom-mode", "singleton"]

CLI_CASES = {
    "find-late-3-state-witness": [
        "find", "--formula", "P[a]>=1/3 p", "--grid", "1/3,2/3",
        "--budget-states", "3", *_FULL_SINGLETON],
    "find-3-state-miss": [
        "find", "--formula", "P[a]>=1/2 p & P[a]>=1/2 !p", "--grid", "1",
        "--budget-states", "3", "--sample-mode", "full", "--atom-mode",
        "merged"],
    "find-3-state-miss-singleton": [
        "find", "--formula", "p & !p", "--grid", "1/3", "--budget-states",
        "3", *_FULL_SINGLETON],
    "find-3-state-witness-third-state": [
        "find", "--formula", "K[a] !p & p & !q & P[a]>=2/3 q", "--grid",
        "1/3", "--budget-states", "3", *_FULL_SINGLETON],
    "find-grid-half-witness": ["find", "--formula", "p & !q & !K[a] q",
                               "--grid", "1/2"],
    "find-grid-half-miss": ["find", "--formula", "p & !p", "--grid", "1/2"],
    "find-grid-zero": ["find", "--formula", "p", "--grid", "0"],
    "find-default-miss": ["find", "--formula", "K[a] q & !K[a] q"],
    "find-default-late-witness": [
        "find", "--formula", "!p & K[a] p & P[a]>=1/4 q & !P[a]>=1/3 q"],
    "find-two-agents-witness": [
        "find", "--formula", "!p & q & K[a] p & !K[b] p & K[b] !q",
        "--budget-agents", "2",
        "--grid", "0,1/2,1", "--sample-mode", "full", "--atom-mode",
        "merged"],
    "find-two-agents-miss": [
        "find", "--formula", "E{a,b} p & !K[b] p", "--budget-agents", "2",
        "--grid", "0,1/2,1", "--sample-mode", "full", "--atom-mode",
        "merged"],
    "find-merged-witness": [
        "find", "--formula", "P[a]>=1 q & !q & K[a] p", "--atom-mode",
        "merged"],
    "find-merged-not-measurable-miss": [
        "find", "--formula", "P[a]>=1/2 p & P[a]>=1/2 !p & !q",
        "--atom-mode", "merged", "--sample-mode", "full"],
    "demo-invalid-distribution": ["demo", "validity", "--family",
                                  "invalid-distribution"],
    **{f"demo-{family}-seed-{seed}": ["demo", "validity", "--family", family,
                                      "--seed", str(seed)]
       for family in oracle.VALIDITY_FAMILIES for seed in (0, 3)},
}

# name -> (budget, labelled formulas, random models chained after the
# enumeration: (budget, count, tag), or None)
_THREE_STATES = SearchBudget(max_states=3, relation_symbols=(("p", 0),),
                             weight_grid=(Fraction(0), Fraction(1)),
                             sample_mode="full", atom_mode="merged")
LIBRARY_CASES = {
    "suite-two-states-merged": (
        SearchBudget(max_states=2, relation_symbols=(("p", 0),),
                     sample_mode="full", atom_mode="merged"),
        (("coarse", "P[a]>=1/2 p"), ("reach", "K[a] !p -> !p")),
        (SearchBudget(max_states=2, relation_symbols=(("p", 0),), seed=5),
         6, "oracle-pins")),
    "suite-three-states": (
        _THREE_STATES,
        (("cycle", "!(p & K[a] (!p & K[a] (!p & K[a] p & !K[a] !p) & !K[a] p)"
                   " & !K[a] p & !K[a] K[a] p & !K[a] !K[a] !p)"),
         ("chain", "!(p & !K[a] p & K[a] !p & K[a] K[a] !K[a] !p"
                   " & K[a] K[a] !p & !K[a] K[a] p & !K[a] K[a] K[a] p)")),
        None),
}


def _scratch_files(root: Path) -> dict:
    """Relative path -> text of every file under root."""
    return {str(path.relative_to(root)): path.read_text()
            for path in sorted(root.rglob("*")) if path.is_file()}


def run_cli_case(argv):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        for mode, extra in (("json", ["--json", "--out", str(target)]),
                            ("text", [])):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + extra)
            out[mode] = {"code": code, "stdout": stdout.getvalue()}
        if target.is_file():
            out["out"] = {".": target.read_text()}
        elif target.is_dir():
            out["out"] = _scratch_files(target)
        else:
            out["out"] = None
    return out


def run_library_case(name):
    budget, labelled, extras = LIBRARY_CASES[name]
    formulas = [(label, parse_formula(text)) for label, text in labelled]
    models = enumerate_models(budget)
    if extras is not None:
        models = itertools.chain(models, random_models(*extras))
    saved = oracle._family_formulas
    oracle._family_formulas = lambda family, agents: list(formulas)
    try:
        rep = validity_suite("epistemic-distribution", budget, models=models)
    finally:
        oracle._family_formulas = saved
    return rep.to_json()


def run_case(name):
    if name in CLI_CASES:
        return run_cli_case(CLI_CASES[name])
    return run_library_case(name)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted([*CLI_CASES, *LIBRARY_CASES])


@pytest.mark.parametrize("case", sorted([*CLI_CASES, *LIBRARY_CASES]))
def test_oracle_report_is_pinned(case, golden):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: run_case(name)
         for name in sorted([*CLI_CASES, *LIBRARY_CASES])},
        indent=1, sort_keys=True) + "\n")
