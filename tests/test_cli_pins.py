"""The command-line surface, pinned: `tests/golden/cli_outputs.json`.

Each case runs `pckfo.cli.main` in this process with `COLUMNS=80` and
records its exit code, stdout and stderr.  The cases are the help text of
the program and of every subcommand, usage errors and unusual spellings
that argparse decides (missing or ambiguous flags, bad types and choices,
abbreviations, negative numbers as values), the `--json` reports of
`fuzz` at pool sizes below, at and above its 200 models, and the `--json`
reports of `find` (a witness, a miss, and a miss outside the signature)
and of the `demo` guard, a validity suite and the non-compactness
fragments.  `{fixtures}` in
an argv stands for the shipped fixtures directory; no recorded output
contains a path.

Help and usage text come from argparse, so they were recorded with the
argparse of Python 3.11.  Regenerate (only when the surface is meant to
change):

    PYTHONPATH=src python tests/test_cli_pins.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from pckfo import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_outputs.json"
COMMANDS = ("eval", "check-proof", "validate", "classify", "find", "fuzz",
            "demo")

CASES = {
    "no-arguments": [],
    "help": ["--help"],
    **{f"help-{cmd}": [cmd, "--help"] for cmd in COMMANDS},
    "help-after-flags": ["eval", "--model", "m.json", "-h"],
    "missing-model": ["eval", "--formula", "p"],
    "missing-value": ["eval", "--model"],
    "unknown-subcommand": ["frobnicate", "--json"],
    "bad-mode-choice": ["check-proof", "--proof", "x.json", "--mode",
                        "strict"],
    "n-not-an-integer": ["fuzz", "--n", "x"],
    "ambiguous-abbreviation": ["fuzz", "--b", "2"],
    "abbreviated-flags": ["check-proof", "--pro",
                          "{fixtures}/proofs/k_distribution.json", "--js"],
    "seed-equals-negative": ["find", "--formula", "p", "--budget-states", "1",
                             "--grid", "1", "--seed=-3", "--json"],
    "seed-negative-value": ["find", "--formula", "p", "--budget-states", "1",
                            "--grid", "1", "--seed", "-3", "--json"],
    "json-with-value": ["validate", "--model", "m.json", "--json=1"],
    "extra-argument": ["validate", "--model", "m.json", "extra"],
    "demo-without-which": ["demo", "--m", "2"],
    "demo-bad-which": ["demo", "nope"],
    **{f"fuzz-n{n}": ["fuzz", "--n", str(n), "--json"]
       for n in (60, 150, 200, 250)},
    **{f"fuzz-3-states-n{n}": ["fuzz", "--n", str(n), "--budget-states", "3",
                               "--json"]
       for n in (150, 250)},
    "fuzz-class": ["fuzz", "--n", "40", "--class", "SDP", "--class-models",
                   "20", "--json"],
    "demo-invalid-distribution": ["demo", "validity", "--family",
                                  "invalid-distribution", "--json"],
    "demo-fixed-point-seed-3": ["demo", "validity", "--family",
                                "fixed-point", "--seed", "3", "--json"],
    "demo-noncompactness-m4": ["demo", "noncompactness", "--m", "4",
                               "--json"],
    "find-sat": ["find", "--formula", "p & !K[a] p", "--json"],
    "find-not-found": ["find", "--formula", "p & !p", "--budget-states", "1",
                       "--json"],
    "find-outside-signature": ["find", "--formula", "K[b] p",
                               "--budget-states", "1", "--json"],
}


def run_case(argv):
    argv = [a.replace("{fixtures}", str(ROOT / "fixtures")) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_pinned(case, golden):
    assert run_case(CASES[case]) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {case: run_case(argv) for case, argv in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
