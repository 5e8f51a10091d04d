"""Pins of the first ParseError of formula texts with a bad character.

Each case puts one bad character (or a lone "-", a lone ".", "1." before a
"(") at one place of a formula text: at the start or end of a run of text
between parentheses, right before "(" or after ")", after an unmatched
parenthesis, between tabs and newlines, after a parse error, inside a copy
of a group that an earlier text of the document read, and in a text that
shares every other run with an earlier one.  `tests/golden/token_errors.json`
holds, per case, the error of `parse_formula` on the text and the error of
`load_proof` on a document that reads the earlier texts and then the text.

Regenerate (only when an error is meant to change):

    PYTHONPATH=src python tests/test_token_errors.py
"""

import json
from pathlib import Path

import pytest

from pckfo.errors import PckfoError
from pckfo.parser import load_proof, parse_formula

GOLDEN = Path(__file__).resolve().parent / "golden" / "token_errors.json"

BAD = {"e-acute": "é", "dollar": "$", "nul": "\x00", "minus": "-",
       "dot": ".", "numeral-dot": "1.("}

# place -> (earlier texts of the document, the text with "{}" for the bad
# character)
PLACES = {
    "chunk-start": ([], "({}p & q) -> r"),
    "chunk-end": ([], "(p & q{}) -> r"),
    "before-open": ([], "p & K[a]{}(q | r)"),
    "after-close": ([], "(p | q){} & r"),
    "after-unmatched-open": ([], "((p & {}q"),
    "after-unmatched-close": ([], "p) -> {}q)"),
    "tabs-newlines": ([], "(p &\t{}\n q)\t->\n(r)"),
    "after-parse-error": ([], "(p & & q) -> ({}r)"),
    "repeated-group-copy": (["K[a](p & q) -> r", "r"],
                            "K[a](p & q) & K[a](p & {}q)"),
    "shares-other-chunks": (["(p & q) -> (r | s)"], "(p & q) {}-> (r | s)"),
}

CASES = {f"{place}-{bad}": (earlier, text.format(char))
         for place, (earlier, text) in PLACES.items()
         for bad, char in BAD.items()}


def _error(read, arg):
    try:
        read(arg)
    except PckfoError as exc:
        return [type(exc).__name__, str(exc), list(exc.span)]
    return None


def _outcomes(earlier, text) -> dict:
    doc = {"hypotheses": earlier, "steps": [
        {"formula": text, "just": {"kind": "axiom", "name": "Prop"}}]}
    return {"formula": _error(parse_formula, text),
            "proof": _error(load_proof, doc)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_first_error_is_pinned(golden, name):
    outcomes = _outcomes(*CASES[name])
    assert outcomes["formula"] is not None
    assert outcomes == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _outcomes(*case) for name, case in sorted(CASES.items())},
        indent=1, sort_keys=True) + "\n")
