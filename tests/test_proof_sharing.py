"""Each proof document reads a repeated parenthesized group once.

`load_proof` reads every formula text of a document against one table of
parenthesized groups and nodes, so equal groups, and equal subformulas,
load as one object.  These tests
show that the sharing changes nothing else: each loaded formula equals the
parse of its own text, the dump bytes are the ones pinned in
`tests/golden/proof_dumps.json` (a SHA-256 per document), and a document
that fails fails as its failing text alone does.

The inputs are the shipped proofs, the deep and APC proofs that
`test_cli_mutations.py` sends, `fixed_point_proof(4..16)`, and ten random
finitary proofs with their deduction and strong-necessitation transforms.

Regenerate (only when a dump is meant to change):

    PYTHONPATH=src python tests/test_proof_sharing.py
"""

import copy
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from pckfo import parser
from pckfo.errors import PckfoError
from pckfo.parser import (
    load_proof, parse_formula, parse_proof, proof_to_doc, proof_to_json,
)
from pckfo.proofcheck import (
    MODE_CON, MODE_PLAIN, deduction_transform, strong_necessitation_transform,
)
from pckfo.prooflib import fixed_point_proof, random_finitary_proof
from pckfo.syntax import And, App, Atom, Not
from test_cli_mutations import (
    FIXTURES, MUTANTS, _apc_with_params, _cases, _deep_proofs, _mutate_doc,
    _mutate_text,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "proof_dumps.json"


def _documents():
    """(name, proof document) of every input."""
    docs = [(f"fixture-{path.stem}", json.loads(path.read_text()))
            for path in sorted((FIXTURES / "proofs").glob("*.json"))]
    docs += [(f"deep-{k}", doc) for k, doc in enumerate(_deep_proofs())]
    docs.append(("apc-params", _apc_with_params()))
    docs += [(f"fixed_point-{b}", proof_to_doc(fixed_point_proof(b)))
             for b in range(4, 17)]
    for seed in range(10):
        proof = random_finitary_proof(seed, MODE_CON if seed % 2 else
                                      MODE_PLAIN)
        docs += [
            (f"random-{seed}", proof_to_doc(proof)),
            (f"random-{seed}-deduction", proof_to_doc(
                deduction_transform(proof, proof.hypotheses[0]))),
            (f"random-{seed}-necessitation", proof_to_doc(
                strong_necessitation_transform(proof, "a"))),
        ]
    return docs


DOCUMENTS = _documents()


def _digest(proof) -> str:
    return hashlib.sha256(proof_to_json(proof).encode()).hexdigest()


def _texts_and_formulas(doc, proof):
    """(text, loaded formula) of every hypothesis, step formula and spec
    theta."""
    pairs = list(zip(doc.get("hypotheses", []), proof.hypotheses))
    for entry, step in zip(doc["steps"], proof.steps):
        pairs.append((entry["formula"], step.formula))
        if "spec" in entry["just"]:
            pairs += zip(entry["just"]["spec"]["thetas"],
                         step.just.spec.thetas)
    return pairs


def _group_nodes(roots) -> list:
    """The conjunctions that the printer puts in parentheses: the body of a
    prefix operator and the right operand of a conjunction.  Each node
    object is walked once."""
    out, seen, todo = [], set(), list(roots)
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        if type(f) is And:
            todo += (f.left, f.right)
            inner = f.right
        elif hasattr(f, "body"):
            todo.append(f.body)
            inner = f.body
        else:
            continue
        if type(inner) is And:
            out.append(inner)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_document(golden):
    assert sorted(golden) == sorted(name for name, _ in DOCUMENTS)


@pytest.mark.parametrize("name, doc", DOCUMENTS,
                         ids=[name for name, _ in DOCUMENTS])
def test_shared_table_changes_nothing(golden, name, doc):
    proof = load_proof(doc)
    for text, f in _texts_and_formulas(doc, proof):
        assert f == parse_formula(text)
    assert _digest(proof) == golden[name]

    # In printed text every parenthesized group is a conjunction in one of
    # the places `_group_nodes` finds, so equal ones must be one object.
    canonical = load_proof(proof_to_doc(proof))
    groups = _group_nodes(
        f for _, f in _texts_and_formulas(proof_to_doc(proof), canonical))
    assert len({id(g) for g in groups}) == len(set(groups))


def _subformulas(roots) -> list:
    """Every formula node under roots, each node object once."""
    out, seen, todo = [], set(), list(roots)
    while todo:
        f = todo.pop()
        if id(f) not in seen:
            seen.add(id(f))
            out.append(f)
            todo += (f.left, f.right) if type(f) is And else \
                [f.body] if hasattr(f, "body") else []
    return out


@pytest.mark.parametrize("name, doc", DOCUMENTS,
                         ids=[name for name, _ in DOCUMENTS])
def test_equal_subformulas_are_one_object(name, doc):
    """Any two equal formula nodes of the hypotheses, step formulas and
    spec thetas of a loaded document are one object, whether they were
    written in parentheses or not, and whatever abbreviation built them."""
    proof = load_proof(doc)
    nodes = _subformulas(f for _, f in _texts_and_formulas(doc, proof))
    assert len(nodes) == len(set(nodes))


def test_abbreviations_share_their_nodes():
    doc = {"hypotheses": ["p -> q", "!(p & !q)", "p <-> q", "E{b,a} p",
                          "E{a,b,a} p", "top & !bot", "P[a]<1/2 p",
                          "!P[a]>=1/2 p"],
           "steps": [{"formula": "exists x R(x) | !!forall x !R(x)",
                      "just": {"kind": "axiom", "name": "Prop"}}]}
    proof = load_proof(doc)
    imp, imp_again, iff, e, e_again, top, lt, lt_again = proof.hypotheses
    assert imp is imp_again and iff.left is imp and e is e_again
    assert top.left is top.right and lt is lt_again
    f = proof.steps[0].formula
    assert f.body.left is f.body.right.body


def _outcome(text):
    try:
        return proof_to_json(parse_proof(text))
    except PckfoError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "span", None)


_PROOF_CASES = [(name, doc) for name, kind, doc in _cases() if kind == "proof"]


@pytest.mark.parametrize("name, original", _PROOF_CASES,
                         ids=[name for name, _ in _PROOF_CASES])
def test_mutant_errors_are_those_of_the_text_alone(monkeypatch, name,
                                                   original):
    """The document mutants `test_cli_mutations.py` sends, from its seeds,
    and the document with the formula text of each of up to 20 steps
    mutated in turn (most of which fail to parse, after earlier steps
    filled the table): loading
    with the document's table gives the outcome, error message and span of
    reading each text with a table of its own."""
    rng = random.Random(f"cli-mutations-{name}")
    texts = [_mutate_doc(original, rng) if k else json.dumps(original)
             for k in range(MUTANTS + 1)]
    rng = random.Random(f"cli-mutations-{name}-steps")
    steps = original["steps"]
    for k in sorted(rng.sample(range(len(steps)), min(len(steps), 20))):
        doc = copy.deepcopy(original)
        doc["steps"][k]["formula"] = _mutate_text(steps[k]["formula"], rng)
        texts.append(json.dumps(doc))
    shared = [_outcome(text) for text in texts]
    read = parser._read_formula
    monkeypatch.setattr(parser, "_read_formula",
                        lambda text, table: read(text, parser._Groups()))
    assert shared == [_outcome(text) for text in texts]


@pytest.mark.usefixtures("default_recursion_limit")
def test_deep_document_keys_are_linear(monkeypatch):
    """The 5000-deep shapes of test_parser.py, each a hypothesis and two
    steps: the document loads, its repeated groups are one object, and the
    table's keys hold no more entries than one copy of the texts has
    tokens, and neither do its nodes."""
    shapes = ["!(" * 5000 + "p" + ")" * 5000,
              "!(p & " * 5000 + "p" + ")" * 5000,
              "p(" + "f(" * 5000 + "c" + ")" * 5001]
    tables = []

    class Recording(parser._Groups):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(parser, "_Groups", Recording)
    proof = load_proof({
        "hypotheses": shapes,
        "steps": [{"formula": text, "just": {"kind": "axiom", "name": "Prop"}}
                  for text in shapes * 2]})
    [table] = tables
    tokens = sum(len(parser._tokenize(text)) for text in shapes)
    assert sum(map(len, table.ids)) <= tokens
    assert len(table.nodes) <= tokens
    first, again = proof.steps[:3], proof.steps[3:]
    for k in (0, 1):
        assert first[k].formula.body is again[k].formula.body \
            is proof.hypotheses[k].body
    assert first[2].formula == again[2].formula == proof.hypotheses[2]


def _tokenized(monkeypatch) -> list:
    """The chunks passed to parser._tokenize while the test runs."""
    calls = []
    original = parser._tokenize

    def counted(chunk, offset=0):
        calls.append(chunk)
        return original(chunk, offset)

    monkeypatch.setattr(parser, "_tokenize", counted)
    return calls


_CHUNK_DOCUMENTS = [(name, doc) for name, doc in DOCUMENTS
                    if name in ("fixture-fixed_point", "fixed_point-9",
                                "random-3-deduction", "random-7-necessitation",
                                "deep-0")]


@pytest.mark.parametrize("name, doc", _CHUNK_DOCUMENTS,
                         ids=[name for name, _ in _CHUNK_DOCUMENTS])
def test_each_distinct_chunk_tokenized_once(monkeypatch, name, doc):
    """Over the texts of a document, `_tokenize` runs once per distinct
    non-empty run of text between parentheses, however often the texts
    repeat it."""
    proof = load_proof(doc)
    chunks = [chunk for text, _ in _texts_and_formulas(doc, proof)
              for chunk in re.split(r"[()]", text) if chunk]
    assert len(chunks) > len(set(chunks))
    calls = _tokenized(monkeypatch)
    assert _digest(load_proof(doc)) == _digest(proof)
    assert sorted(calls) == sorted(set(chunks))


def test_known_group_is_the_earlier_object(monkeypatch):
    """A group read as a formula in an earlier text stands, in a later
    text that repeats it, as the object read first: the later text reads
    as it reads alone, and where the group stands as the arguments of a
    relation, it is read token by token, with the error of the text
    alone."""
    readers = []

    class Recording(parser._FormulaParser):
        def __init__(self, text, table):
            super().__init__(text, table)
            readers.append(self)

    group = "(p & !(q & !(rrrrrrrrrrrr & s)))"
    later = f"K[a] !{group} & {group}"
    doc = {"hypotheses": [f"K[a] {group}"], "steps": [
        {"formula": later, "just": {"kind": "axiom", "name": "Prop"}}]}
    monkeypatch.setattr(parser, "_FormulaParser", Recording)
    proof = load_proof(doc)
    as_arguments = {**doc, "steps": [
        {"formula": f"R{group}", "just": {"kind": "axiom", "name": "Prop"}}]}
    with pytest.raises(PckfoError) as shared:
        load_proof(as_arguments)
    monkeypatch.undo()
    first, second, _, _ = readers
    assert len(first.groups) == 3
    assert second.toks == parser._FormulaParser(later, parser._Groups()).toks
    f, inner = proof.steps[0].formula, proof.hypotheses[0].body
    assert f == parse_formula(later)
    assert f.left.body.body is inner and f.right is inner
    with pytest.raises(PckfoError) as alone:
        parse_formula(f"R{group}")
    assert (str(shared.value), shared.value.span) == (
        str(alone.value), alone.value.span)


def test_chunks_with_equal_tokens_share_a_group():
    doc = {"hypotheses": ["(p & q) -> r", "K[a]( p&q )"], "steps": [
        {"formula": "(p&q)", "just": {"kind": "axiom", "name": "Prop"}}]}
    proof = load_proof(doc)
    first, second = proof.hypotheses
    assert first.body.left is second.body is proof.steps[0].formula


def test_chunks_live_for_one_call(monkeypatch):
    """Each parse_formula call tokenizes its chunks again."""
    calls = _tokenized(monkeypatch)
    text = "(p & q) -> (p & q)"
    assert parse_formula(text) == parse_formula(text)
    assert calls == ["p & q", " -> "] * 2


def test_term_group_never_stands_for_a_formula():
    p, rp = Atom("p"), Atom("R", (App("p"),))
    assert parse_formula("(p) & R(p)") == And(p, rp)
    assert parse_formula("R(p) & (p)") == And(rp, p)


def test_tables_live_for_one_call():
    """Equal groups of one text are one object; nothing is kept from one
    call to the next."""
    text = "(p & q) -> (p & q)"
    f = parse_formula(text)
    assert type(f) is Not and f.body.left is f.body.right.body
    g = parse_formula(text)
    assert g == f and g.body.left is not f.body.left
    doc = {"hypotheses": [], "steps": [
        {"formula": text, "just": {"kind": "axiom", "name": "Prop"}}]}
    assert load_proof(doc).steps[0].formula.body.left \
        is not load_proof(doc).steps[0].formula.body.left


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _digest(load_proof(doc)) for name, doc in DOCUMENTS},
        indent=1, sort_keys=True) + "\n")
