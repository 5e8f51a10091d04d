"""Model and proof documents are decoded and loaded with the collector paused.

`parser.load_document` is the one path from a JSON text to a loaded model
or proof.  It keeps Python's cyclic garbage collector off while it decodes
and loads, and switches it back on, on every exit, only if it was on at
entry.  The pause is safe because a successful load leaves no cyclic
garbage behind: reference counting frees everything it drops.
"""

import gc
import json
import random
from pathlib import Path

import pytest

from pckfo import cli, parser
from pckfo.errors import ParseError, SchemaError
from pckfo.parser import (
    load_model, load_proof, parse_model, parse_proof, proof_to_doc,
)
from pckfo.prooflib import fixed_point_proof

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
MODEL = FIXTURES / "models" / "con.json"
PROOF = FIXTURES / "proofs" / "group_pair.json"


@pytest.fixture()
def collector_on():
    """The collector on while the test runs, and as it was afterwards."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


@pytest.fixture()
def collector_off():
    """The collector off while the test runs, and as it was afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _recorder(monkeypatch, module, name):
    """Replace module.name by a wrapper; the list it returns gets
    gc.isenabled() at each call."""
    seen = []
    original = getattr(module, name)

    def recorded(doc):
        seen.append(gc.isenabled())
        return original(doc)

    monkeypatch.setattr(module, name, recorded)
    return seen


@pytest.mark.usefixtures("collector_on")
@pytest.mark.parametrize("name, parse, path", [
    ("load_model", parse_model, MODEL),
    ("load_proof", parse_proof, PROOF),
], ids=["model", "proof"])
def test_loader_runs_with_the_collector_paused(monkeypatch, name, parse,
                                               path):
    seen = _recorder(monkeypatch, parser, name)
    parse(path.read_text())
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.usefixtures("collector_on")
def test_cli_loads_its_model_with_the_collector_paused(monkeypatch, capsys):
    seen = _recorder(monkeypatch, cli, "load_model")
    assert cli.main(["validate", "--model", str(MODEL), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "ok"
    assert seen == [False]
    assert gc.isenabled()


FAILURES = {
    "not-json": (parse_model, "{", SchemaError, "not valid JSON"),
    "too-deep": (parse_model, "[" * 100_000, SchemaError,
                 "nested too deeply"),
    "schema": (parse_model, "[]", SchemaError, "must be an object"),
    "step-text": (parse_proof, json.dumps(
        {"steps": [{"formula": "p &", "just": {"rule": "hyp", "index": 0}}]}),
        ParseError, "unexpected end of input"),
}


@pytest.mark.usefixtures("collector_on")
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_collector_back_on_after_a_failed_load(case):
    parse, text, error, message = FAILURES[case]
    with pytest.raises(error, match=message):
        parse(text)
    assert gc.isenabled()


@pytest.mark.usefixtures("collector_off")
def test_collector_left_off_when_the_caller_switched_it_off():
    parse_model(MODEL.read_text())
    parse_proof(PROOF.read_text())
    assert not gc.isenabled()
    for parse, text, error, _ in FAILURES.values():
        with pytest.raises(error):
            parse(text)
        assert not gc.isenabled()


@pytest.mark.usefixtures("collector_on")
def test_no_collection_starts_while_a_large_model_loads(workloads):
    text = json.dumps(workloads.random_model_doc(400, random.Random(7)))
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        m = parser.load_document(text, load_model, "not valid JSON")
    finally:
        gc.callbacks.remove(record)
    assert len(m.states) == 400
    assert started == []


def _documents(workloads):
    """(name, text, loader) of every fixture document, two large workload
    models and a long proof."""
    for path in sorted((FIXTURES / "models").glob("*.json")):
        yield path.name, path.read_text(), load_model
    for path in sorted((FIXTURES / "proofs").glob("*.json")):
        yield path.name, path.read_text(), load_proof
    yield "random-400", json.dumps(
        workloads.random_model_doc(400, random.Random(1))), load_model
    yield "ladder-300", json.dumps(
        workloads.ladder_model_doc(300, random.Random(2))), load_model
    yield "fixed-point-16", json.dumps(
        proof_to_doc(fixed_point_proof(16))), load_proof


def test_a_successful_load_leaves_no_cyclic_garbage(workloads):
    # error paths are left out: a traceback may hold a cycle
    seen = 0
    for name, text, load in _documents(workloads):
        gc.collect()
        loaded = parser.load_document(text, load, "not valid JSON")
        del loaded
        assert gc.collect() == 0, name
        seen += 1
    assert seen == 11
