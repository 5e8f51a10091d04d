"""A model's rows are its one form on the model path.

`validate`, `classify` and `eval` run on the rows that `load_model`
builds: no `ProbSpace` is constructed on the way, and an `Evaluator`
keeps no rows of its own.  The rows `load_model` builds are those the
`Model` constructor compiles from the same document's spaces, and
loading a document parses each run of weight texts once and sorts no
atoms that are already in canonical order.
"""

import ast
import contextlib
import importlib.util
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pckfo import parser
from pckfo.cli import main
from pckfo.model import Model, ProbSpace
from pckfo.parser import load_model, model_to_doc, parse_model

ROOT = Path(__file__).resolve().parents[1]
EVALUATOR = ROOT / "src" / "pckfo" / "evaluator.py"


def _workloads():
    """perfbench/workloads.py, which writes the model-check documents."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()


@pytest.fixture()
def spaces_built(monkeypatch):
    """The list of every ProbSpace constructed while the test runs."""
    built = []
    original = ProbSpace.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ProbSpace, "__post_init__", counted)
    return built


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["classify"],
    ["eval", "--formula", "P[a]>=1/2 p"],
    ["eval", "--formula", "Cs{G,1/2} p", "--state", "s0"],
    ["eval", "--formula", "K[a] p & C{G} p & Es{G,1} p"],
], ids=["validate", "classify", "P", "Cs", "K-C-Es"])
def test_model_path_builds_no_prob_space(fixtures_dir, spaces_built, argv):
    model = str(fixtures_dir / "models" / "con.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--model", model, "--json"]) in (0, 1)
    assert spaces_built == []


def test_not_measurable_builds_no_prob_space(tmp_path, spaces_built):
    path = tmp_path / "coarse.json"
    path.write_text(
        '{"states": ["s0", "s1"], "domain": ["d0"], "agents": ["a"],'
        ' "relations": [{"symbol": "p", "arity": 0, "table": {"s0": [[]]}}],'
        ' "prob": {"a": {"s0": {"sample": ["s0", "s1"], "atoms":'
        ' [["s1", "s0"]], "weights": {"0": "1"}}}}}')
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["eval", "--model", str(path), "--formula",
                     "P[a]>=1/2 p"])
    assert code == 5
    assert "straddles atom ['s0', 's1'] in the space of agent 'a' at" \
        " state 's0'" in err.getvalue()
    assert spaces_built == []


def test_views_build_prob_spaces(fixtures_dir, spaces_built):
    # the counter does see the spaces that a view builds
    m = parse_model((fixtures_dir / "models" / "con.json").read_text())
    assert spaces_built == []
    assert len(m.prob) == len(spaces_built) == 2


def test_model_to_doc_builds_each_space_once(spaces_built):
    # 100 states and agents a, b, as the model-check workload writes them;
    # the prob view builds every space on each read, so reading it per
    # state made this quadratic
    doc = WORKLOADS.random_model_doc(100, random.Random(5))
    m = load_model(doc)
    assert model_to_doc(m)["prob"] == doc["prob"]
    assert len(spaces_built) <= len(m.agents) * len(m.states) == 200


def test_evaluator_keeps_no_rows():
    """An Evaluator sets its attributes in __init__ only, fills only the
    resolved groups afterwards, and reads no view of the model."""
    tree = ast.parse(EVALUATOR.read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Evaluator")
    set_in, filled = {}, set()
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Subscript):
                    t = t.value
                    if _on_self(t):
                        filled.add(t.attr)
                elif _on_self(t):
                    set_in.setdefault(t.attr, set()).add(fn.name)
    assert set_in == dict.fromkeys(
        ("model", "models", "full", "_starts", "_groups"), {"__init__"})
    assert filled == {"_groups"}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert not read & {"access", "prob", "space", "successors"}


def _on_self(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _out_of_order(doc):
    """doc with every space's atoms and weights listed last atom first."""
    for per_state in doc["prob"].values():
        for space in per_state.values():
            space["atoms"].reverse()
            texts = list(space["weights"].values())[::-1]
            space["weights"] = {str(k): w for k, w in enumerate(texts)}
    return doc


def _name_outside(doc):
    """doc with one name that is not a state, in an edge and in a space."""
    first = doc["states"][0]
    doc["access"]["a"].append(["zz", first])
    space = doc["prob"]["b"][first]
    space["sample"].append("zz")
    space["atoms"][-1].append("zz")
    return doc


DOCS = {
    "random-60": lambda: WORKLOADS.random_model_doc(60, random.Random(1)),
    "ladder-40": lambda: WORKLOADS.ladder_model_doc(40, random.Random(2)),
    "coarse-30": lambda: WORKLOADS.coarse_model_doc(30, random.Random(3)),
    "random-out-of-order": lambda: _out_of_order(
        WORKLOADS.random_model_doc(30, random.Random(4))),
    "coarse-out-of-order": lambda: _out_of_order(
        WORKLOADS.coarse_model_doc(20, random.Random(5))),
    "random-name-outside": lambda: _name_outside(
        WORKLOADS.random_model_doc(30, random.Random(6))),
}
CANONICAL = ("random-60", "ladder-40", "coarse-30")


def _constructed(doc):
    """The Model constructor's model of doc, fed ProbSpaces."""
    prob = {}
    for agent, per_state in doc["prob"].items():
        for state, space in per_state.items():
            prob[(agent, state)] = ProbSpace(
                frozenset(space["sample"]),
                tuple([frozenset(atom) for atom in space["atoms"]]),
                tuple([Fraction(space["weights"][str(k)])
                       for k in range(len(space["atoms"]))]))
    relations = {entry["symbol"]: (entry["arity"], {
        state: frozenset(map(tuple, rows))
        for state, rows in entry["table"].items()})
        for entry in doc["relations"]}
    return Model(states=doc["states"], domain=doc["domain"],
                 agents=doc["agents"], relations=relations,
                 access={agent: frozenset(map(tuple, pairs))
                         for agent, pairs in doc["access"].items()},
                 prob=prob, groups={name: tuple(sorted(members))
                                    for name, members in doc["groups"].items()})


@pytest.mark.parametrize("name", sorted(DOCS))
def test_loaded_rows_are_the_constructed_rows(name):
    doc = DOCS[name]()
    loaded, built = load_model(doc), _constructed(doc)
    assert loaded.names == built.names
    assert loaded.pred == built.pred
    assert loaded.spaces == built.spaces
    assert loaded.strays == built.strays
    assert loaded == built


def _counted(monkeypatch, name):
    """The list of the calls of parser.<name> while the test runs."""
    calls = []
    original = getattr(parser, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(parser, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(DOCS))
def test_canonical_atoms_are_not_sorted_again(name, monkeypatch):
    calls = _counted(monkeypatch, "space_entry")
    load_model(DOCS[name]())
    if name in CANONICAL:
        assert calls == []
    else:
        assert calls


def test_each_weight_run_parsed_once(monkeypatch):
    doc = WORKLOADS.random_model_doc(400, random.Random(7))
    # four of agent a's spaces get coarser atoms and other weights, one
    # run twice; the other 796 spaces share one run of eight weights
    for state, texts in zip(doc["states"], (
            ["1/4", "3/4"], ["3/4", "1/4"], ["1/4", "3/4"], ["1"])):
        space = doc["prob"]["a"][state]
        sample = space["sample"]
        space["atoms"] = [sample[:4], sample[4:]] if len(texts) == 2 \
            else [sample]
        space["weights"] = {str(k): w for k, w in enumerate(texts)}
    runs = {tuple(space["weights"].items())
            for per_state in doc["prob"].values()
            for space in per_state.values()}
    calls = _counted(monkeypatch, "_weights")
    m = load_model(doc)
    assert len(calls) == len(runs) == 4
    assert m == _constructed(doc)
