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
import io
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pckfo import parser
from pckfo.cli import main
from pckfo.errors import EvalError
from pckfo.model import Model, ProbSpace
from pckfo.parser import load_model, model_to_doc, parse_model

ROOT = Path(__file__).resolve().parents[1]
EVALUATOR = ROOT / "src" / "pckfo" / "evaluator.py"


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


CON = str(ROOT / "fixtures" / "models" / "con.json")


@pytest.mark.parametrize("argv", [
    ["validate", "--model", CON],
    ["classify", "--model", CON],
    ["eval", "--formula", "P[a]>=1/2 p", "--model", CON],
    ["eval", "--formula", "Cs{G,1/2} p", "--state", "s0", "--model", CON],
    ["eval", "--formula", "K[a] p & C{G} p & Es{G,1} p", "--model", CON],
    # these write model documents into their reports
    ["find", "--formula", "P[a]>=1/2 p"],
    ["demo", "validity", "--family", "invalid-distribution"],
    ["demo", "noncompactness", "--m", "2"],
], ids=["validate", "classify", "P", "Cs", "K-C-Es", "find", "validity-demo",
        "noncompactness-demo"])
def test_model_path_builds_no_prob_space(spaces_built, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--json"]) in (0, 1)
    if "--model" not in argv:
        assert '"states"' in out.getvalue()
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


def test_space_builds_one_prob_space(fixtures_dir, spaces_built):
    # the counter does see the space that Model.space builds
    m = parse_model((fixtures_dir / "models" / "con.json").read_text())
    assert spaces_built == []
    sp = m.space("a", "s0")
    assert spaces_built == [sp]


def test_model_to_doc_builds_no_prob_space(spaces_built, workloads):
    # 100 states and agents a, b, as the model-check workload writes them
    doc = workloads.random_model_doc(100, random.Random(5))
    m = load_model(doc)
    assert model_to_doc(m)["prob"] == doc["prob"]
    assert spaces_built == []


def test_model_to_doc_missing_space_is_an_eval_error():
    m = Model(states=["s0", "s1"], domain=["d"], agents=["a"], prob={})
    with pytest.raises(EvalError, match="no probability space for agent"
                       " 'a' at state 's0'"):
        model_to_doc(m)


def _names_in(path):
    """Every name, attribute and imported name the module's code uses."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_prob_space_named_only_in_the_model_module():
    # every other module works on the rows
    named = sorted(path.name for path in (ROOT / "src" / "pckfo").glob("*.py")
                   if "ProbSpace" in _names_in(path))
    assert named == ["__init__.py", "model.py"]


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


# Each makes its document with the workloads module w.
DOCS = {
    "random-60": lambda w: w.random_model_doc(60, random.Random(1)),
    "ladder-40": lambda w: w.ladder_model_doc(40, random.Random(2)),
    "coarse-30": lambda w: w.coarse_model_doc(30, random.Random(3)),
    "random-out-of-order": lambda w: _out_of_order(
        w.random_model_doc(30, random.Random(4))),
    "coarse-out-of-order": lambda w: _out_of_order(
        w.coarse_model_doc(20, random.Random(5))),
    "random-name-outside": lambda w: _name_outside(
        w.random_model_doc(30, random.Random(6))),
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
    functions = {entry["symbol"]: (entry["arity"], {
        tuple(row["args"]): row["value"] for row in entry["table"]})
        for entry in doc.get("functions", [])}
    return Model(states=doc["states"], domain=doc["domain"],
                 agents=doc["agents"], functions=functions,
                 relations=relations,
                 access={agent: frozenset(map(tuple, pairs))
                         for agent, pairs in doc["access"].items()},
                 prob=prob, groups={name: tuple(sorted(members))
                                    for name, members in doc["groups"].items()})


def _first_space(doc):
    """The first space of agent a with two atoms or more."""
    return next(space for space in doc["prob"]["a"].values()
                if len(space["atoms"]) > 1)


def _drop_edge(doc):
    doc["access"]["a"].pop()


def _move_weight(doc):
    weights = _first_space(doc)["weights"]
    weights["0"] = str(Fraction(weights["0"]) + Fraction(weights["1"]))
    weights["1"] = "0"


def _merge_atoms(doc):
    space = _first_space(doc)
    atoms, weights = space["atoms"], space["weights"]
    texts = [weights[str(k)] for k in range(len(atoms))]
    atoms[:2] = [atoms[0] + atoms[1]]
    texts[:2] = [str(Fraction(texts[0]) + Fraction(texts[1]))]
    space["weights"] = {str(k): w for k, w in enumerate(texts)}


def _toggle_tuple(doc):
    table = doc["relations"][0]["table"]
    first = doc["states"][0]
    if table.pop(first, None) is None:
        table[first] = [[]]


def _drop_member(doc):
    doc["groups"]["G"].pop()


def _add_function_row(doc):
    doc["functions"] = [{"symbol": "c", "arity": 0,
                         "table": [{"args": [], "value": "d0"}]}]


# Each changes one item of a document, which shows in one attribute.
CHANGES = {
    "edge": (_drop_edge, "pred"),
    "weight": (_move_weight, "spaces"),
    "split-atom": (_merge_atoms, "spaces"),
    "relation-tuple": (_toggle_tuple, "relations"),
    "group-member": (_drop_member, "groups"),
    "function-row": (_add_function_row, "functions"),
}
COMPARED = ("states", "domain", "agents", "functions", "relations", "groups",
            "names", "pred", "spaces", "strays")


@pytest.mark.parametrize("name", sorted(DOCS))
def test_loaded_rows_are_the_constructed_rows(name, workloads):
    doc = DOCS[name](workloads)
    loaded, built = load_model(doc), _constructed(doc)
    assert loaded.names == built.names
    assert loaded.pred == built.pred
    assert loaded.spaces == built.spaces
    assert loaded.strays == built.strays
    assert loaded == built
    for change, attribute in CHANGES.values():
        other = DOCS[name](workloads)
        change(other)
        changed = load_model(other)
        assert {key for key in COMPARED if getattr(changed, key)
                != getattr(loaded, key)} == {attribute}
        assert changed != loaded and loaded != changed
        assert _constructed(other) != built
    # the class an enumerated model carries takes no part
    again = Model.compiled(*[getattr(loaded, key) for key in COMPARED],
                           orbit=object())
    assert again == loaded and again.orbit is not loaded.orbit
    with pytest.raises(TypeError):
        hash(loaded)


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
def test_canonical_atoms_are_not_sorted_again(name, monkeypatch, workloads):
    calls = _counted(monkeypatch, "space_entry")
    load_model(DOCS[name](workloads))
    if name in CANONICAL:
        assert calls == []
    else:
        assert calls


def test_each_weight_run_parsed_once(monkeypatch, workloads):
    doc = workloads.random_model_doc(400, random.Random(7))
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
