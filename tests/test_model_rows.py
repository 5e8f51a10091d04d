"""A model's rows are its one form on the model path.

`validate`, `classify` and `eval` run on the rows that `load_model`
builds: no `ProbSpace` is constructed on the way, and an `Evaluator`
keeps no rows of its own.
"""

import ast
import contextlib
import importlib.util
import io
import random
from pathlib import Path

import pytest

from pckfo.cli import main
from pckfo.model import ProbSpace
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
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    doc = workloads.random_model_doc(100, random.Random(5))
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
    assert set_in == dict.fromkeys(("model", "full", "_bit", "_groups"),
                                   {"__init__"})
    assert filled == {"_groups"}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    assert not read & {"access", "prob", "space", "successors"}


def _on_self(node):
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")
