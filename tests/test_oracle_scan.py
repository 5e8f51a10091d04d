"""The oracle's one enumerate-and-evaluate loop: the verdicts its callers
read from it, and the structure that keeps it one loop."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import pckfo
from pckfo import oracle
from pckfo.errors import NotMeasurable
from pckfo.model import Model, ProbSpace
from pckfo.oracle import SearchBudget, holds_everywhere, random_models, \
    validity_suite
from pckfo.parser import model_to_doc, parse_formula
from pckfo.report import REJECTED

ORACLE = Path(pckfo.__file__).parent / "oracle.py"


def _suite(monkeypatch, formulas, models):
    """validity_suite over the given pool with the family table replaced
    by the labelled formulas."""
    monkeypatch.setattr(oracle, "_family_formulas",
                        lambda family, agents: list(formulas))
    return validity_suite("epistemic-distribution", SearchBudget(),
                          models=models)


def _p_states(m):
    table = m.relations["p"][1]
    return {s for s in m.states if () in table.get(s, ())}


class TestFalsifiedSuite:
    FORMULAS = (("atom", parse_formula("p")),
                ("coarse", parse_formula("P[a]>=1/2 p")),
                ("negation", parse_formula("!p")))

    @pytest.fixture
    def pool(self):
        # One merged atom over the whole state set: an event measures only
        # when it is empty or everything.
        budget = SearchBudget(max_states=2, sample_mode="full",
                              atom_mode="merged", seed=11)
        return random_models(budget, 12, tag="falsified-suite")

    def test_counterexamples_in_model_then_formula_order(self, monkeypatch,
                                                         pool):
        rep = _suite(monkeypatch, self.FORMULAS, pool)
        expected, skipped = [], 0
        for m in pool:
            p = _p_states(m)
            if p != set(m.states):
                expected.append((m, "atom"))
            if not p:
                expected.append((m, "coarse"))   # measures 0
            elif p != set(m.states):
                skipped += 1
            if p:
                expected.append((m, "negation"))
        assert expected and skipped   # the seed reaches every path
        assert rep.verdict == REJECTED
        failed = [d for d in rep.details if "problem" in d]
        assert [d["instance"] for d in failed] == [lab for _, lab in expected]
        assert sorted(rep.artifacts) == sorted(
            f"counterexample-{k}" for k in range(1, len(expected) + 1))
        for k, (m, _) in enumerate(expected, 1):
            assert rep.artifacts[f"counterexample-{k}"] == model_to_doc(m)
        summary = rep.details[-1]
        assert summary["failures"] == len(expected)
        assert summary["skipped_not_measurable"] == skipped
        assert summary["models"] == len(pool)


def _two_element_model(first, second):
    """Two states under one merged atom, and R holding at `first` of d0
    and at `second` of d1: `P[a]>=1/2 R(x)` reads false everywhere for an
    empty set, and not measurable for one state."""
    states = ("s0", "s1")
    space = ProbSpace(frozenset(states), (frozenset(states),), (Fraction(1),))
    table = {s: frozenset(row for row, at in ((("d0",), first),
                                              (("d1",), second)) if s in at)
             for s in states}
    return Model(states=states, domain=("d0", "d1"), agents=("a",),
                 relations={"R": (1, table)}, access={"a": frozenset()},
                 prob={("a", s): space for s in states},
                 groups={"G": ("a",)})


class TestValuationOrder:
    F = parse_formula("P[a]>=1/2 R(x)")

    def test_earlier_false_beats_later_not_measurable(self, monkeypatch):
        m = _two_element_model(first=(), second=("s0",))
        assert holds_everywhere(m, self.F) is False
        summary = _suite(monkeypatch, [("open", self.F)], [m]).details[-1]
        assert (summary["failures"], summary["skipped_not_measurable"]) \
            == (1, 0)

    def test_earlier_not_measurable_beats_later_false(self, monkeypatch):
        m = _two_element_model(first=("s0",), second=())
        with pytest.raises(NotMeasurable):
            holds_everywhere(m, self.F)
        summary = _suite(monkeypatch, [("open", self.F)], [m]).details[-1]
        assert (summary["failures"], summary["skipped_not_measurable"]) \
            == (0, 1)


def _functions_constructing(tree, name):
    """The functions whose own bodies call `name(...)`."""
    found = set()
    todo = [(node, None) for node in tree.body]
    while todo:
        node, owner = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name):
            found.add(owner)
        todo.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


def test_evaluator_is_built_only_in_scan():
    # Every enumerate-and-evaluate loop of the oracle goes through _scan.
    tree = ast.parse(ORACLE.read_text())
    assert _functions_constructing(tree, "Evaluator") == {"_scan"}
