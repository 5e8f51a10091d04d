"""The oracle's one enumerate-and-evaluate loop: the verdicts its callers
read from it, and the structure that keeps it one loop."""

import ast
import contextlib
import functools
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pckfo
from pckfo import oracle
from pckfo.cli import main
from pckfo.errors import NotMeasurable
from pckfo.evaluator import Evaluator
from pckfo.model import Model, ProbSpace, positions
from pckfo.oracle import (
    SearchBudget, enumerate_models, enumeration_size, holds_everywhere,
    random_formula, random_models, validity_suite,
)
from pckfo.parser import (
    load_model, model_to_doc, parse_formula, print_formula,
)
from pckfo.report import REJECTED

ORACLE = Path(pckfo.__file__).parent / "oracle.py"


def _suite(monkeypatch, formulas, models):
    """validity_suite over the given pool with the family table replaced
    by the labelled formulas."""
    monkeypatch.setattr(oracle, "_family_formulas",
                        lambda family, agents: list(formulas))
    return validity_suite("epistemic-distribution", SearchBudget(),
                          models=models)


def _reloaded(budget):
    """Every labelled model of the budget as a document read back: the
    same models, in the labelled order, carrying no class."""
    return [load_model(model_to_doc(m)) for m in oracle._all_models(budget)]


def _rows_key(m):
    """A key of m read from its rows: two models of the same states,
    domain and agents are equal if and only if their keys are."""
    return (len(m.states),
            tuple([tuple([table.get(s, frozenset()) for s in m.states])
                   for _, (_, table) in sorted(m.relations.items())]),
            tuple([row for _, row in sorted(m.pred.items())]),
            tuple([row for _, row in sorted(m.spaces.items())]))


@functools.lru_cache(maxsize=None)
def _renaming_tables(pi):
    """The positions in the order of their images under pi (the state at
    position i moves to pi[i]), and per mask its image."""
    return (sorted(range(len(pi)), key=pi.__getitem__),
            [sum(1 << pi[i] for i in positions(mask))
             for mask in range(1 << len(pi))])


@functools.lru_cache(maxsize=None)
def _renamed_space(entry, pi):
    sample, atoms, nums, den = entry
    move = _renaming_tables(pi)[1]
    # atoms in canonical order: by their least state
    pairs = sorted(((move[a], x) for a, x in zip(atoms, nums)),
                   key=lambda pair: pair[0] & -pair[0])
    return (move[sample], tuple(a for a, _ in pairs),
            tuple(x for _, x in pairs), den)


def _renamed(key, pi):
    """The key of the model of `key` with its states renamed by pi."""
    n, relations, pred, spaces = key
    inv, move = _renaming_tables(pi)
    return (n, tuple([tuple([row[i] for i in inv]) for row in relations]),
            tuple([tuple([move[row[i]] for i in inv]) for row in pred]),
            tuple([tuple([_renamed_space(row[i], pi) for i in inv])
                   for row in spaces]))


def _brute_force_classes(budget):
    """Per labelled model of the budget, in order: the model and the
    labelled position of the least member of its class, found by renaming
    it every way and looking each image up among all labelled models."""
    labelled = list(oracle._all_models(budget))
    keys = [_rows_key(m) for m in labelled]
    position = {key: k for k, key in enumerate(keys)}
    return [(m, min([position[_renamed(key, pi)] for pi in
                     itertools.permutations(range(len(m.states)))]))
            for m, key in zip(labelled, keys)]


def _renaming_between(least, member):
    """A renaming of the states that maps least to member."""
    key, target = _rows_key(least), _rows_key(member)
    return next(pi for pi in itertools.permutations(range(len(least.states)))
                if _renamed(key, pi) == target)


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

    def test_enumerated_failures_replayed_at_every_member(self, monkeypatch):
        budget = SearchBudget(max_states=2, sample_mode="full",
                              atom_mode="merged")
        assert len(list(enumerate_models(budget))) < enumeration_size(budget)
        reduced = _suite(monkeypatch, self.FORMULAS, enumerate_models(budget))
        full = _suite(monkeypatch, self.FORMULAS, _reloaded(budget))
        assert reduced.verdict == full.verdict == REJECTED
        assert reduced.details == full.details
        assert reduced.artifacts == full.artifacts
        assert json.dumps(reduced.artifacts) == json.dumps(full.artifacts)


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


def _outcome(out):
    """What a scan outcome must keep under renaming: the mask, or the
    error's type, and the formula and agent a NotMeasurable names."""
    if isinstance(out, int):
        return out
    return type(out), getattr(out, "formula", None), getattr(out, "agent",
                                                              None)


def _random_budget(rng, states, sample_mode=None, atom_mode=None,
                   repeat=False):
    """A random budget with a unary relation symbol, models at its largest
    state count and no more than a few thousand models in all; `repeat`
    gives its grid a repeated value."""
    weights = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(3, 4)]
    while True:
        grid = rng.sample(weights, rng.randint(0, 2)) + [Fraction(1)]
        rng.shuffle(grid)
        if repeat:
            grid.append(grid[0])
        budget = SearchBudget(
            max_states=states,
            max_agents=rng.randint(1, 2), max_domain=rng.randint(1, 2),
            weight_grid=grid, relation_symbols=(("R", 1),),
            sample_mode=sample_mode or rng.choice(("any", "full")),
            atom_mode=atom_mode or rng.choice(("any", "singleton", "merged")))
        sizes = {n: labelled for n, labelled, _ in oracle._shape_counts(
            budget, oracle._everything(budget))}
        if budget.max_states in sizes and sum(sizes.values()) <= 4500:
            return budget


def _moved(out, pi):
    """A scan outcome at a model, moved to its renaming by pi."""
    if isinstance(out, int):
        return sum(1 << pi[i] for i in positions(out))
    return out


def test_reduced_scan_matches_every_model_evaluated():
    # Each labelled model, reloaded and scanned on its own, has the
    # outcome of its class's least member, moved by the renaming between
    # them; the members of the classes are every labelled model, once.
    rng = random.Random(21)
    budgets = [_random_budget(rng, 2, sample_mode, atom_mode,
                              repeat=not k)
               for k, (sample_mode, atom_mode) in enumerate(
                   (s, a) for s in ("any", "full")
                   for a in ("any", "singleton", "merged"))]
    budgets.append(_random_budget(rng, 3))
    states = set()
    shared = 0
    for budget in budgets:
        # agent b, where undeclared, makes some formulas raise EvalError
        formulas = [random_formula(rng, agents, depth=3, vars_allowed=("x",))
                    for agents in [budget.agents] * 6 + [("a", "b")] * 2]
        expected = [[_outcome(out) for out in masks]
                    for _, masks in oracle._scan(_reloaded(budget), formulas)]
        got = [None] * len(expected)
        for least, masks in oracle._scan(enumerate_models(budget), formulas):
            members = oracle._members(least.orbit)
            assert len(members) == least.orbit.size
            shared += len(members) > 1
            states.add(len(least.states))
            for position, member in members:
                assert got[position] is None
                pi = _renaming_between(least, member)
                got[position] = [_outcome(_moved(out, pi)) for out in masks]
        assert got == expected
    assert shared and states == {1, 2, 3}


@pytest.mark.parametrize("budget", [
    SearchBudget(),
    SearchBudget(max_states=2, max_agents=2, sample_mode="full",
                 atom_mode="merged",
                 weight_grid=(Fraction(0), Fraction(1, 2), Fraction(1))),
    SearchBudget(max_states=3, weight_grid=(Fraction(1, 3),),
                 sample_mode="full", atom_mode="singleton",
                 max_models=50_000),
    SearchBudget(max_states=3, relation_symbols=(("p", 0),),
                 weight_grid=(Fraction(0), Fraction(1)), sample_mode="full",
                 atom_mode="merged"),
], ids=["find", "demo", "invalid-distribution", "3-states-merged"])
def test_orbit_class_size_counts_every_member(budget):
    # The class stream is exactly the labelled models that are least in
    # their class, in the labelled order; each carries its labelled
    # position and its members, whose number is its class size.
    referee = _brute_force_classes(budget)
    members = {}
    for k, (m, least) in enumerate(referee):
        members.setdefault(least, []).append((k, _rows_key(m)))
    stream = list(enumerate_models(budget))
    assert [_rows_key(m) for m in stream] \
        == [_rows_key(m) for k, (m, least) in enumerate(referee) if k == least]
    sizes = 0
    for m in stream:
        position = oracle._position(m.orbit.shape, m.orbit.rel, m.orbit.acc,
                                    m.orbit.sp)
        assert [(k, _rows_key(member)) for k, member
                in oracle._members(m.orbit)] == members[position]
        assert m.orbit.size == len(members[position])
        sizes += m.orbit.size
    assert sizes == enumeration_size(budget) == len(referee)


def test_scan_evaluates_each_class_once_at_three_states(monkeypatch):
    # classes of up to 3! members, each evaluated once at its least member
    budget = SearchBudget(max_states=3, relation_symbols=(("p", 0),),
                          weight_grid=(Fraction(0), Fraction(1)),
                          sample_mode="full", atom_mode="merged")
    runs = _evaluator_runs(monkeypatch)
    scanned = [m for m, _ in oracle._scan(enumerate_models(budget),
                                          [parse_formula("K[a] p")])]
    assert sum(m.orbit.size for m in scanned) == enumeration_size(budget)
    assert len(runs) == len(scanned) == 792


def _evaluator_runs(monkeypatch):
    """The list of models that Evaluator.run evaluates from now: every
    model of each run's batch."""
    runs = []
    original = Evaluator.run

    def counted(self, program):
        runs.extend(self.models)
        return original(self, program)

    monkeypatch.setattr(Evaluator, "run", counted)
    return runs


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("family", oracle.VALIDITY_FAMILIES)
def test_validity_demo_evaluates_one_model_per_class(monkeypatch, family):
    runs = _evaluator_runs(monkeypatch)
    code, rep = _main("demo", "validity", "--family", family, "--json")
    assert code == 0
    assert rep["details"][-1]["models"] == 4112 + 50
    assert len(runs) == 2096 + 50


def test_find_evaluates_one_model_per_class(monkeypatch):
    # only the classes of p's tables: 2 at one state, 3 at two
    runs = _evaluator_runs(monkeypatch)
    code, rep = _main("find", "--formula", "p & !p", "--json")
    assert code == 1
    assert rep["details"][0]["models_checked"] == 25608
    assert len(runs) == 5


@pytest.mark.parametrize("formula, classes", [
    ("K[a] q & !K[a] q", 40), ("K[a] p & !K[a] p & P[a]>=1/2 q", 12888)])
def test_find_evaluates_the_classes_its_formula_reads(monkeypatch, formula,
                                                      classes):
    # the classes of q's tables and a's access; of every coordinate
    runs = _evaluator_runs(monkeypatch)
    code, rep = _main("find", "--formula", formula, "--json")
    assert code == 1
    assert rep["details"][0]["models_checked"] == 25608
    assert len(runs) == classes


def _models_built(monkeypatch):
    """The list that every `Model.compiled` call appends its model to from
    now: every enumerated or random model built."""
    built = []
    original = Model.compiled.__func__

    def counted(cls, *args, **kwargs):
        m = original(cls, *args, **kwargs)
        built.append(m)
        return m

    monkeypatch.setattr(Model, "compiled", classmethod(counted))
    return built


@pytest.mark.parametrize("family", oracle.VALIDITY_FAMILIES)
def test_validity_demo_builds_one_model_per_class(monkeypatch, family):
    built = _models_built(monkeypatch)
    code, rep = _main("demo", "validity", "--family", family, "--json")
    assert code == 0
    assert rep["details"][-1]["models"] == 4112 + 50
    assert len(built) <= 2096 + 50


def test_find_builds_one_model_per_class(monkeypatch):
    built = _models_built(monkeypatch)
    code, rep = _main("find", "--formula", "p & !p", "--json")
    assert code == 1
    assert rep["details"][0]["models_checked"] == 25608
    assert len(built) <= 5


@pytest.mark.parametrize("formula", [
    "p & !p", "K[a] q & !K[a] q", "P[a]>=1/2 p & P[a]>=1/2 !p & !p & !q",
    "Cs{a,1/2} p & !p", "C{a} p & !p & K[a] q"])
def test_find_builds_as_many_models_for_a_second_agent(monkeypatch, formula):
    # Growth contract: the models find builds grow with the coordinates
    # its formula reads, not with the budget's other agents.
    built = _models_built(monkeypatch)
    counts = []
    for agents in ("1", "2"):
        built.clear()
        code, rep = _main("find", "--formula", formula, "--budget-agents",
                          agents, "--json")
        counts.append(len(built))
    assert counts[0] == counts[1]


def _functions_calling(tree, name):
    """The functions whose own bodies call `name(...)`, a name or a dotted
    attribute of a name."""
    found = set()
    todo = [(node, None) for node in tree.body]
    while todo:
        node, owner = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == name:
            found.add(owner)
        todo.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


def test_evaluator_is_built_only_in_scan():
    # Every enumerate-and-evaluate loop of the oracle goes through _scan,
    # and every enumerated model is built by _model: the random models
    # and the two non-compactness witnesses are the only others.
    tree = ast.parse(ORACLE.read_text())
    assert _functions_calling(tree, "Evaluator") == {"_scan"}
    assert _functions_calling(tree, "Model.compiled") \
        == {"_model", "random_model", "targeted_class_models",
            "chain_model", "near_certain_model"}
    assert _functions_calling(tree, "_model") == {"_all_models", "_members"}


# Budgets small enough to scan every labelled model: two agents over
# singleton spaces and the one symbol p (q reads empty everywhere), and
# the default budget, where agent b is undeclared.
_REFEREE_BUDGETS = {
    "two-agents": SearchBudget(
        max_agents=2, relation_symbols=(("p", 0),),
        weight_grid=(Fraction(0), Fraction(1)), sample_mode="full",
        atom_mode="singleton"),
    "default": SearchBudget(),
}

_REFEREE_FORMULAS = [
    "P[b]>=1/2 p & !p", "P[b]>=1 p & !P[a]>=1 p & K[a] !p", "E{G} p & !p",
    "C{G} !q & K[a] p", "Es{G,1/2} p & !K[a] p", "Cs{G,1/2} p & !p",
    "K[b] p", "E{a,b} q & !K[b] q", "!P[b]>=1/2 q & K[b] p & !p",
    "p & !p", "P[a]>=1/3 p & !P[a]>=2/3 p", "p & !K[a] p", "q & !K[a] q",
    "p & P[b]>=1 !p & !K[a] !(!p & P[b]>=1 p)",
]


def _labelled_witnesses(budget, formulas):
    """Per formula, the first labelled model where it holds somewhere, as
    a document, that state and its position plus 1; on a miss, None, None
    and every labelled model."""
    found = [None] * len(formulas)
    for k, (m, masks) in enumerate(oracle._scan(oracle._all_models(budget),
                                                formulas)):
        for j, mask in enumerate(masks):
            if found[j] is None and isinstance(mask, int) and mask:
                found[j] = (model_to_doc(m),
                            m.states[(mask & -mask).bit_length() - 1], k + 1)
    return [out or (None, None, enumeration_size(budget)) for out in found]


@pytest.mark.parametrize("name", sorted(_REFEREE_BUDGETS))
def test_find_witness_matches_the_labelled_enumeration(name):
    # The cone of influence changes no byte of find: its witness, state
    # and models_checked are those of the full labelled enumeration.
    budget = _REFEREE_BUDGETS[name]
    rng = random.Random(37)
    formulas = [parse_formula(text) for text in _REFEREE_FORMULAS]
    formulas += [random_formula(rng, ("a", "b"), depth=3) for _ in range(12)]
    expected = _labelled_witnesses(budget, formulas)
    narrower = 0
    for f, want in zip(formulas, expected):
        m, s, checked = oracle._witness(f, budget)
        assert (m and model_to_doc(m), s, checked) == want, print_formula(f)
        narrower += oracle._cone(f, budget) != oracle._everything(budget)
    assert narrower >= 10
    assert {w[0] is None for w in expected} == {True, False}
