"""A batch of models run as one disjoint union gives every member exactly
what it gives when run alone: each mask, and for each error its type,
message, agent, state, atom and formula."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pckfo import evaluator, oracle
from pckfo.evaluator import Evaluator, Program
from pckfo.model import Model, ProbSpace
from pckfo.oracle import SearchBudget, random_models
from pckfo.parser import parse_formula
from pckfo.syntax import (
    And, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb, Forall,
    Knows, Not, ProbAtLeast, Var, free_vars,
)

F = Fraction


def _key(out):
    """What a member's outcome must keep: the mask, or the error's type,
    message, agent, state and atom, and its formula by identity."""
    if isinstance(out, int):
        return out
    return (type(out), str(out), getattr(out, "agent", None),
            getattr(out, "state", None), getattr(out, "atom", None),
            id(getattr(out, "formula", None)))


def _alone(models, program):
    return [_key(out) for m in models for out in Evaluator(m).run(program)]


def _batched(models, program):
    return [_key(out) for out in Evaluator(*models).run(program)]


def _formula(rng, agents, groups, depth, var):
    """A random formula over every operator, with R(x) where a variable
    is bound or given."""
    roll = rng.random() if depth else 0.0
    if roll < 0.25:
        atoms = [Atom("p"), Atom("q")] + ([Atom("R", (Var(var),))] * 2
                                          if var else [])
        return rng.choice(atoms)
    depth -= 1
    bound = rng.choice((F(0), F(1, 3), F(1, 2), F(1)))
    group = rng.choice(groups)
    if roll < 0.35:
        return Not(_formula(rng, agents, groups, depth, var))
    if roll < 0.5:
        return And(_formula(rng, agents, groups, depth, var),
                   _formula(rng, agents, groups, depth, var))
    if roll < 0.57:
        return Forall("x", _formula(rng, agents, groups, depth, "x"))
    body = _formula(rng, agents, groups, depth, var)
    if roll < 0.65:
        return Knows(rng.choice(agents), body)
    if roll < 0.72:
        return EveryoneKnows(group, body)
    if roll < 0.79:
        return CommonKnows(group, body)
    if roll < 0.88:
        return ProbAtLeast(rng.choice(agents), bound, body)
    if roll < 0.94:
        return EveryoneProb(group, bound, body)
    return CommonProb(group, bound, body)


def _roots(rng, models, count):
    """Random roots over the models' agents and group, and agent z, which
    none declares; open ones under each valuation of x."""
    agents = models[0].agents
    groups = [agents, agents[:1], tuple(models[0].groups), ("z",)]
    agents += ("z",)
    roots = []
    for _ in range(count):
        f = _formula(rng, agents, groups, 4, rng.choice((None, "x")))
        if free_vars(f):
            roots += [(f, {"x": d}) for d in models[0].domain]
        else:
            roots.append((f, None))
    return roots


def _budget(rng, states, atom_mode, domain):
    return SearchBudget(
        max_states=states, max_domain=domain, max_agents=rng.randint(1, 2),
        weight_grid=rng.choice(((F(1, 2), F(1)), (F(0), F(1, 3), F(2, 3),
                                                  F(1)), (F(1),))),
        relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
        atom_mode=atom_mode, sample_mode=rng.choice(("any", "full")),
        seed=rng.randrange(1 << 20))


def _pool(rng, atom_mode, domain):
    """Enumerated models of one and two states, mixed with random ones of
    up to three over the same signature."""
    budget = _budget(rng, 2, atom_mode, domain)
    enumerated = list(itertools.islice(oracle._all_models(budget), 0,
                                       4000, 61))
    return enumerated + random_models(
        SearchBudget(max_states=3, max_domain=domain,
                     max_agents=len(budget.agents),
                     relation_symbols=budget.relation_symbols,
                     atom_mode=atom_mode, seed=budget.seed), 24)


@pytest.mark.parametrize("atom_mode", ["any", "singleton", "merged"])
@pytest.mark.parametrize("domain", [1, 2, 3])
def test_random_batches_match_runs_alone(atom_mode, domain):
    rng = random.Random(f"batched:{atom_mode}:{domain}")
    pool = _pool(rng, atom_mode, domain)
    assert {len(m.states) for m in pool} == {1, 2, 3}
    failed = 0
    for _ in range(6):
        models = rng.sample(pool, rng.randint(2, 12))
        program = Program(_roots(rng, models, 8), models[0].domain)
        want = _alone(models, program)
        assert _batched(models, program) == want
        failed += sum(not isinstance(out, int) for out in want)
    assert failed   # the draws reach errors


def _model(states, p_at, agents=("a",), groups=None, prob=None,
           domain=("d0",), access=None, relations=None):
    """States under one merged atom per agent, p true at p_at."""
    states = tuple(states)
    whole = ProbSpace(frozenset(states), (frozenset(states),), (F(1),))
    rel = {"p": (0, {s: frozenset([()]) for s in p_at})}
    rel.update(relations or {})
    return Model(states=states, domain=domain, agents=agents,
                 relations=rel,
                 access=access if access is not None
                 else {i: frozenset((s, t) for s in states for t in states)
                       for i in agents},
                 prob=prob if prob is not None
                 else {(i, s): whole for i in agents for s in states},
                 groups=groups if groups is not None else {"G": agents})


def test_universal_stops_per_member():
    # At d0 the body is empty in the first model and full in the second;
    # at d1 `P[a]>=1/2 S(x)` cannot be measured in either.  Alone, the
    # first stops at d0 with an empty mask and the second raises.
    f = parse_formula("forall x (R(x) & !P[a]>=1/2 S(x))")
    domain = ("d0", "d1")
    states = ("s0", "s1")

    def member(r_at_d0):
        return _model(states, (), domain=domain, relations={
            "R": (1, {s: frozenset([("d0",), ("d1",)] if r_at_d0
                                   else [("d1",)]) for s in states}),
            "S": (1, {"s0": frozenset([("d1",)])})})

    models = [member(False), member(True), member(False)]
    program = Program([(f, None)], domain)
    want = _alone(models, program)
    assert want[0] == want[2] == 0 and not isinstance(want[1], int)
    assert _batched(models, program) == want


@pytest.mark.parametrize("text", [
    "K[b] p", "E{G} p", "C{G} p", "Es{G,1/2} p", "Cs{G,1/2} p",
    "P[b]>=1/2 p", "!(E{G} p) & C{G} !p",
])
def test_undeclared_agent_charged_per_member(text):
    # G names b, which no model declares: a member is failed for b only
    # while it still has states in (K, E) or a frontier (C)
    groups = {"G": ("a", "b")}
    models = [_model(("s0", "s1"), (), groups=groups),
              _model(("s0", "s1"), ("s0", "s1"), groups=groups),
              _model(("s0", "s1"), ("s0",), groups=groups),
              _model(("s0",), ("s0",), groups=groups)]
    program = Program([(parse_formula(text), None)], ("d0",))
    want = _alone(models, program)
    assert _batched(models, program) == want
    if text.startswith(("E{", "C{")):
        assert len(set(want)) > 1   # some members fail, some do not


def test_missing_space_charged_to_its_member():
    states = ("s0", "s1")
    whole = ProbSpace(frozenset(states), (frozenset(states),), (F(1),))
    missing = _model(states, ("s0",), prob={("a", "s0"): whole})
    models = [_model(states, ("s0",)), missing, _model(states, ())]
    for text in ("P[a]>=1/2 p", "Es{G,1} p", "Cs{G,1/2} p", "K[a] p"):
        program = Program([(parse_formula(text), None)], ("d0",))
        want = _alone(models, program)
        assert _batched(models, program) == want
        assert not isinstance(want[1], int) or text == "K[a] p"


def test_first_straddle_in_agent_then_state_order():
    # agent a straddles only at s1, agent b only at s0: Es{G} measures a's
    # spaces first, so the error names a at s1
    states = ("s0", "s1")
    merged = ProbSpace(frozenset(states), (frozenset(states),), (F(1),))
    point = {s: ProbSpace(frozenset([s]), (frozenset([s]),), (F(1),))
             for s in states}
    prob = {("a", "s0"): point["s0"], ("a", "s1"): merged,
            ("b", "s0"): merged, ("b", "s1"): point["s1"]}
    access = {"a": frozenset([("s0", "s1")]), "b": frozenset([("s1", "s0")])}
    m = _model(states, ("s0",), agents=("a", "b"), prob=prob, access=access)
    models = [_model(states, ("s0",), agents=("a", "b")), m, m]
    program = Program([(parse_formula("Es{G,1/2} p"), None)], ("d0",))
    want = _alone(models, program)
    assert want[1][2:4] == ("a", "s1")
    assert _batched(models, program) == want


def test_scan_batches_give_each_model_its_outcome():
    # a stream whose batches break where the domain changes
    rng = random.Random(5)
    models = []
    for domain in (1, 2, 1):
        budget = _budget(rng, 2, "any", domain)
        models += list(itertools.islice(oracle._all_models(budget), 0,
                                        2000, 23))
    formulas = [parse_formula(t) for t in (
        "P[a]>=1/2 p", "forall x (R(x) -> K[a] R(x))", "C{G} (p | q)",
        "Cs{G,1/3} q")]
    got = [(m, [_key(out) for out in masks])
           for m, masks in oracle._scan(models, formulas)]
    assert [id(m) for m, _ in got] == [id(m) for m in models]
    assert [masks for _, masks in got] == [
        [_key(out) for out in masks]
        for m in models for _, masks in oracle._scan([m], formulas)]


def test_batches_grow_to_the_cap(monkeypatch):
    sizes = []
    original = Evaluator.run

    def counted(self, program):
        sizes.append(len(self.models))
        return original(self, program)

    monkeypatch.setattr(Evaluator, "run", counted)
    m, _, checked = oracle._witness(parse_formula("p & !p"), SearchBudget())
    assert m is None and checked == 25608
    assert sizes[:6] == [1, 2, 4, 8, 16, 32]
    assert max(sizes) == oracle._BATCH and sum(sizes) == 12888


def _functions_comparing(tree, left, right):
    """The functions whose own bodies compare `left` with `right`, in
    either order, in any link of a comparison chain."""
    found = set()
    todo = [(node, None) for node in tree.body]
    while todo:
        node, owner = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Compare):
            sides = [ast.unparse(x) for x in (node.left, *node.comparators)]
            if any({a, b} == {left, right} for a, b in zip(sides, sides[1:])):
                found.add(owner)
        todo.extend((child, owner) for child in ast.iter_child_nodes(node))
    return found


def test_no_function_runs_a_lone_model_apart():
    # A lone model is a batch of one: no function of the evaluator takes
    # a path of its own for it.
    tree = ast.parse(Path(evaluator.__file__).read_text())
    assert _functions_comparing(tree, "len(self.models)", "1") == set()
    planted = ast.parse("class E:\n    def run(self):\n"
                        "        one = self.m if len(self.models) == 1 else 0"
                        "\n    def rows(self):\n"
                        "        return 1 < len(self.models) < 3\n")
    assert _functions_comparing(planted, "len(self.models)", "1") \
        == {"run", "rows"}
