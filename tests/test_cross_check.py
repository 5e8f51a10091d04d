"""Dual-route check: a deliberately naive per-state evaluator, written
straight from the satisfaction clauses with fixed points replaced by bounded
unrolling, must agree with the production evaluator everywhere."""

import random
from fractions import Fraction

import pytest

from pckfo.evaluator import Evaluator, Program
from pckfo.model import Model
from pckfo.oracle import SearchBudget, random_formula, random_models
from pckfo.syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Knows, Not, ProbAtLeast, Var, implies, iterate_everyone,
    prob_common_stage,
)
from test_batched_runs import _pool, _roots

F = Fraction


def naive_term(m, v, t):
    if isinstance(t, Var):
        return v[t.name]
    return m.functions[t.fn][1][tuple(naive_term(m, v, a) for a in t.args)]


def naive(m, s, v, f):
    if isinstance(f, Atom):
        entry = m.relations.get(f.rel)
        if entry is None:
            return False
        args = tuple(naive_term(m, v, a) for a in f.args)
        return args in entry[1].get(s, frozenset())
    if isinstance(f, Not):
        return not naive(m, s, v, f.body)
    if isinstance(f, And):
        return naive(m, s, v, f.left) and naive(m, s, v, f.right)
    if isinstance(f, Forall):
        return all(naive(m, s, {**v, f.var: d}, f.body) for d in m.domain)
    if isinstance(f, Knows):
        return all(naive(m, t, v, f.body) for t in m.successors(f.agent, s))
    if isinstance(f, EveryoneKnows):
        return all(naive(m, s, v, Knows(i, f.body))
                   for i in m.resolve_group(f.group))
    if isinstance(f, CommonKnows):
        return all(naive(m, s, v, iterate_everyone(f.group, k, f.body))
                   for k in range(1, len(m.states) + 2))
    if isinstance(f, ProbAtLeast):
        sp = m.space(f.agent, s)
        event = frozenset(t for t in sp.sample if naive(m, t, v, f.body))
        return sp.measure(event, agent=f.agent, state=s) >= f.bound
    if isinstance(f, EveryoneProb):
        return all(
            naive(m, s, v, Knows(i, ProbAtLeast(i, f.bound, f.body)))
            for i in m.resolve_group(f.group))
    if isinstance(f, CommonProb):
        return all(
            naive(m, s, v, prob_common_stage(f.group, f.bound, k, f.body))
            for k in range(len(m.states) + 2))
    raise TypeError(f)


def _wrapped_formulas(rng, agents):
    base = random_formula(rng, agents, depth=2)
    out = [base,
           random_formula(rng, agents, depth=3),
           CommonKnows(("G",), base),
           CommonProb(("G",), rng.choice((F(0), F(1, 2), F(1))), base),
           Forall("x", random_formula(rng, agents, depth=1,
                                      vars_allowed=("x",)))]
    return out


def test_naive_and_extension_evaluators_agree():
    budget = SearchBudget(max_states=3, max_domain=2, max_agents=2,
                          relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
                          atom_mode="singleton", seed=1234)
    rng = random.Random("cross-check")
    for m in random_models(budget, 60, tag="cross"):
        ev = Evaluator(m)
        for f in _wrapped_formulas(rng, m.agents):
            for s in m.states:
                assert ev.satisfies(s, f) == naive(m, s, {}, f), (s, f)


def test_one_program_for_many_formulas_agrees_with_naive():
    # every formula of a batch, open ones under each valuation, in one
    # program, so subformulas are shared between formulas and between the
    # values of a quantifier and the formulas around it
    budget = SearchBudget(max_states=3, max_domain=2, max_agents=2,
                          relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
                          atom_mode="singleton", seed=4321)
    rng = random.Random("cross-check-program")
    rx = Atom("R", (Var("x"),))
    for m in random_models(budget, 40, tag="cross-program"):
        roots = []
        for _ in range(3):
            f = _wrapped_formulas(rng, m.agents)[-1]
            g = random_formula(rng, m.agents, depth=2, vars_allowed=("x",))
            roots.append((f, {}))
            for d in m.domain:
                roots.append((And(f, g), {"x": d}))
                roots.append((And(g, Forall("x", implies(g, rx))), {"x": d}))
        got = Evaluator(m).run(Program(roots, m.domain))
        for (f, v), mask in zip(roots, got):
            want = sum(1 << k for k, s in enumerate(m.states)
                       if naive(m, s, v, f))
            assert mask == want, (f, v)


@pytest.mark.parametrize("atom_mode", ["any", "singleton", "merged"])
@pytest.mark.parametrize("domain", [1, 2, 3])
def test_batch_draws_run_alone_agree_with_naive(atom_mode, domain):
    # The draws of test_random_batches_match_runs_alone, each model run
    # alone: every outcome that is a mask is naive's.  That test compares
    # a batch with its members run alone, which take the same path.
    rng = random.Random(f"batched:{atom_mode}:{domain}")
    pool = _pool(rng, atom_mode, domain)
    masks = 0
    for _ in range(6):
        models = rng.sample(pool, rng.randint(2, 12))
        roots = _roots(rng, models, 8)
        program = Program(roots, models[0].domain)
        for m in models:
            for (f, v), out in zip(roots, Evaluator(m).run(program)):
                if isinstance(out, int):
                    want = sum(1 << k for k, s in enumerate(m.states)
                               if naive(m, s, v or {}, f))
                    assert out == want, (f, v)
                    masks += 1
    assert masks


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((Var("x"), App("c")))
    if rng.random() < 0.5:
        return App("f", (_random_term(rng, depth - 1),))
    return App("g", (_random_term(rng, depth - 1),
                     _random_term(rng, depth - 1)))


def test_nested_terms_agree_with_naive():
    # random rigid function tables, and atoms over nested applications of
    # them, alone, under a modal operator and under a universal
    budget = SearchBudget(max_states=3, max_domain=2, max_agents=2,
                          relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
                          atom_mode="singleton", seed=2468)
    rng = random.Random("cross-check-terms")
    for m in random_models(budget, 20, tag="cross-terms"):
        dom = m.domain
        m = Model.compiled(m.states, dom, m.agents, {
            "c": (0, {(): rng.choice(dom)}),
            "f": (1, {(d,): rng.choice(dom) for d in dom}),
            "g": (2, {(d, e): rng.choice(dom) for d in dom for e in dom})},
            m.relations, m.groups, m.names, m.pred, m.spaces)
        roots = []
        for _ in range(6):
            f = Atom("R", (_random_term(rng, 4),))
            g = Knows(m.agents[0], Atom("R", (_random_term(rng, 3),)))
            roots += [(f, {"x": d}) for d in dom]
            roots += [(And(f, g), {"x": dom[-1]}), (Forall("x", f), {})]
        got = Evaluator(m).run(Program(roots, dom))
        for (f, v), mask in zip(roots, got):
            want = sum(1 << k for k, s in enumerate(m.states)
                       if naive(m, s, v, f))
            assert mask == want, (f, v)


def test_accepted_theorems_hold_on_random_models():
    # rule soundness end to end: whatever the proof checker accepts from the
    # empty theory must be satisfied at every state of every sampled model
    from pckfo.oracle import holds_everywhere
    from pckfo.proofcheck import check
    from pckfo.prooflib import (
        fixed_point_proof, group_pair_proof, k_distribution_proof,
        random_finitary_proof,
    )

    budget = SearchBudget(max_states=3, max_domain=1, max_agents=2,
                          relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
                          atom_mode="singleton", seed=777)
    pool = random_models(budget, 25, tag="theorem-validity")

    conclusions = [k_distribution_proof().conclusion,
                   group_pair_proof().conclusion,
                   fixed_point_proof(4).conclusion]
    for seed in range(25):
        proof = random_finitary_proof(seed)
        rep = check(proof)
        assert rep.passed
        flags = rep.details[-1]["theorem_steps"]
        theorems = [s.formula for s, fl in zip(proof.steps, flags) if fl]
        conclusions.extend(theorems[-2:])

    for f in conclusions:
        for m in pool[:12]:
            assert holds_everywhere(m, f), f
