"""Golden corpus for the evaluator: `tests/golden/evaluator_extensions.txt`.

Each line holds, tab-separated, a model name, a valuation (`-` when empty),
a printed formula and the outcome of
`Evaluator(model).extension(formula, valuation)`:

    ext s0 s2                              the satisfying states, sorted
    not-measurable a s1 s0,s2 <formula>    agent, state, straddled atom and
                                           the formula the error carries
    error <message>                        an EvalError

The models are seeded random models (coarse, singleton and merged atoms,
a unary relation R over two domain elements, the group G) and the shipped
model fixtures.  The formulas are seeded random formulas under every
operator, with quantifiers, open formulas under each valuation of their
free variables, and formulas that fail: undeclared agents, groups and
function symbols, wrong arities and missing valuation entries.

Regenerate (only when the semantics are meant to change):

    PYTHONPATH=src python tests/test_evaluator_golden.py
"""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

from pckfo.errors import EvalError, NotMeasurable
from pckfo.evaluator import Evaluator
from pckfo.oracle import SearchBudget, random_formula, random_models
from pckfo.parser import parse_formula, parse_model, print_formula
from pckfo.syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Knows, Not, ProbAtLeast, Var, exists, free_vars, implies,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "evaluator_extensions.txt"
F = Fraction
RATES = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
_SIGNATURE = (("p", 0), ("q", 0), ("R", 1))


def models() -> dict:
    out = {}
    shapes = (
        ("coarse", 30, dict(max_states=3, max_agents=2)),
        ("singleton", 10, dict(max_states=3, max_agents=2,
                               atom_mode="singleton")),
        ("merged", 6, dict(max_states=3, max_agents=2, atom_mode="merged")),
        ("wide", 6, dict(max_states=5, max_agents=3)),
    )
    for name, count, shape in shapes:
        budget = SearchBudget(max_domain=2, relation_symbols=_SIGNATURE,
                              seed=17, **shape)
        for k, m in enumerate(random_models(budget, count,
                                            tag=f"evaluator-golden:{name}")):
            out[f"{name}-{k}"] = m
    for path in sorted((ROOT / "fixtures" / "models").glob("*.json")):
        out[f"fixture-{path.stem}"] = parse_model(path.read_text())
    return out


def _formulas(rng, m) -> list:
    agents = m.agents
    groups = [(a,) for a in agents] + [tuple(sorted(m.groups))] \
        if m.groups else [(a,) for a in agents]
    rx, ry = Atom("R", (Var("x"),)), Atom("R", (Var("y"),))
    sub = lambda depth=2: random_formula(rng, agents, depth, ("x",))
    out = [sub(3), sub(3), sub(1)]
    out.append(CommonKnows(rng.choice(groups), sub()))
    out.append(CommonProb(rng.choice(groups), rng.choice(RATES), sub()))
    out.append(EveryoneProb(rng.choice(groups), rng.choice(RATES), sub()))
    out.append(ProbAtLeast(rng.choice(agents), rng.choice(RATES), sub()))
    out.append(Not(ProbAtLeast(rng.choice(agents), rng.choice(RATES),
                               And(sub(1), Not(sub(1))))))
    out.append(CommonProb(rng.choice(groups), rng.choice(RATES),
                          CommonKnows(rng.choice(groups), sub(1))))
    out.append(Forall("x", sub()))
    out.append(exists("x", sub()))
    out.append(And(Forall("x", implies(sub(1), rx)), rx))
    out.append(Forall("x", Forall("y", implies(rx, Knows(agents[0], ry)))))
    out.append(Forall("x", And(rx, ProbAtLeast(rng.choice(agents),
                                                rng.choice(RATES), rx))))
    # failures, alone and behind measurability failures
    out.append(Knows("zz", sub(1)))
    out.append(EveryoneKnows(("H",), sub(1)))
    zz = Knows("zz", Atom("p"))
    out.append(And(ProbAtLeast(agents[-1], F(1, 2), sub(1)), zz))
    out.append(And(zz, ProbAtLeast(agents[-1], F(1, 2), sub(1))))
    out.append(Atom("R", (Var("x"), Var("x"))))
    out.append(Atom("R", (App("f", (App("c"),)),)))
    out.append(Not(Atom("never_declared", (App("g"),))))
    out.append(ProbAtLeast(agents[0], rng.choice(RATES),
                           Atom("R", (App("c"),))))
    return out


def _valuations(domain, f) -> list:
    fv = sorted(free_vars(f))
    out = [dict(zip(fv, values))
           for values in itertools.product(domain, repeat=len(fv))]
    if fv:
        out.append({})
    out.append({**out[0], "w": domain[-1]})
    return out


def show_valuation(v) -> str:
    return ",".join(f"{k}={v[k]}" for k in sorted(v)) or "-"


def read_valuation(text) -> dict:
    if text == "-":
        return {}
    return dict(item.split("=") for item in text.split(","))


def outcome(ev, f, valuation) -> str:
    try:
        ext = ev.extension(f, valuation)
    except NotMeasurable as exc:
        return (f"not-measurable {exc.agent} {exc.state}"
                f" {','.join(sorted(exc.atom))} {print_formula(exc.formula)}")
    except EvalError as exc:
        return f"error {exc}"
    return " ".join(["ext", *sorted(ext)])


def corpus() -> list:
    lines = []
    for name, m in models().items():
        rng = random.Random(f"evaluator-golden:{name}")
        for f in _formulas(rng, m):
            for v in _valuations(m.domain, f):
                lines.append("\t".join([name, show_valuation(v),
                                        print_formula(f),
                                        outcome(Evaluator(m), f, v)]))
    return lines


def _check_corpus(evaluator_for) -> None:
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 1000
    kinds = set()
    for line in lines:
        name, valuation, text, expected = line.split("\t")
        got = outcome(evaluator_for(name), parse_formula(text),
                      read_valuation(valuation))
        assert got == expected, line
        kinds.add(expected.split(" ")[0])
    assert kinds == {"ext", "not-measurable", "error"}


def test_evaluator_agrees_with_golden_corpus():
    by_name = models()
    _check_corpus(lambda name: Evaluator(by_name[name]))


def test_one_evaluator_per_model_agrees_with_golden_corpus():
    # every entry of a model is asked of one evaluator, which adds the
    # queries to one program
    evaluators = {name: Evaluator(m) for name, m in models().items()}
    _check_corpus(evaluators.__getitem__)


if __name__ == "__main__":
    out = corpus()
    for line in out:
        text = line.split("\t")[2]
        if print_formula(parse_formula(text)) != text:
            sys.exit(f"does not round-trip: {text}")
    GOLDEN.write_text("\n".join(out) + "\n")
    print(f"{len(out)} entries written to {GOLDEN}")
