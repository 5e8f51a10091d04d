"""Golden corpus for axiom recognition: `tests/golden/axiom_matches.txt`.

Each line is a printed formula followed, tab-separated, by every match that
`match_axiom(f, ALL_AXIOMS)` reports, in order: the schema name, then its
parameters sorted by key.  The corpus is seeded and covers random instances
of every schema, near-misses that break each side condition, random formulas
and their implications, and every step of the shipped and random proofs.

Regenerate (only when the recognised instances are meant to change):

    PYTHONPATH=src python tests/test_axiom_golden.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pckfo.axioms as ax
from pckfo.oracle import DEFAULT_GRID, random_axiom_instance, random_formula
from pckfo.parser import parse_formula, print_formula, print_term
from pckfo.proofcheck import MODE_CON, MODE_PLAIN
from pckfo.prooflib import (
    fixed_point_proof, group_pair_proof, k_distribution_proof,
    random_finitary_proof,
)
from pckfo.syntax import (
    App, And, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Knows, Not, ProbAtLeast, Var, disj, implies, iterate_everyone,
    prob_common_stage, prob_le, prob_lt, top,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "axiom_matches.txt"
AGENTS = ("a", "b", "c")
F = Fraction


def _show(value) -> str:
    if isinstance(value, (Var, App)):
        return print_term(value)
    if isinstance(value, (str, int, tuple, Fraction)):
        return repr(value)
    return print_formula(value)


def match_line(f) -> str:
    fields = [print_formula(f)]
    for m in ax.match_axiom(f, ax.ALL_AXIOMS):
        params = " ".join(f"{k}={_show(v)}" for k, v in sorted(m.params.items()))
        fields.append(f"{m.name} {params}")
    return "\t".join(fields)


def _near_misses() -> list:
    p, q = Atom("p"), Atom("q")
    rx, ry = Atom("R", (Var("x"),)), Atom("R", (Var("y"),))
    rxy = Atom("S", (Var("x"), Var("y")))
    c, fc = App("c"), App("f", (App("c"),))
    out = []
    for r in DEFAULT_GRID:
        # P2 needs t > r
        out.append(implies(prob_le("a", r, p), prob_lt("a", r, p)))
        out.append(implies(prob_le("a", r, p), prob_lt("b", r, p)))
        # P3 with mismatched bounds
        out.append(implies(prob_lt("a", r, p), prob_le("a", 1 - r, p)))
        for t in DEFAULT_GRID:
            # P5 needs r + t <= 1; the consequent bound is capped at 1
            s = min(F(1), r + t)
            out.append(implies(And(prob_le("a", r, p), prob_lt("a", t, q)),
                               prob_lt("a", s, disj(p, q))))
            # P4 needs the consequent bound min(1, r + t)
            lhs = And(And(ProbAtLeast("a", r, p), ProbAtLeast("a", t, q)),
                      ProbAtLeast("a", F(1), Not(And(p, q))))
            out.append(implies(lhs, ProbAtLeast("a", s, disj(p, q))))
            out.append(implies(lhs, ProbAtLeast("a", r * t, disj(p, q))))
            out.append(implies(lhs, ProbAtLeast("a", s, disj(q, p))))
    # AE and APE with a non-member, or a different body
    out.append(implies(EveryoneKnows(("a",), p), Knows("b", p)))
    out.append(implies(EveryoneKnows(("a", "b"), p), Knows("b", q)))
    out.append(implies(EveryoneProb(("a",), F(1, 2), p),
                       Knows("b", ProbAtLeast("b", F(1, 2), p))))
    out.append(implies(EveryoneProb(("a", "b"), F(1, 2), p),
                       Knows("b", ProbAtLeast("a", F(1, 2), p))))
    out.append(implies(EveryoneProb(("a", "b"), F(1, 2), p),
                       Knows("a", ProbAtLeast("a", F(1, 3), p))))
    # AC with the wrong group or body
    out.append(implies(CommonKnows(("a", "b"), p), iterate_everyone(("a",), 2, p)))
    out.append(implies(CommonKnows(("a", "b"), p), iterate_everyone(("a", "b"), 2, q)))
    out.append(implies(CommonKnows(("a",), p), EveryoneKnows(("a",), p)))
    out.append(implies(CommonKnows(("a",), EveryoneKnows(("a",), p)),
                       iterate_everyone(("a",), 3, p)))
    out.append(implies(CommonKnows(("a",), EveryoneKnows(("a",), p)),
                       EveryoneKnows(("a",), p)))
    out.append(implies(CommonKnows(("a",), EveryoneKnows(("a",), p)), p))
    # APC with a wrong stage
    g = ("a", "b")
    for m in range(4):
        out.append(implies(CommonProb(g, F(1, 2), p), prob_common_stage(g, F(1, 3), m, p)))
        out.append(implies(CommonProb(g, F(1, 2), p), prob_common_stage(("a",), F(1, 2), m, p)))
        out.append(implies(CommonProb(g, F(1, 2), p), prob_common_stage(g, F(1, 2), m, q)))
        out.append(implies(CommonProb(g, F(1, 2), p),
                           EveryoneProb(g, F(1, 2), And(p, prob_common_stage(g, F(1, 2), m, q)))))
    out.append(implies(CommonProb(g, F(1, 2), p), And(p, top())))
    out.append(implies(CommonProb(g, F(1, 2), top()), prob_common_stage(g, F(1, 2), 2, top())))
    # FO1 with x free in the antecedent
    out.append(implies(Forall("x", implies(rx, q)), implies(rx, Forall("x", q))))
    out.append(implies(Forall("x", implies(p, rx)), implies(p, Forall("x", rx))))
    out.append(implies(Forall("x", implies(p, rx)), implies(q, Forall("x", rx))))
    out.append(implies(Forall("x", implies(p, rx)), implies(p, Forall("y", rx))))
    # FO2: capture, function terms, vacuous quantifiers
    out.append(implies(Forall("x", Forall("y", rxy)),
                       Forall("y", Atom("S", (Var("y"), Var("y"))))))
    out.append(implies(Forall("x", Forall("y", rxy)),
                       Forall("y", Atom("S", (c, Var("y"))))))
    out.append(implies(Forall("x", rx), Atom("R", (fc,))))
    out.append(implies(Forall("x", rx), Atom("R", (App("f", (Var("z"),)),))))
    out.append(implies(Forall("x", And(rx, Atom("Q", (App("g", (Var("x"),)),)))),
                       And(Atom("R", (c,)), Atom("Q", (App("g", (c,)),)))))
    out.append(implies(Forall("x", And(rx, Atom("Q", (App("g", (Var("x"),)),)))),
                       And(Atom("R", (c,)), Atom("Q", (App("g", (fc,)),)))))
    out.append(implies(Forall("x", And(rx, Forall("x", rx))), And(ry, Forall("x", rx))))
    out.append(implies(Forall("x", p), p))
    out.append(implies(Forall("x", p), q))
    out.append(implies(Forall("x", Knows("a", rx)), Knows("a", ry)))
    # FO3, AK, CON, OBJ, SDP-A, UNIF-A with mismatched agents or bodies
    out.append(implies(Forall("x", Knows("a", rx)), Knows("b", Forall("x", rx))))
    out.append(implies(Forall("x", Knows("a", rx)), Knows("a", Forall("y", rx))))
    out.append(implies(And(Knows("a", p), Knows("b", implies(p, q))), Knows("a", q)))
    out.append(implies(And(Knows("a", p), Knows("a", implies(q, q))), Knows("a", q)))
    out.append(implies(Knows("a", p), ProbAtLeast("b", F(1), p)))
    out.append(implies(Knows("a", p), ProbAtLeast("a", F(1, 2), p)))
    out.append(implies(ProbAtLeast("a", F(1, 2), p), ProbAtLeast("a", F(1, 3), p)))
    out.append(implies(ProbAtLeast("a", F(1, 2), p), ProbAtLeast("b", F(1, 2), q)))
    out.append(implies(ProbAtLeast("a", F(1, 2), p), Knows("b", ProbAtLeast("a", F(1, 2), p))))
    out.append(implies(ProbAtLeast("a", F(1, 2), p),
                       ProbAtLeast("a", F(1, 2), ProbAtLeast("a", F(1, 2), p))))
    out.append(implies(ProbAtLeast("a", F(1, 2), p),
                       ProbAtLeast("b", F(1), ProbAtLeast("a", F(1, 2), p))))
    # P1 with a positive bound; Prop over non-tautologies and modal atoms
    out.append(ProbAtLeast("a", F(1, 4), p))
    out.append(implies(p, q))
    out.append(Knows("a", disj(p, Not(p))))
    out.append(disj(Knows("a", p), Not(Knows("a", p))))
    return out


def _proof_steps() -> list:
    proofs = [k_distribution_proof(), group_pair_proof(), fixed_point_proof(4)]
    for seed in range(12):
        proofs.append(random_finitary_proof(seed, MODE_PLAIN))
        proofs.append(random_finitary_proof(seed, MODE_CON))
    return [s.formula for proof in proofs for s in proof.steps]


def corpus() -> list:
    formulas = []
    for name in ax.ALL_AXIOMS:
        rng = random.Random(f"axiom-golden:{name}")
        formulas += [random_axiom_instance(name, rng, AGENTS, DEFAULT_GRID).formula
                     for _ in range(40)]
    formulas += _near_misses()
    rng = random.Random("axiom-golden:random")
    for _ in range(150):
        formulas.append(random_formula(rng, AGENTS, depth=3, vars_allowed=("x",)))
        formulas.append(implies(random_formula(rng, AGENTS, vars_allowed=("x",)),
                                random_formula(rng, AGENTS, vars_allowed=("x",))))
    formulas += _proof_steps()
    return list(dict.fromkeys(formulas))


def test_match_axiom_agrees_with_golden_corpus():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 1000
    for line in lines:
        f = parse_formula(line.split("\t")[0])
        assert match_line(f) == line


if __name__ == "__main__":
    out = []
    for f in corpus():
        g = parse_formula(print_formula(f))
        if g != f:
            sys.exit(f"does not round-trip: {print_formula(f)}")
        out.append(match_line(g))
    GOLDEN.write_text("\n".join(out) + "\n")
    print(f"{len(out)} formulas written to {GOLDEN}")
