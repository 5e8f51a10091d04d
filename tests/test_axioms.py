import random
from fractions import Fraction

import pytest

import pckfo.axioms as ax
from pckfo.errors import BudgetError, SideConditionError
from pckfo.oracle import random_axiom_instance, DEFAULT_GRID
from pckfo.parser import parse_formula
from pckfo.syntax import (
    And, Atom, CommonKnows, EveryoneKnows, Forall, Knows, Not, ProbAtLeast,
    Var, disj, implies, iterate_everyone, prob_le, prob_lt,
)

F = Fraction
p, q = Atom("p"), Atom("q")


class TestTautologyCheck:
    def test_excluded_middle(self):
        assert ax.tautology_check(disj(p, Not(p)))

    def test_opaque_knowledge_identity(self):
        f = implies(Knows("i", p), Knows("i", p))
        assert ax.tautology_check(f)

    def test_knowledge_of_tautology_is_not_propositional(self):
        assert not ax.tautology_check(Knows("i", disj(p, Not(p))))

    def test_implication_sugar(self):
        assert ax.tautology_check(parse_formula("(p -> q) -> (!q -> !p)"))
        assert not ax.tautology_check(parse_formula("p -> q"))


    def test_atom_cap_is_a_budget_error(self):
        f = p
        for k in range(19):
            f = And(f, Atom(f"r{k}"))
        with pytest.raises(BudgetError):
            ax.tautology_check(implies(f, p))
        with pytest.raises(BudgetError):
            ax.match_axiom(implies(f, p), names=(ax.PROP,))


class TestMatch:
    def test_p1(self):
        got = ax.match_axiom(ProbAtLeast("i", F(0), Atom("psi")))
        assert [m.name for m in got] == [ax.P1]
        assert got[0].params["phi"] == Atom("psi")

    def test_barcan(self):
        f = implies(Forall("x", Knows("i", Atom("R", (Var("x"),)))),
                    Knows("i", Forall("x", Atom("R", (Var("x"),)))))
        assert ax.FO3 in [m.name for m in ax.match_axiom(f)]

    def test_con_gated_by_names(self):
        f = implies(Knows("i", p), ProbAtLeast("i", F(1), p))
        assert ax.match_axiom(f, names=ax.PLAIN_AXIOMS) == []
        got = ax.match_axiom(f, names=ax.CON_AXIOMS)
        assert [m.name for m in got] == [ax.CON]

    def test_multiple_matches(self):
        # with phi = psi the distribution axiom instance is also a tautology
        f = implies(And(Knows("i", p), Knows("i", implies(p, p))),
                    Knows("i", p))
        names = sorted(m.name for m in ax.match_axiom(f))
        assert names == [ax.AK, ax.PROP]

    def test_fo2_identity_instance(self):
        f = implies(Forall("x", p), p)
        got = [m for m in ax.match_axiom(f) if m.name == ax.FO2]
        assert got and got[0].params["term"] == Var("x")


class TestInstantiate:
    def test_p2_expansion(self):
        f = ax.instantiate(ax.P2, {"i": "i", "r": F(1, 2), "t": F(3, 4),
                                   "phi": p})
        assert f == implies(prob_le("i", F(1, 2), p), prob_lt("i", F(3, 4), p))

    def test_ac_unrolls(self):
        f = ax.instantiate(ax.AC, {"group": ("a", "b"), "m": 2, "phi": p})
        assert f == implies(CommonKnows(("a", "b"), p),
                            iterate_everyone(("a", "b"), 2, p))

    def test_p5_side_condition(self):
        with pytest.raises(SideConditionError):
            ax.instantiate(ax.P5, {"i": "i", "r": F(2, 3), "t": F(1, 2),
                                   "phi": p, "psi": q})

    def test_p2_needs_strict_increase(self):
        with pytest.raises(SideConditionError):
            ax.instantiate(ax.P2, {"i": "i", "r": F(1, 2), "t": F(1, 2),
                                   "phi": p})

    def test_fo1_freeness(self):
        with pytest.raises(SideConditionError):
            ax.instantiate(ax.FO1, {"x": "x", "phi": Atom("R", (Var("x"),)),
                                    "psi": p})

    def test_ae_membership(self):
        with pytest.raises(SideConditionError):
            ax.instantiate(ax.AE, {"group": ("a",), "i": "b", "phi": p})

    def test_prop_rejects_non_tautology(self):
        with pytest.raises(SideConditionError):
            ax.instantiate(ax.PROP, {"formula": p})


class TestRoundTrip:
    @pytest.mark.parametrize("name", ax.ALL_AXIOMS)
    def test_instantiate_then_match(self, name):
        rng = random.Random(f"roundtrip:{name}")
        for trial in range(25):
            inst = random_axiom_instance(name, rng, ("a", "b"), DEFAULT_GRID)
            matches = ax.match_axiom(inst.formula, names=(name,))
            assert any(m.name == name for m in matches), (name, trial)
            if name not in (ax.PROP, ax.FO2):
                # parameters are recovered exactly (Prop has none; FO2 may
                # have several witnessing terms)
                assert any(m.params == inst.params for m in matches), \
                    (name, trial, inst.params, [m.params for m in matches])
