import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pckfo.axioms as ax
from pckfo.errors import BudgetError, SideConditionError
from pckfo.oracle import random_axiom_instance, DEFAULT_GRID
from pckfo.parser import parse_formula
from pckfo.syntax import (
    And, Atom, CommonKnows, CommonProb, EveryoneKnows, Forall, Knows, Not,
    ProbAtLeast, Var, disj, iff, implies, iterate_everyone, prob_le, prob_lt,
    top,
)

F = Fraction
p, q = Atom("p"), Atom("q")


def _conj(atoms):
    out = atoms[0]
    for a in atoms[1:]:
        out = And(out, a)
    return out


# Ten opaque atoms: plain atoms and modal formulas over them.
_OPAQUE = [Atom(f"p{k}") for k in range(6)] + [
    Knows("i", Atom("p0")), Knows("j", Atom("p0")),
    ProbAtLeast("i", F(1, 2), Atom("p1")),
    CommonKnows(("i", "j"), Not(Atom("p2")))]


def _skeletons():
    """Boolean combinations of _OPAQUE; iff and implies reuse their operand
    objects, so the formulas are DAGs with shared subformulas."""
    return st.recursive(
        st.sampled_from(_OPAQUE),
        lambda sub: st.one_of(
            st.builds(Not, sub), st.builds(And, sub, sub),
            st.builds(implies, sub, sub), st.builds(disj, sub, sub),
            st.builds(iff, sub, sub), st.builds(lambda a: iff(a, Not(a)), sub)),
        max_leaves=24)


def _search(tseitin):
    """The arguments of `_satisfiable` that ask for not-f."""
    atoms, nvars, root, clauses = tseitin
    return atoms, nvars, -root, clauses


def _truth_table(f) -> bool:
    """Referee: evaluate the skeleton over opaque atoms on all 2^n rows."""
    atoms = {}

    def skeleton(g):
        if isinstance(g, Not):
            return ("not", skeleton(g.body))
        if isinstance(g, And):
            return ("and", skeleton(g.left), skeleton(g.right))
        return ("atom", atoms.setdefault(g, len(atoms)))

    def value(node, bits):
        if node[0] == "atom":
            return bool(bits >> node[1] & 1)
        if node[0] == "not":
            return not value(node[1], bits)
        return value(node[1], bits) and value(node[2], bits)

    skel = skeleton(f)
    return all(value(skel, bits) for bits in range(1 << len(atoms)))


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

    @pytest.mark.parametrize("n", [19, 20])
    def test_wide_conjunction_is_decided(self, n):
        atoms = [Atom(f"A{k}") for k in range(1, n + 1)]
        f = implies(_conj(atoms), atoms[6])
        assert ax.tautology_check(f)
        assert [m.name for m in ax.match_axiom(f, names=(ax.PROP,))] == [ax.PROP]

    def test_forty_atom_non_tautology_is_rejected(self):
        atoms = [Atom(f"A{k}") for k in range(1, 41)]
        f = implies(_conj(atoms[:-1]), disj(atoms[-1], Knows("i", atoms[0])))
        assert not ax.tautology_check(f)
        assert ax.match_axiom(f, names=(ax.PROP,)) == []

    def test_deep_negation_chain_is_decided(self):
        # Hashing a spine this deep recurses past the interpreter's limit.
        f = Not(And(p, Not(p)))
        for _ in range(480):
            f = Not(f)
        assert ax.tautology_check(f)
        assert not ax.tautology_check(Not(f))

    def test_decision_budget_is_a_budget_error(self, monkeypatch):
        # Exclusive or is associative; its proof branches 7 times.
        f = parse_formula("!(!(p <-> q) <-> r) <-> !(p <-> !(q <-> r))")
        monkeypatch.setattr(ax, "_TAUT_DECISION_BUDGET", 7)
        assert ax.tautology_check(f)
        monkeypatch.setattr(ax, "_TAUT_DECISION_BUDGET", 6)
        with pytest.raises(BudgetError, match="over 3 opaque atoms exceeds"
                                              " the decision budget of 6"):
            ax.tautology_check(f)
        with pytest.raises(BudgetError):
            ax.match_axiom(f, names=(ax.PROP,))

    @settings(max_examples=300, deadline=None)
    @given(_skeletons())
    def test_agrees_with_truth_table(self, f):
        assert ax.tautology_check(f) == _truth_table(f)
        assert ax.tautology_check(implies(f, f))
        assert ax.tautology_check(iff(f, Not(Not(f))))

    @settings(max_examples=300, deadline=None)
    @given(_skeletons())
    def test_truth_table_agrees_with_the_search(self, f):
        # every skeleton has at most ten opaque atoms, so 2^n rows fit the
        # budget, the truth table decides, and the search would decide too
        order, atoms = ax._spine(f)
        assert 1 << len(atoms) <= ax._TAUT_DECISION_BUDGET
        searched = not ax._satisfiable(*_search(ax._tseitin(order)))
        with mock.patch.object(ax, "_satisfiable",
                               side_effect=AssertionError("searched")):
            assert ax.tautology_check(f) == searched

    def test_truth_table_up_to_the_budget(self, monkeypatch):
        # three atoms: 2^3 rows fit a budget of 8, and the search, which
        # needs 7 decisions here, is not started
        f = parse_formula("!(!(p <-> q) <-> r) <-> !(p <-> !(q <-> r))")
        calls = []
        search = ax._satisfiable
        monkeypatch.setattr(ax, "_satisfiable",
                            lambda *args: calls.append(args) or search(*args))
        monkeypatch.setattr(ax, "_TAUT_DECISION_BUDGET", 8)
        assert ax.tautology_check(f) and calls == []
        monkeypatch.setattr(ax, "_TAUT_DECISION_BUDGET", 7)
        assert ax.tautology_check(f) and len(calls) == 1

    def test_past_the_budget_the_search_gives_up(self, monkeypatch):
        # 15 atoms: 2^15 rows exceed the budget, so the search runs, and on
        # this parity identity it runs out of decisions
        rs = [Atom(f"r{k}") for k in range(15)]

        def parity(atoms):
            out = atoms[0]
            for a in atoms[1:]:
                out = Not(iff(out, a))
            return out

        calls = []
        search = ax._satisfiable
        monkeypatch.setattr(ax, "_satisfiable",
                            lambda *args: calls.append(args) or search(*args))
        with pytest.raises(BudgetError, match="over 15 opaque atoms exceeds"
                                              " the decision budget of 16384"):
            ax.tautology_check(iff(parity(rs), parity(rs[::-1])))
        assert len(calls) == 1


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

    def test_unknown_axiom_name(self):
        with pytest.raises(SideConditionError) as exc:
            ax.instantiate("P9", {"phi": p})
        assert str(exc.value) == "unknown axiom name 'P9'"

    def test_apc_needs_a_natural_stage(self):
        params = {"group": ("a",), "r": F(1, 2), "phi": p}
        assert ax.instantiate(ax.APC, {**params, "m": 0}) == implies(
            CommonProb(("a",), F(1, 2), p), top())
        with pytest.raises(SideConditionError) as exc:
            ax.instantiate(ax.APC, {**params, "m": -1})
        assert str(exc.value) == "stage index m must be a natural number"


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
