import gc
import weakref
from fractions import Fraction

import pytest

from pckfo.errors import EvalError, NotMeasurable
from pckfo.evaluator import Evaluator, eval_term, extension, satisfies
from pckfo.model import Model, ProbSpace, point_space
from pckfo.oracle import chain_model
from pckfo.parser import parse_formula, parse_model
from pckfo.syntax import (
    And, App, Atom, CommonProb, Forall, Knows, Not, ProbAtLeast, Var, bot,
    free_vars, implies, iterate_everyone, knows_prob, prob_common_stage, top,
)

F = Fraction
p = Atom("p")


def one_point_model():
    return Model(
        states=("s0",), domain=("d0",), agents=("a",),
        relations={"p": (0, {"s0": frozenset({()})})},
        access={"a": frozenset({("s0", "s0")})},
        prob={("a", "s0"): point_space("s0")},
        groups={"G": ("a",)},
    )


def thirds_model(p_true=("s0", "s1")):
    states = ("s0", "s1", "s2")
    sp = ProbSpace(frozenset(states),
                   tuple(frozenset([s]) for s in states),
                   (F(1, 3), F(1, 3), F(1, 3)))
    return Model(
        states=states, domain=("d0",), agents=("a",),
        relations={"p": (0, {s: (frozenset({()}) if s in p_true
                                 else frozenset()) for s in states})},
        access={"a": frozenset((s, t) for s in states for t in states)},
        prob={("a", s): sp for s in states},
        groups={"G": ("a",)},
    )


class TestEvalTerm:
    def test_variable(self):
        m = one_point_model()
        assert eval_term(m, "s0", {"x": "d0"}, Var("x")) == "d0"

    def test_constant_and_composition(self, fixtures_dir):
        m = parse_model((fixtures_dir / "models" / "functions.json").read_text())
        assert eval_term(m, "s0", {}, App("c")) == "d0"
        assert eval_term(m, "s0", {}, App("f", (App("c"),))) == "d1"

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="unbound"):
            eval_term(one_point_model(), "s0", {}, Var("x"))


class TestSatisfies:
    def test_prob_at_least_zero_everywhere(self):
        for m in (one_point_model(), thirds_model()):
            for s in m.states:
                assert satisfies(m, s, ProbAtLeast("a", F(0), p))

    def test_one_point_model(self):
        m = one_point_model()
        f = parse_formula("K[a] p & C{a} p & P[a]>=1 p")
        assert satisfies(m, "s0", f)

    def test_thirds_thresholds(self):
        m = thirds_model(p_true=("s0", "s1"))
        assert satisfies(m, "s0", parse_formula("P[a]>=1/2 p"))
        assert not satisfies(m, "s0", parse_formula("P[a]>=3/4 p"))

    def test_sentence_is_valuation_independent(self):
        m = thirds_model()
        f = parse_formula("forall x (R(x) -> R(x))")
        assert satisfies(m, "s0", f, {"y": "d0"}) == \
            satisfies(m, "s0", f, {})

    def test_monotone_thresholds(self):
        m = thirds_model(p_true=("s0", "s1"))          # measure is 2/3
        grid = (F(0), F(1, 3), F(1, 2), F(2, 3))
        for r in grid:
            assert satisfies(m, "s0", ProbAtLeast("a", r, p))
        assert not satisfies(m, "s0", ProbAtLeast("a", F(3, 4), p))

    def test_knows_prob_unfolds(self):
        m = thirds_model()
        f1 = parse_formula("Ks[a,1/2] p")
        f2 = parse_formula("K[a] P[a]>=1/2 p")
        assert f1 == f2
        for s in m.states:
            assert satisfies(m, s, f1) == satisfies(m, s, f2)

    def test_not_measurable_carries_context(self):
        sp = ProbSpace(frozenset(["s0", "s1"]),
                       (frozenset(["s0", "s1"]),), (F(1),))
        m = Model(states=("s0", "s1"), domain=("d0",), agents=("a",),
                  relations={"p": (0, {"s0": frozenset({()}),
                                       "s1": frozenset()})},
                  access={"a": frozenset()},
                  prob={("a", s): sp for s in ("s0", "s1")})
        with pytest.raises(NotMeasurable) as err:
            satisfies(m, "s0", ProbAtLeast("a", F(1, 2), p))
        assert err.value.formula == ProbAtLeast("a", F(1, 2), p)
        assert err.value.agent == "a"

    def test_undeclared_relation_is_empty(self):
        m = one_point_model()
        assert not satisfies(m, "s0", Atom("never_declared"))

    def test_undeclared_agent_rejected(self):
        with pytest.raises(EvalError):
            satisfies(one_point_model(), "s0", parse_formula("K[zz] p"))


class TestExtension:
    def test_record_snapshot_restricted_to_free_vars(self):
        m = thirds_model()
        ev = Evaluator(m)
        rec = ev.extension_record(parse_formula("R(x) | p"),
                                  {"x": "d0", "y": "d0"})
        assert rec.valuation == (("x", "d0"),)
        assert rec.states <= frozenset(m.states)

    def test_no_module_table_keeps_formulas(self):
        f = Forall("x", Knows("a", Atom("R", (Var("x"), Var("y")))))
        free_vars(f)
        Evaluator(thirds_model()).extension(f, {"y": "d0"})
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_top_is_all_states(self):
        m = thirds_model()
        assert extension(m, {}, top()) == frozenset(m.states)

    def test_contradiction_is_empty(self):
        m = thirds_model()
        assert extension(m, {}, And(p, Not(p))) == frozenset()

    def test_atom_by_tables(self):
        m = thirds_model(p_true=("s0", "s2"))
        assert extension(m, {}, p) == {"s0", "s2"}


class TestCommonKnowledge:
    def test_everything_known(self):
        m = thirds_model(p_true=("s0", "s1", "s2"))
        ev = Evaluator(m)
        assert ev.common_knowledge(("a",), frozenset(m.states)) == \
            frozenset(m.states)

    def test_vacuous_at_isolated_state(self):
        m = Model(states=("s0", "s1"), domain=("d0",), agents=("a",),
                  relations={}, access={"a": frozenset({("s1", "s1")})},
                  prob={("a", s): point_space(s) for s in ("s0", "s1")})
        ev = Evaluator(m)
        assert "s0" in ev.common_knowledge(("a",), frozenset())

    def test_chain_head_fails(self):
        m = chain_model(3)  # p true at s0, s1 only; s2 reachable from s0
        ev = Evaluator(m)
        p_ext = ev.extension(p)
        assert p_ext == {"s0", "s1"}
        c = ev.common_knowledge(("a",), p_ext)
        assert "s0" not in c

    def test_reachability_matches_bounded_intersection(self):
        m = chain_model(4)
        ev = Evaluator(m)
        for target in (p, Not(p)):
            ext = ev.extension(target)
            bounded = frozenset(m.states)
            for k in range(1, len(m.states) + 3):
                bounded &= ev.extension(iterate_everyone(("a",), k, target))
            assert ev.common_knowledge(("a",), ext) == bounded


class TestProbCommon:
    def test_rate_zero_collapses_to_all(self):
        m = thirds_model()
        ev = Evaluator(m)
        got = ev.prob_common(("a",), F(0), ev.extension(p))
        stage_intersection = frozenset(m.states)
        for k in range(1, len(m.states) + 3):
            stage_intersection &= ev.extension(
                prob_common_stage(("a",), F(0), k, p))
        assert got == stage_intersection == frozenset(m.states)

    def test_two_state_full_access_half(self):
        states = ("s0", "s1")
        sp = ProbSpace(frozenset(states),
                       (frozenset(["s0"]), frozenset(["s1"])),
                       (F(1, 2), F(1, 2)))
        m = Model(states=states, domain=("d0",), agents=("a",),
                  relations={"p": (0, {s: frozenset({()}) for s in states})},
                  access={"a": frozenset((s, t) for s in states
                                         for t in states)},
                  prob={("a", s): sp for s in states},
                  groups={"G": ("a",)})
        f = parse_formula("Cs{G,1/2} p")
        assert satisfies(m, "s0", f) and satisfies(m, "s1", f)

    def test_stage_chain_decreases_and_stabilizes(self):
        m = thirds_model(p_true=("s0", "s1"))
        ev = Evaluator(m)
        for r in (F(0), F(1, 2), F(1)):
            stages = ev.prob_common_stages(("a",), r, ev.extension(p))
            for earlier, later in zip(stages, stages[1:]):
                assert later <= earlier
            assert len(stages) - 2 <= len(m.states)
            for k in range(len(stages) - 1):
                assert stages[k + 1] == ev.extension(
                    prob_common_stage(("a",), r, k + 1, p))

    def test_empty_event_rate_one(self):
        m = thirds_model(p_true=())
        ev = Evaluator(m)
        got = ev.prob_common(("a",), F(1), frozenset())
        assert got == frozenset()  # full access, certainty of nothing


class TestMemo:
    def test_repeated_queries_consistent(self):
        m = thirds_model()
        ev = Evaluator(m)
        f = parse_formula("C{G} (p -> p) & P[a]>=1 (p | !p)")
        first = [ev.satisfies(s, f) for s in m.states]
        second = [ev.satisfies(s, f) for s in m.states]
        assert first == second

    def test_concurrent_queries_as_if_serialized(self):
        from concurrent.futures import ThreadPoolExecutor

        import pckfo.oracle as oracle
        budget = oracle.SearchBudget(max_states=3, max_agents=2,
                                     atom_mode="singleton", seed=99)
        models = oracle.random_models(budget, 8, tag="threads")
        formulas = [parse_formula(t) for t in (
            "C{G} (p -> q)", "Cs{G,1/2} p", "K[a] E{G} q", "P[b]>=1/2 (p & q)")]
        for m in models:
            serial = [[satisfies(m, s, f) for s in m.states] for f in formulas]
            shared = Evaluator(m)
            jobs = [(f, s) for f in formulas for s in m.states]
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda fs: shared.satisfies(fs[1], fs[0]),
                                    jobs))
            flat = [v for row in serial for v in row]
            assert got == flat


class TestTrivialGuardEquivalence:
    def test_nested_implication_with_top_guard_matches_core(self):
        # the k=0, top-guard tower is semantically the bare formula
        import pckfo.oracle as oracle
        from pckfo.syntax import NestedImplicationSpec, nested_implication
        budget = oracle.SearchBudget(max_states=2, max_agents=1,
                                     atom_mode="singleton", seed=101)
        spec = NestedImplicationSpec(0, (top(),), ())
        targets = [parse_formula(t) for t in ("p", "K[a] p", "P[a]>=1/2 p")]
        for m in oracle.random_models(budget, 20, tag="nested-top"):
            ev = Evaluator(m)
            for tau in targets:
                assert ev.extension(nested_implication(spec, tau)) == \
                    ev.extension(tau)
