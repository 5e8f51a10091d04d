import gc
import json
import weakref
from fractions import Fraction

import pytest

from pckfo.errors import EvalError, NotMeasurable
from pckfo.evaluator import (
    Evaluator, Program, eval_term, extension, satisfies,
)
from pckfo.model import Model, ProbSpace, classify, point_space
from pckfo.oracle import chain_model
from pckfo.parser import load_model, model_to_json, parse_formula, parse_model
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
    def test_entries_for_other_variables_do_not_matter(self, fixtures_dir):
        text = (fixtures_dir / "models" / "functions.json").read_text()
        m = parse_model(text)
        ev = Evaluator(m)
        f = parse_formula("R(x) | K[a] forall y R(y)")
        for d in m.domain:
            want = ev.extension(f, {"x": d})
            for other in m.domain:
                assert ev.extension(f, {"x": d, "y": other, "z": other}) \
                    == want
        # R holds of d1 at s0 only, and K[a] holds vacuously at s1
        assert ev.extension(f, {"x": "d0"}) == {"s1"}
        assert ev.extension(f, {"x": "d1"}) == {"s0", "s1"}

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


def function_model():
    """R holds of nothing, Q of d0 at s0, and f has no row for d1."""
    return Model(
        states=("s0", "s1"), domain=("d0", "d1"), agents=("a",),
        functions={"f": (1, {("d0",): "d0"})},
        relations={"R": (1, {}), "Q": (1, {"s0": frozenset({("d0",)})})},
        access={"a": frozenset({("s0", "s1")})},
        prob={("a", s): point_space(s) for s in ("s0", "s1")},
    )


class TestProgram:
    def test_failure_stays_with_the_roots_that_use_it(self):
        m = thirds_model()
        coarse = ProbSpace(frozenset(m.states), (frozenset(m.states),),
                           (F(1),))
        m = Model(states=m.states, domain=m.domain, agents=m.agents,
                  relations=m.relations,
                  access={"a": frozenset((s, t) for s in m.states
                                         for t in m.states)},
                  prob={("a", s): coarse for s in m.states})
        straddles = ProbAtLeast("a", F(1, 2), p)
        roots = [(straddles, None), (Knows("a", p), None),
                 (And(Knows("a", p), straddles), None), (Not(p), None)]
        got = Evaluator(m).run(Program(roots, m.domain))
        assert isinstance(got[0], NotMeasurable) and got[2] is got[0]
        assert got[0].formula == straddles and got[0].state == "s0"
        assert got[1] == 0 and got[3] == 0b100

    def test_left_operand_error_comes_first(self):
        m = function_model()
        fd1 = Atom("Q", (App("f", (App("d1"),)),))
        with pytest.raises(EvalError, match="undeclared agent"):
            extension(m, {}, And(Knows("zz", p), fd1))
        with pytest.raises(EvalError, match="undeclared function symbol"):
            extension(m, {}, And(fd1, Knows("zz", p)))

    def test_universal_stops_at_the_first_empty_value(self):
        m = function_model()
        x = Var("x")
        body = And(Atom("R", (x,)), Atom("Q", (App("f", (x,)),)))
        f = Forall("x", body)
        # under x = d1, f(x) has no value, but x = d0 already leaves nothing
        assert extension(m, {}, f) == frozenset()
        # the same body under x = d1 outside the quantifier is evaluated
        with pytest.raises(EvalError, match="no row for"):
            extension(m, {"x": "d1"}, And(f, body))

    def test_program_is_bound_to_its_domain(self):
        program = Program([(p, None)], ("d0", "d1"))
        with pytest.raises(ValueError, match="domain"):
            Evaluator(thirds_model()).run(program)

    def test_domain_is_sorted_as_the_model_sorts_it(self):
        domain = tuple(f"d{k}" for k in range(11))
        program = Program([(Forall("x", Not(Atom("R", (Var("x"),)))), None)],
                          domain)
        assert program.domain == tuple(sorted(domain))
        m = Model(states=("s0",), domain=domain, agents=("a",),
                  relations={"R": (1, {"s0": frozenset({("d10",)})})})
        assert m.domain == program.domain
        assert Evaluator(m).run(program) == [0]


class TestSharedQueries:
    """Queries share their subformulas as the roots of one program."""

    def test_later_universal_values_are_shared(self):
        m = function_model()
        x = Var("x")
        body = And(Atom("R", (x,)), Atom("Q", (App("f", (x,)),)))
        f = Forall("x", body)
        # The first root stops at x = d0, so what body raises under x = d1
        # is not its error; the second root reads that same body and
        # takes its error.
        roots = [(f, None), (And(f, body), {"x": "d1"})]
        program = Program(roots, m.domain)
        # per value: R(x), Q(f(x)), their conjunction and the step; then
        # the second root's conjunction, with body under x = d1 laid out
        # once
        assert len(program.ops) == 2 * 4 + 1
        first, second = Evaluator(m).run(program)
        assert first == 0
        assert isinstance(second, EvalError)
        assert "no row for" in str(second)

    def test_roots_citing_one_failure_get_its_error(self):
        m = function_model()
        bad = Knows("zz", p)
        roots = [(g, None) for g in (bad, And(bad, p), Not(bad))]
        got = Evaluator(m).run(Program(roots, m.domain))
        assert isinstance(got[0], EvalError)
        assert "undeclared agent" in str(got[0])
        assert got[1] is got[0] and got[2] is got[0]

    def test_failed_query_leaves_the_evaluator_usable(self):
        m = function_model()
        ev = Evaluator(m)
        assert ev.extension(Not(p)) == extension(m, {}, Not(p))
        with pytest.raises(EvalError, match="misses free variable"):
            ev.extension(Atom("R", (Var("x"),)))
        assert ev.extension(Atom("R", (Var("x"),)), {"x": "d0"}) == \
            extension(m, {"x": "d0"}, Atom("R", (Var("x"),)))
        assert ev.extension(Not(p)) == extension(m, {}, Not(p))


class TestDeepFormulas:
    def test_knowledge_chain_of_depth_499(self):
        # built with constructors, so the parser plays no part
        m = chain_model(50)   # p at s0..s48, s_k -> s_k+1
        f = p
        for _ in range(499):
            f = Knows("a", f)
        ev = Evaluator(m)
        assert ev.extension(f) == frozenset(m.states)
        g = p
        for _ in range(30):
            g = Knows("a", g)
        # K^30 p fails exactly where the chain reaches s49 in 30 steps
        assert ev.extension(And(f, Not(g))) == {"s19"}

    def test_negation_chain_of_depth_2000(self):
        m = chain_model(3)
        f = p
        for _ in range(2000):
            f = Not(f)
        assert extension(m, {}, f) == {"s0", "s1"}


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


class TestCompiledModel:
    def test_views_of_the_rows_round_trip_the_fixtures(self, fixtures_dir):
        # model_to_doc writes the edges and spaces from the rows
        for path in sorted((fixtures_dir / "models").glob("*.json")):
            text = path.read_text()
            m = load_model(json.loads(text))
            assert model_to_json(m) == text, path.name
            access = {agent: frozenset(map(tuple, pairs)) for agent, pairs
                      in json.loads(text)["access"].items()}
            prob = {(agent, state): m.space(agent, state)
                    for agent in m.agents for state in m.states}
            again = Model(m.states, m.domain, m.agents, m.functions,
                          m.relations, access, prob, m.groups)
            assert (again.pred, again.spaces) == (m.pred, m.spaces)
            assert classify(again) == classify(m)


class TestPlainModel:
    def test_edges_outside_the_states_add_nothing(self):
        # Not a valid model: validate reports both edges; evaluation
        # ignores them.
        m = Model(states=("s0", "s1"), domain=("d0",), agents=("a",),
                  relations={"p": (0, {"s0": frozenset({()})})},
                  access={"a": frozenset({("s0", "s1"), ("s1", "zz"),
                                          ("yy", "s0")})},
                  prob={("a", s): point_space(s) for s in ("s0", "s1")},
                  groups={"G": ("a",)})
        ev = Evaluator(m)
        for text, want in (("K[a] p", {"s1"}), ("K[a] !p", {"s0", "s1"}),
                           ("C{G} p", {"s1"}), ("C{G} !p", {"s0", "s1"}),
                           ("P[a]>=1/2 p", {"s0"}), ("Es{G,1/2} p", {"s1"}),
                           ("Cs{G,1/2} p", {"s1"})):
            assert ev.extension(parse_formula(text)) == want, text


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
