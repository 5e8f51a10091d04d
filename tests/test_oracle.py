import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from pckfo.errors import BudgetError, NonSentenceError
from pckfo.evaluator import satisfies
from pckfo.model import classify, validate
from pckfo.oracle import (
    DEFAULT_GRID, SearchBudget, _all_models, _completions, _nth_partition,
    _set_partitions, enumerate_models,
    enumeration_size, expected_invalid_counterexample, find_model, fuzz_soundness,
    holds_everywhere, noncompactness_demo, random_models,
    targeted_class_models, validity_suite,
)
from pckfo.parser import load_model, model_to_doc, parse_formula, parse_model
from pckfo.report import NOT_FOUND, REJECTED, SAT, VALID_IN_SUITE
from pckfo.syntax import Atom, Knows, ProbAtLeast, implies

F = Fraction


def tiny_budget(**kw):
    defaults = dict(max_states=1, max_domain=1, max_agents=1,
                    weight_grid=(F(1),), relation_symbols=(("p", 0),))
    defaults.update(kw)
    return SearchBudget(**defaults)


class TestEnumeration:
    def test_golden_count_single_state(self):
        # truth of p x presence of the self-loop: four models
        budget = tiny_budget()
        assert enumeration_size(budget) == 4
        models = list(enumerate_models(budget))
        assert len(models) == 4
        assert all(validate(m).passed for m in models)

    def test_zero_states_rejected(self):
        with pytest.raises(BudgetError):
            SearchBudget(max_states=0)

    def test_empty_weight_grid_rejected(self):
        with pytest.raises(BudgetError, match="weight grid"):
            SearchBudget(weight_grid=())

    @pytest.mark.parametrize("fields, message", [
        ({"max_agents": 9}, "at most 8 agents supported"),
        ({"sample_mode": "some"}, "unknown sample_mode 'some'"),
        ({"atom_mode": "coarse"}, "unknown atom_mode 'coarse'"),
        ({"weight_grid": (Fraction(1, 2), Fraction(3, 2))},
         "weight grid entries must lie in [0, 1]"),
        ({"weight_grid": (-1, 1)}, "weight grid entries must lie in [0, 1]"),
    ], ids=["agents", "sample-mode", "atom-mode", "grid-above", "grid-below"])
    def test_budget_fields_checked(self, fields, message):
        with pytest.raises(BudgetError) as exc:
            SearchBudget(**fields)
        assert str(exc.value) == message

    def test_cap_enforced(self):
        budget = SearchBudget(max_states=3, max_agents=2, max_models=100)
        with pytest.raises(BudgetError, match="cap"):
            next(enumerate_models(budget))

    def test_cap_checked_before_building(self):
        # 2^25 access sets per agent at five states: only counted, never built
        with pytest.raises(BudgetError, match="cap"):
            next(enumerate_models(SearchBudget(max_states=5)))

    @pytest.mark.parametrize("sample_mode", ["any", "full"])
    @pytest.mark.parametrize("atom_mode", ["any", "singleton", "merged"])
    def test_size_counts_the_enumerated_models(self, sample_mode, atom_mode):
        budget = tiny_budget(max_states=2, max_domain=2,
                             weight_grid=(F(0), F(1, 2), F(1)),
                             relation_symbols=(("r", 1),),
                             sample_mode=sample_mode, atom_mode=atom_mode)
        # one model per class, standing for its class size of them
        assert enumeration_size(budget) \
            == sum(m.orbit.size for m in enumerate_models(budget)) \
            == sum(1 for _ in _all_models(budget))

    def test_deterministic(self):
        budget = tiny_budget(max_states=2, weight_grid=(F(0), F(1, 2), F(1)))
        first = [model_to_doc(m) for m in enumerate_models(budget)]
        second = [model_to_doc(m) for m in enumerate_models(budget)]
        assert first == second

    def test_normalized_spaces_only(self):
        budget = tiny_budget(max_states=2, weight_grid=(F(0), F(1, 2), F(1)))
        for m in enumerate_models(budget):
            assert not m.strays
            for agent in m.agents:
                for state in m.states:
                    sp = m.space(agent, state)
                    assert sum(sp.weights, F(0)) == 1


class TestFindModel:
    def test_unknown_fact(self):
        rep = find_model(parse_formula("p & !K[a] p"),
                         tiny_budget(max_states=2))
        assert rep.verdict == SAT
        witness = load_model(rep.artifacts["witness-model"])
        state = rep.artifacts["witness-state"]
        assert satisfies(witness, state, parse_formula("p & !K[a] p"))

    def test_contradiction_not_found(self):
        rep = find_model(parse_formula("p & !p"), tiny_budget(max_states=2))
        assert rep.verdict == NOT_FOUND
        assert "not an unsatisfiability verdict" in rep.details[0]["note"]

    def test_split_chances(self):
        rep = find_model(parse_formula("P[a]>=1/2 p & P[a]>=1/2 !p"),
                         SearchBudget(max_states=2,
                                      relation_symbols=(("p", 0),)))
        assert rep.verdict == SAT

    def test_domain_past_ten_values(self):
        # the budget's domain d0..d10 is in numeric order, a model's sorted
        rep = find_model(parse_formula("p"), SearchBudget(max_domain=11))
        assert rep.verdict == SAT
        assert satisfies(load_model(rep.artifacts["witness-model"]),
                         rep.artifacts["witness-state"], parse_formula("p"))

    def test_non_sentence_rejected(self):
        with pytest.raises(NonSentenceError):
            find_model(parse_formula("R(x)"), tiny_budget())

    def test_function_symbols_rejected(self):
        with pytest.raises(BudgetError, match="function symbols"):
            find_model(parse_formula("R(c)"),
                       tiny_budget(relation_symbols=(("R", 1),)))


@pytest.mark.parametrize("size", range(1, 9))
def test_nth_partition_is_the_listed_one(size):
    # unranking stands for the list of every partition: the same blocks in
    # the same order, and a draw below Bell(size) picks what a choice from
    # the list would
    items = [f"s{k}" for k in range(size)]
    listed = list(_set_partitions(items))
    f = _completions(size)
    assert f[-1][0] == len(listed)
    assert [_nth_partition(items, i, f) for i in range(len(listed))] == listed
    for seed in range(20):
        a, b = random.Random(seed), random.Random(seed)
        assert listed[b.randrange(len(listed))] == a.choice(listed)


class TestFuzz:
    def test_plain_suite_passes(self):
        budget = SearchBudget(max_states=2, max_domain=2, max_agents=2,
                              relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
                              atom_mode="singleton", seed=5)
        pool = random_models(budget, 40, tag="test-pool")
        rep = fuzz_soundness(budget, 200, models=pool)
        stats = rep.details[-1]
        assert rep.verdict == VALID_IN_SUITE
        assert stats["failures"] == 0
        assert stats["skipped_not_measurable"] == 0

    @pytest.mark.parametrize("n", [0, 60, 130, 250])
    def test_builtin_pool_is_the_full_pool(self, n):
        # The built-in pool is built only as far as n reaches; its reports
        # equal those over the whole 200-model pool passed explicitly, and
        # both refuse a count below 1 alike.
        budget = SearchBudget(max_states=3, seed=2)
        full = list(itertools.islice(_all_models(budget), 100))
        full += random_models(budget, 100, tag="fuzz-pool")

        def outcome(**pool):
            try:
                return fuzz_soundness(budget, n, **pool).to_json()
            except BudgetError as exc:
                return f"budget error: {exc}"
        got = outcome()
        assert got == outcome(models=full)
        assert got.startswith("budget error:") == (n < 1)

    def test_counts_up_to_the_model_cap(self):
        budget = SearchBudget(max_states=2, seed=4, max_models=12)
        assert fuzz_soundness(budget, 12).details[-1]["instances"] == 12
        assert len(targeted_class_models(budget, "CON", 12)) == 12
        with pytest.raises(BudgetError, match="fuzz count 13 is over the cap"
                                              " of 12"):
            fuzz_soundness(budget, 13)
        with pytest.raises(BudgetError, match="class model count 13 is over"
                                              " the cap of 12"):
            targeted_class_models(budget, "CON", 13)

    def test_pool_prefix_keeps_no_enumeration_table(self):
        # The first shape with a space is at 3 states, with 512**2 access
        # choices; the pool takes only a prefix of the labelled stream,
        # which holds no table of them.
        budget = SearchBudget(max_states=3, max_agents=2, sample_mode="full",
                              atom_mode="singleton",
                              weight_grid=(Fraction(1, 3), Fraction(1, 6)))
        fuzz_soundness(budget, 5)
        tracemalloc.start()
        try:
            rep = fuzz_soundness(budget, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.verdict == VALID_IN_SUITE
        assert peak < 1_000_000

    def test_seeded_determinism(self):
        budget = SearchBudget(max_states=2, seed=7, atom_mode="singleton")
        pool = random_models(budget, 10, tag="det")
        a = fuzz_soundness(budget, 50, models=pool).to_json()
        b = fuzz_soundness(budget, 50, models=pool).to_json()
        assert a == b

    def test_falsified_instances_are_reported_in_order(self, fixtures_dir):
        m = parse_model((fixtures_dir / "models" / "noncon.json").read_text())
        budget = SearchBudget(max_states=2, seed=3)
        rep = fuzz_soundness(budget, 12, names=("CON",), models=[m, m])
        failed = [d for d in rep.details if d.get("problem")]
        assert rep.verdict == REJECTED and failed
        assert rep.details[-1]["failures"] == len(failed)
        for k, d in enumerate(failed, 1):
            assert rep.artifacts[f"counterexample-{k}"] == model_to_doc(m)
            assert not holds_everywhere(m, parse_formula(d["formula"]))

    def test_unknown_schema_is_a_budget_error(self):
        with pytest.raises(BudgetError, match="no random generator"):
            fuzz_soundness(tiny_budget(), 4, names=("P1", "nope"))

    def test_con_fails_on_non_con_model(self, fixtures_dir):
        # vacuous knowledge with zero probability falsifies the consistency
        # axiom away from its class
        text = (fixtures_dir / "models" / "noncon.json").read_text()
        import json
        m = load_model(json.loads(text))
        inst = implies(Knows("a", Atom("p")), ProbAtLeast("a", F(1), Atom("p")))
        assert "CON" not in classify(m)
        assert not satisfies(m, "s0", inst)


class TestTargetedClasses:
    @pytest.mark.parametrize("flag", ["CON", "OBJ", "SDP", "UNIF"])
    def test_generated_models_carry_flag(self, flag):
        budget = SearchBudget(max_states=3, max_agents=2,
                              atom_mode="singleton", seed=9)
        models = targeted_class_models(budget, flag, 10)
        assert len(models) == 10
        for m in models:
            assert flag in classify(m)


class TestNoncompactness:
    def test_fragments_verified(self):
        rep = noncompactness_demo(3)
        assert rep.passed
        rows = [d for d in rep.details if "family" in d]
        assert all(r["satisfied"] for r in rows)
        assert {r["family"] for r in rows} == \
            {"group-knowledge-degrees", "near-certainty"}
        assert any("not machine-checked" in d.get("note", "")
                   for d in rep.details)

    def test_witnesses_replay(self):
        rep = noncompactness_demo(2)
        for name, doc in rep.artifacts.items():
            m = load_model(doc)
            assert validate(m).passed

    def test_bound_cap(self):
        with pytest.raises(BudgetError):
            noncompactness_demo(9)


class TestValiditySuites:
    def test_epistemic_distribution_small(self):
        budget = SearchBudget(max_states=2, max_agents=2, weight_grid=(F(1),),
                              sample_mode="full", atom_mode="merged")
        rep = validity_suite("epistemic-distribution", budget)
        assert rep.verdict == VALID_IN_SUITE
        assert rep.details[-1]["failures"] == 0

    def test_probabilistic_monotonicity_small(self):
        budget = SearchBudget(max_states=2, max_agents=1,
                              weight_grid=(F(0), F(1, 2), F(1)),
                              sample_mode="full", atom_mode="singleton")
        rep = validity_suite("probabilistic-monotonicity", budget)
        assert rep.verdict == VALID_IN_SUITE

    def test_explicit_model_pool(self):
        budget = SearchBudget(max_states=2, max_agents=2,
                              atom_mode="singleton", seed=13)
        pool = random_models(budget, 25, tag="suite")
        rep = validity_suite("finite-group-equivalence", budget, models=pool)
        assert rep.verdict == VALID_IN_SUITE
        assert rep.details[-1]["models"] == 25

    def test_unknown_family(self):
        with pytest.raises(BudgetError):
            validity_suite("nope", tiny_budget())

    def test_expected_invalid_found(self):
        rep = expected_invalid_counterexample()
        assert rep.verdict == VALID_IN_SUITE
        doc = rep.artifacts["counterexample-model"]
        state = rep.artifacts["counterexample-state"]
        m = load_model(doc)
        g = ("a",)
        p, q = Atom("p"), Atom("q")
        from pckfo.syntax import EveryoneProb
        schema = implies(
            EveryoneProb(g, F(1, 2), implies(p, q)),
            implies(EveryoneProb(g, F(1, 2), p), EveryoneProb(g, F(1, 2), q)))
        assert not satisfies(m, state, schema)
