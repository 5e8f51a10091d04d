"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact (set equality, zero failures) except the
wall-clock bound on the soundness fuzz.
"""

import itertools
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import pckfo.axioms as ax
from pckfo.evaluator import Evaluator, satisfies
from pckfo.model import classify, validate
from pckfo.oracle import (
    FUZZ_AXIOMS, SearchBudget, _all_models, enumerate_models,
    expected_invalid_counterexample, fuzz_soundness, noncompactness_demo,
    random_models, targeted_class_models, validity_suite,
)
from pckfo.parser import (
    load_model, model_to_json, parse_formula, parse_model, parse_proof,
    print_formula, proof_to_json,
)
from pckfo.proofcheck import (
    RCJust, check, deduction_transform, strong_necessitation_transform,
)
from pckfo.prooflib import (
    fixed_point_proof, group_pair_proof, k_distribution_proof,
    random_finitary_proof,
)
from pckfo.report import ACCEPTED, ACCEPTED_BOUNDED, VALID_IN_SUITE
from pckfo.syntax import (
    Atom, Knows, Not, ProbAtLeast, implies, iterate_everyone,
    prob_common_stage,
)

F = Fraction
p, q = Atom("p"), Atom("q")


def report_line(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_acceptance_1_soundness_fuzz():
    started = time.perf_counter()
    budget = SearchBudget(
        max_states=3, max_domain=2, max_agents=2,
        weight_grid=(F(0), F(1, 2), F(1)),
        relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
        atom_mode="singleton", seed=20260808)
    enumerated = list(itertools.islice(
        enumerate_models(replace(budget, max_states=2, max_models=10 ** 9)),
        100))
    pool = enumerated + random_models(budget, 100, tag="acceptance-1")
    assert len(pool) == 200
    assert all(len(m.states) <= 3 and len(m.domain) <= 2
               and len(m.agents) == 2 for m in pool)
    n = 1000 * len(FUZZ_AXIOMS)  # 1000 instances of every schema, round-robin
    rep = fuzz_soundness(budget, n, names=FUZZ_AXIOMS, models=pool)
    stats = rep.details[-1]
    elapsed = time.perf_counter() - started
    ok = (rep.verdict == VALID_IN_SUITE and stats["failures"] == 0
          and stats["skipped_not_measurable"] == 0 and elapsed < 60.0)
    report_line(1, "soundness fuzz", ok,
                f"{n} instances over {len(pool)} models, "
                f"{stats['failures']} failures, {elapsed:.1f}s (< 60s)")


def test_acceptance_2_class_relative_soundness(fixtures_dir):
    budget = SearchBudget(max_states=3, max_domain=1, max_agents=2,
                          atom_mode="singleton", seed=20260808)
    class_axioms = {"CON": ax.CON, "OBJ": ax.OBJ,
                    "SDP": ax.SDP_A, "UNIF": ax.UNIF_A}
    failures = []
    for flag, name in class_axioms.items():
        models = targeted_class_models(budget, flag, 50)
        assert all(flag in classify(m) for m in models)
        rep = fuzz_soundness(budget, 300, names=(name,), models=models)
        stats = rep.details[-1]
        if stats["failures"] != 0:
            failures.append(flag)
    # sanity: the class restriction is load-bearing — a non-CON model
    # falsifies a CON instance
    noncon = parse_model(
        (fixtures_dir / "models" / "noncon.json").read_text())
    con_instance = implies(Knows("a", p), ProbAtLeast("a", F(1), p))
    falsified = ("CON" not in classify(noncon)
                 and not satisfies(noncon, "s0", con_instance))
    ok = not failures and falsified
    report_line(2, "class-relative soundness", ok,
                f"4 classes x 50 targeted models x 300 instances, "
                f"failing classes: {failures or 'none'}; "
                f"non-CON counterexample falsifies CON: {falsified}")


def test_acceptance_3_fixed_point_correctness():
    # exact-set comparison of the reachability/fixed-point computations
    # against the unrolled operator iterations, zero tolerance, on every
    # labelled model of each budget
    c_budget = SearchBudget(max_states=3, max_domain=1, max_agents=1,
                            weight_grid=(F(1),), sample_mode="full",
                            atom_mode="merged", relation_symbols=(("p", 0),),
                            max_models=10_000)
    group = ("a",)
    c_models = 0
    for m in _all_models(c_budget):
        ev = Evaluator(m)
        n = len(m.states)
        for target in (p, Not(p)):
            ext = ev.extension(target)
            bounded = frozenset(m.states)
            for k in range(1, n + 3):
                bounded &= ev.extension(iterate_everyone(group, k, target))
            assert ev.common_knowledge(group, ext) == bounded, m
        c_models += 1

    cr_budgets = [
        SearchBudget(max_states=2, max_domain=1, max_agents=1,
                     weight_grid=(F(0), F(1, 2), F(1)), sample_mode="full",
                     atom_mode="singleton", relation_symbols=(("p", 0),)),
        SearchBudget(max_states=3, max_domain=1, max_agents=1,
                     weight_grid=(F(1, 3),), sample_mode="full",
                     atom_mode="singleton", relation_symbols=(("p", 0),),
                     max_models=10_000),
    ]
    cr_models = 0
    rates = (F(0), F(1, 2), F(1))
    for budget in cr_budgets:
        for m in _all_models(budget):
            ev = Evaluator(m)
            n = len(m.states)
            ext = ev.extension(p)
            for r in rates:
                stages = ev.prob_common_stages(group, r, ext)
                assert len(stages) - 2 <= n, "stabilizes within |S| rounds"
                unrolled = [frozenset(m.states)]
                for k in range(1, n + 3):
                    unrolled.append(ev.extension(
                        prob_common_stage(group, r, k, p)))
                for earlier, later in zip(unrolled, unrolled[1:]):
                    assert later <= earlier, "stage chain must decrease"
                assert stages[-1] == frozenset.intersection(*unrolled[1:])
                for k in range(len(stages)):
                    if k >= 1:
                        assert stages[k] == unrolled[k]
            cr_models += 1
    report_line(3, "fixed-point correctness", True,
                f"common knowledge exact on {c_models} models; "
                f"probabilistic stages exact on {cr_models} models x "
                f"{len(rates)} thresholds")


def test_acceptance_4_derived_theorem_suite():
    extras2 = random_models(
        SearchBudget(max_states=3, max_domain=1, max_agents=2,
                     atom_mode="singleton", seed=4), 100, tag="acc4")
    runs = []

    epi_budget = SearchBudget(max_states=2, max_domain=1, max_agents=2,
                              weight_grid=(F(1),), sample_mode="full",
                              atom_mode="merged")
    for family in ("epistemic-distribution", "fixed-point"):
        runs.append((family, validity_suite(
            family, epi_budget, models=itertools.chain(
                enumerate_models(epi_budget), extras2))))

    ge_budget = SearchBudget(max_states=2, max_domain=1, max_agents=2,
                             weight_grid=(F(0), F(1)), sample_mode="full",
                             atom_mode="singleton",
                             relation_symbols=(("p", 0),))
    runs.append(("finite-group-equivalence",
                 validity_suite("finite-group-equivalence", ge_budget,
                                models=itertools.chain(
                                    enumerate_models(ge_budget), extras2))))

    pm_budget1 = SearchBudget(max_states=2, max_domain=1, max_agents=1,
                              weight_grid=(F(0), F(1, 2), F(1)),
                              sample_mode="full", atom_mode="singleton")
    runs.append(("probabilistic-monotonicity (one agent)",
                 validity_suite("probabilistic-monotonicity", pm_budget1)))
    pm_budget2 = SearchBudget(max_states=3, max_domain=1, max_agents=2,
                              atom_mode="singleton", seed=44)
    runs.append(("probabilistic-monotonicity (two agents)",
                 validity_suite("probabilistic-monotonicity", pm_budget2,
                                models=random_models(pm_budget2, 300,
                                                     tag="acc4-pm"))))

    bad = [(fam, rep.details[-1]) for fam, rep in runs
           if rep.verdict != VALID_IN_SUITE or rep.details[-1]["failures"]]
    invalid = expected_invalid_counterexample()
    found = invalid.verdict == VALID_IN_SUITE
    ok = not bad and found
    total_models = sum(rep.details[-1]["models"] for _, rep in runs)
    report_line(4, "derived-theorem suite", ok,
                f"{len(runs)} family runs over {total_models} model checks, "
                f"failures: {bad or 'none'}; "
                f"known-invalid schema counterexample found: {found}")


def test_acceptance_5_proof_artifacts(fixtures_dir):
    proofs_dir = fixtures_dir / "proofs"
    k_rep = check(parse_proof((proofs_dir / "k_distribution.json").read_text()))
    g_rep = check(parse_proof((proofs_dir / "group_pair.json").read_text()))
    fp_proof = parse_proof((proofs_dir / "fixed_point.json").read_text())
    fp_rep = check(fp_proof)
    bounds = {s.just.certificate.bound for s in fp_proof.steps
              if isinstance(s.just, RCJust)}
    artifacts_ok = (k_rep.verdict == ACCEPTED and g_rep.verdict == ACCEPTED
                    and fp_rep.verdict == ACCEPTED_BOUNDED
                    and bounds == {4})

    round_trips = 0
    for seed in range(100):
        proof = random_finitary_proof(seed)
        assert check(proof).passed, seed
        ded = deduction_transform(proof, proof.hypotheses[0])
        assert check(ded).passed, ("deduction", seed)
        sn = strong_necessitation_transform(proof, "a")
        assert check(sn).passed, ("necessitation", seed)
        round_trips += 1

    ok = artifacts_ok and round_trips == 100
    report_line(5, "proof artifacts", ok,
                f"distribution={k_rep.verdict}, pair={g_rep.verdict}, "
                f"fixed-point={fp_rep.verdict} (B=4); "
                f"{round_trips}/100 transform round-trips re-accepted")


def test_acceptance_6_noncompactness_demos():
    rep = noncompactness_demo(3)
    rows = [d for d in rep.details if "family" in d]
    families = {d["family"] for d in rows}
    verified = all(d["satisfied"] for d in rows)
    documented = any("not machine-checked" in d.get("note", "")
                     for d in rep.details)
    replayed = 0
    for name, doc in rep.artifacts.items():
        m = load_model(doc)
        assert validate(m).passed, name
        replayed += 1
    ok = (rep.passed and verified and documented and replayed == 6
          and families == {"group-knowledge-degrees", "near-certainty"})
    report_line(6, "non-compactness demos", ok,
                f"{len(rows)} fragments verified on {replayed} replayed"
                f" witnesses; infinite sets documented unsatisfiable:"
                f" {documented}")


def test_acceptance_7_parser_golden(fixtures_dir, golden_dir):
    lines = (golden_dir / "formulas.txt").read_text().splitlines()
    assert len(lines) == 100
    for line in lines:
        f = parse_formula(line)
        assert parse_formula(print_formula(f)) == f, line

    exact = 0
    for path in sorted((fixtures_dir / "models").glob("*.json")):
        text = path.read_text()
        assert model_to_json(parse_model(text)) == text, path.name
        exact += 1
    for path in sorted((fixtures_dir / "proofs").glob("*.json")):
        text = path.read_text()
        assert proof_to_json(parse_proof(text)) == text, path.name
        exact += 1
    report_line(7, "parser golden corpus", True,
                f"100 formulas round-trip; {exact} fixture documents"
                f" serialize bit-exactly")
