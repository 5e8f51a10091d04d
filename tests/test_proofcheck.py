from fractions import Fraction

import pytest

import pckfo.axioms as ax
from pckfo.errors import ProofTransformError
from pckfo.parser import parse_formula, parse_proof, proof_to_json
from pckfo.proofcheck import (
    AxiomJust, Certificate, FORJust, HypJust, MODE_CON, MPJust, Proof,
    ProofBuilder, RAJust, RCJust, REJust, RKJust, RPCJust, RPEJust, RPJust,
    Step, _SubtreeCopier, check, deduction_transform,
    strong_necessitation_transform,
)
from pckfo.prooflib import (
    _trans, fixed_point_proof, group_pair_proof, k_distribution_proof,
    random_finitary_proof,
)
from pckfo.report import ACCEPTED, ACCEPTED_BOUNDED, REJECTED
from pckfo.syntax import (
    And, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb, Guard,
    Knows, NestedImplicationSpec, Not, ProbAtLeast, bot, implies,
    iterate_everyone, nested_implication, prob_common_stage, top,
)

F = Fraction
p, q = Atom("p"), Atom("q")


def problems(report):
    return [d for d in report.details if "problem" in d]


class TestCheck:
    def test_necessitation_of_tautology(self):
        out = ProofBuilder()
        taut = out.prop(implies(p, implies(q, p)))
        out.add(Knows("i", out.steps[taut].formula), RKJust(taut, "i"))
        assert check(out.build()).verdict == ACCEPTED

    def test_necessitation_of_hypothesis_rejected(self):
        proof = Proof((p,), (
            Step(p, HypJust(0)),
            Step(Knows("i", p), RKJust(0, "i")),
        ))
        rep = check(proof)
        assert rep.verdict == REJECTED
        assert "not a theorem" in problems(rep)[0]["problem"]

    def test_group_rule_from_member_knowledge(self):
        # hypotheses K_a p and K_b p entail group knowledge via the finite
        # group rule with the trivial guard
        spec = NestedImplicationSpec(0, (top(),), ())
        out = ProofBuilder((Knows("a", p), Knows("b", p)))
        ka = out.hyp(0)
        kb = out.hyp(1)
        pads = {}
        for agent, step in (("a", ka), ("b", kb)):
            kf = out.steps[step].formula
            taut = out.prop(implies(kf, nested_implication(spec, kf)))
            pads[agent] = out.mp(step, taut)
        out.add(nested_implication(spec, EveryoneKnows(("a", "b"), p)),
                REJust(spec, (("a", pads["a"]), ("b", pads["b"]))))
        rep = check(out.build())
        assert rep.verdict == ACCEPTED

    def test_group_rule_missing_member(self):
        spec = NestedImplicationSpec(0, (top(),), ())
        out = ProofBuilder((Knows("a", p),))
        ka = out.hyp(0)
        taut = out.prop(implies(Knows("a", p),
                                nested_implication(spec, Knows("a", p))))
        pad = out.mp(ka, taut)
        out.add(nested_implication(spec, EveryoneKnows(("a", "b"), p)),
                REJust(spec, (("a", pad),)))
        rep = check(out.build())
        assert rep.verdict == REJECTED
        assert "cover the group" in problems(rep)[0]["problem"]

    def test_group_rule_repeated_member(self):
        # the second premise for a cites a step that proves b's premise;
        # read as a map the two pairs for a collapse to one that is right
        spec = NestedImplicationSpec(0, (top(),), ())
        out = ProofBuilder((Knows("a", p), Knows("b", p)))
        ka = out.hyp(0)
        kb = out.hyp(1)
        pads = {}
        for agent, step in (("a", ka), ("b", kb)):
            kf = out.steps[step].formula
            taut = out.prop(implies(kf, nested_implication(spec, kf)))
            pads[agent] = out.mp(step, taut)
        conclusion = nested_implication(spec, EveryoneKnows(("a", "b"), p))
        out.add(conclusion, REJust(spec, (("a", pads["b"]), ("a", pads["a"]),
                                          ("b", pads["b"]))))
        rep = check(out.build())
        assert rep.verdict == REJECTED
        assert problems(rep) == [{
            "step": len(out.steps) - 1,
            "problem": "premises list a member or index more than once"}]

    def test_wrong_modus_ponens(self):
        proof = Proof((), (
            Step(implies(p, p), AxiomJust(ax.PROP)),
            Step(q, MPJust(0, 0)),
        ))
        rep = check(proof)
        assert rep.verdict == REJECTED

    def test_rp_disabled_in_con_mode(self):
        out = ProofBuilder(mode=MODE_CON)
        taut = out.prop(implies(p, p))
        out.add(ProbAtLeast("a", F(1), out.steps[taut].formula),
                RPJust(taut, "a"))
        rep = check(out.build())
        assert rep.verdict == REJECTED
        assert "not a rule" in problems(rep)[0]["problem"]

    def test_con_axiom_only_in_con_mode(self):
        step = Step(implies(Knows("i", p), ProbAtLeast("i", F(1), p)),
                    AxiomJust(ax.CON))
        assert check(Proof((), (step,), MODE_CON)).verdict == ACCEPTED
        assert check(Proof((), (step,))).verdict == REJECTED

    def test_unknown_mode(self):
        rep = check(Proof((), (Step(p, HypJust(0)),), "modal"))
        assert rep.verdict == REJECTED
        assert problems(rep) == [{"step": None,
                                  "problem": "unknown mode 'modal'"}]

    def test_axiom_params_cross_checked(self):
        good = Step(ProbAtLeast("i", F(0), p), AxiomJust(ax.P1, (("i", "i"), ("phi", p))))
        assert check(Proof((), (good,))).verdict == ACCEPTED
        bad = Step(ProbAtLeast("i", F(0), p), AxiomJust(ax.P1, (("i", "i"), ("phi", q))))
        assert check(Proof((), (bad,))).verdict == REJECTED


class TestCertificates:
    def _rc_proof(self, bound=3, break_index=None):
        group = ("a",)
        spec = NestedImplicationSpec(0, (bot(),), ())
        out = ProofBuilder()
        premises = []
        for m in range(1, bound + 1):
            body = iterate_everyone(group, m, p)
            if m == break_index:
                body = iterate_everyone(group, m, q)
            premises.append((m, out.prop(nested_implication(spec, body))))
        out.add(nested_implication(spec, CommonKnows(group, p)),
                RCJust(spec, Certificate(bound, tuple(premises))))
        return out.build()

    def test_bounded_verdict(self):
        rep = check(self._rc_proof())
        assert rep.verdict == ACCEPTED_BOUNDED
        assert any("not full derivability" in d.get("note", "")
                   for d in rep.details)

    def test_certificate_formula_mismatch(self):
        rep = check(self._rc_proof(break_index=2))
        assert rep.verdict == REJECTED

    def test_certificate_gap(self):
        proof = self._rc_proof()
        just = proof.steps[-1].just
        gappy = Certificate(just.certificate.bound,
                            just.certificate.premises[:-1])
        bad = Proof(proof.hypotheses, proof.steps[:-1] + (
            Step(proof.steps[-1].formula, RCJust(just.spec, gappy)),))
        rep = check(bad)
        assert rep.verdict == REJECTED
        assert "cover indices" in problems(rep)[0]["problem"]

    def test_certificate_repeated_index(self):
        # index 1 cited twice, the first time by index 2's step: as many
        # distinct indices as 1..3 holds, each in range, and the later
        # pair for index 1 is right
        proof = self._rc_proof()
        just = proof.steps[-1].just
        cited = just.certificate.premises
        doubled = Certificate(just.certificate.bound,
                              ((1, cited[1][1]),) + cited)
        bad = Proof(proof.hypotheses, proof.steps[:-1] + (
            Step(proof.steps[-1].formula, RCJust(just.spec, doubled)),))
        rep = check(bad)
        assert rep.verdict == REJECTED
        assert problems(rep) == [{
            "step": len(proof.steps) - 1,
            "problem": "premises list a member or index more than once"}]

    def test_archimedean_rule(self):
        spec = NestedImplicationSpec(0, (bot(),), ())
        r = F(1, 3)
        out = ProofBuilder()
        start = 3  # ceil(1/r)
        bound = 5
        premises = tuple(
            (m, out.prop(nested_implication(
                spec, ProbAtLeast("a", r - F(1, m), p))))
            for m in range(start, bound + 1))
        out.add(nested_implication(spec, ProbAtLeast("a", r, p)),
                RAJust(spec, "a", r, Certificate(bound, premises)))
        rep = check(out.build())
        assert rep.verdict == ACCEPTED_BOUNDED

    def test_archimedean_rejects_zero_rate(self):
        spec = NestedImplicationSpec(0, (bot(),), ())
        out = ProofBuilder()
        pad = out.prop(nested_implication(spec, ProbAtLeast("a", F(0), p)))
        out.add(nested_implication(spec, ProbAtLeast("a", F(0), p)),
                RAJust(spec, "a", F(0), Certificate(1, ((1, pad),))))
        rep = check(out.build())
        assert rep.verdict == REJECTED
        assert "strictly positive" in problems(rep)[0]["problem"]


_TOP_SPEC = NestedImplicationSpec(0, (top(),), ())
_CERT = Certificate(1, ())


@pytest.mark.parametrize("just,tau,message", [
    (REJust(_TOP_SPEC, ()), p,
     "conclusion does not have the nested-implication shape around a"
     " group-knowledge formula"),
    (RPEJust(_TOP_SPEC, F(1, 2), ()), p,
     "conclusion does not have the nested-implication shape around a"
     " group-probability formula"),
    (RCJust(_TOP_SPEC, _CERT), p,
     "conclusion does not have the nested-implication shape around a"
     " common-knowledge formula"),
    (RPCJust(_TOP_SPEC, F(1, 2), _CERT), p,
     "conclusion does not have the nested-implication shape around a"
     " probabilistic-common-knowledge formula"),
    (RAJust(_TOP_SPEC, "a", F(1, 2), _CERT), p,
     "conclusion does not have the nested-implication shape around a"
     " probability formula"),
    (RPEJust(_TOP_SPEC, F(1, 3), ()), EveryoneProb(("a",), F(1, 2), p),
     "cited threshold differs from the conclusion's"),
    (RPCJust(_TOP_SPEC, F(1, 3), _CERT), CommonProb(("a",), F(1, 2), p),
     "cited threshold differs from the conclusion's"),
    (RAJust(_TOP_SPEC, "b", F(1, 2), _CERT), ProbAtLeast("a", F(1, 2), p),
     "cited agent/threshold differ from the conclusion's"),
    (RAJust(_TOP_SPEC, "a", F(1, 3), _CERT), ProbAtLeast("a", F(1, 2), p),
     "cited agent/threshold differ from the conclusion's"),
])
def test_nested_rule_rejection_messages(just, tau, message):
    proof = Proof((), (Step(nested_implication(_TOP_SPEC, tau), just),))
    rep = check(proof)
    assert rep.verdict == REJECTED
    assert problems(rep) == [{"step": 0, "problem": message}]


def _tower(tau, inner=None, outer=None, wrap=lambda f: Knows("a", f)):
    """outer -> wrap(inner -> tau), the thetas top unless given."""
    return implies(outer or top(), wrap(implies(inner or top(), tau)))


_K_SPEC = NestedImplicationSpec(1, (top(), top()), (Guard("K", "a"),))
_P1_SPEC = NestedImplicationSpec(1, (top(), top()), (Guard("P1", "a"),))
_CERTAIN = {"wrap": lambda f: ProbAtLeast("a", F(1), f)}   # the P1 guard
_EAB = EveryoneKnows(("a", "b"), p)
_NEAR = {
    "outer-theta": {"outer": q},
    "inner-theta": {"inner": q},
    # K[a](top -> K[a] p) and K[a](top -> K[b] p) do not give
    # K[b](top -> E{a,b} p)
    "guard-agent": {"wrap": lambda f: Knows("b", f)},
    "guard-kind": _CERTAIN,
}
_NEAR_P1 = {
    "half": {"wrap": lambda f: ProbAtLeast("a", F(1, 2), f)},
    "guard-agent": {"wrap": lambda f: ProbAtLeast("b", F(1), f)},
    "guard-kind": {"wrap": lambda f: Knows("a", f)},
}


def _tower_proof(spec, guard, conclusion=None, premise_b=None):
    """An RE step from the towers of K[a] p and K[b] p, as hypotheses, to
    the tower of E{a,b} p; the conclusion, or the premise for b, is
    replaced by a near miss when one is given."""
    hyps = (_tower(Knows("a", p), **guard),
            premise_b or _tower(Knows("b", p), **guard))
    steps = (Step(hyps[0], HypJust(0)), Step(hyps[1], HypJust(1)),
             Step(conclusion or _tower(_EAB, **guard),
                  REJust(spec, (("a", 0), ("b", 1)))))
    return Proof(hyps, steps)


_SHAPE = ("conclusion does not have the nested-implication shape around a"
          " group-knowledge formula")
_PREMISE = "premise for member 'b' is not the required nested implication"


class TestNestedTowers:
    """`peel_nested` checks every layer of a guarded tower: each theta and
    each guard's kind and agent, and a P1 guard's bound of 1."""

    def test_towers_accepted(self):
        assert check(_tower_proof(_K_SPEC, {})).verdict == ACCEPTED
        assert check(_tower_proof(_P1_SPEC, _CERTAIN)).verdict == ACCEPTED

    @pytest.mark.parametrize("near", sorted(_NEAR))
    def test_near_miss_conclusion(self, near):
        rep = check(_tower_proof(_K_SPEC, {},
                                 conclusion=_tower(_EAB, **_NEAR[near])))
        assert rep.verdict == REJECTED
        assert problems(rep) == [{"step": 2, "problem": _SHAPE}]

    @pytest.mark.parametrize("near", sorted(_NEAR))
    def test_near_miss_premise(self, near):
        rep = check(_tower_proof(_K_SPEC, {}, premise_b=_tower(
            Knows("b", p), **_NEAR[near])))
        assert rep.verdict == REJECTED
        assert problems(rep) == [{"step": 2, "problem": _PREMISE}]

    @pytest.mark.parametrize("near", sorted(_NEAR_P1))
    def test_near_miss_certain_guard(self, near):
        rep = check(_tower_proof(_P1_SPEC, _CERTAIN,
                                 conclusion=_tower(_EAB, **_NEAR_P1[near])))
        assert problems(rep) == [{"step": 2, "problem": _SHAPE}]
        rep = check(_tower_proof(_P1_SPEC, _CERTAIN, premise_b=_tower(
            Knows("b", p), **_NEAR_P1[near])))
        assert problems(rep) == [{"step": 2, "problem": _PREMISE}]


def test_prop_over_the_decision_budget_is_undecided(monkeypatch):
    f = parse_formula("!(!(p <-> q) <-> r) <-> !(p <-> !(q <-> r))")
    proof = Proof((), (Step(f, AxiomJust(ax.PROP)),))
    assert check(proof).verdict == ACCEPTED
    monkeypatch.setattr(ax, "_TAUT_DECISION_BUDGET", 6)
    rep = check(proof)
    assert rep.verdict == REJECTED
    [detail] = problems(rep)
    assert detail["problem"] == (
        "Prop undecided: tautology check over 3 opaque atoms exceeds the"
        " decision budget of 6 (the formula is not an instance of Prop that"
        " this checker can decide)")


class TestTheoremFlags:
    def test_flag_soundness_replay_with_no_hypotheses(self):
        # every theorem-flagged step replays as an accepted hypothesis-free proof
        proof = random_finitary_proof(11)
        rep = check(proof)
        assert rep.passed
        flags = rep.details[-1]["theorem_steps"]
        for ix, flag in enumerate(flags):
            if not flag:
                continue
            out = ProofBuilder()
            _SubtreeCopier(proof, out).copy(ix)
            assert check(out.build()).passed, ix


class TestShippedProofs:
    def test_k_distribution(self):
        assert check(k_distribution_proof()).verdict == ACCEPTED

    def test_group_pair(self):
        assert check(group_pair_proof()).verdict == ACCEPTED

    def test_fixed_point_bounded(self):
        assert check(fixed_point_proof(4)).verdict == ACCEPTED_BOUNDED

    def test_fixture_files_match_builders(self, fixtures_dir):
        pairs = [("k_distribution.json", k_distribution_proof()),
                 ("group_pair.json", group_pair_proof()),
                 ("fixed_point.json", fixed_point_proof(4))]
        for name, built in pairs:
            text = (fixtures_dir / "proofs" / name).read_text()
            assert proof_to_json(built) == text
            assert check(parse_proof(text)).passed


class TestDeduction:
    def test_identity_case(self):
        proof = Proof((p,), (Step(p, HypJust(0)),))
        out = deduction_transform(proof, p)
        assert out.hypotheses == ()
        assert out.conclusion == implies(p, p)
        assert check(out).verdict == ACCEPTED

    def test_modus_ponens_recombination(self):
        hyp = (p, implies(p, q))
        out = ProofBuilder(hyp)
        a = out.hyp(0)
        imp = out.hyp(1)
        out.mp(a, imp)
        proof = out.build()
        assert check(proof).passed
        ded = deduction_transform(proof, p)
        assert ded.conclusion == implies(p, q)
        assert ded.hypotheses == (implies(p, q),)
        assert check(ded).passed

    def test_threads_certificates(self):
        group = ("a",)
        r = F(1, 2)
        spec = NestedImplicationSpec(0, (bot(),), ())
        out = ProofBuilder((q,))
        bound = 3
        premises = tuple(
            (m, out.prop(nested_implication(
                spec, prob_common_stage(group, r, m, p))))
            for m in range(1, bound + 1))
        from pckfo.proofcheck import RPCJust
        out.add(nested_implication(spec, CommonProb(group, r, p)),
                RPCJust(spec, r, Certificate(bound, premises)))
        proof = out.build()
        assert check(proof).verdict == ACCEPTED_BOUNDED
        ded = deduction_transform(proof, q)
        rep = check(ded)
        assert rep.verdict == ACCEPTED_BOUNDED
        assert ded.conclusion == implies(
            q, nested_implication(spec, CommonProb(group, r, p)))
        # the rebuilt rule step carries (q AND bot) as outermost antecedent
        rebuilt = [s for s in ded.steps if isinstance(s.just, RPCJust)]
        assert rebuilt and rebuilt[0].just.spec.thetas == (And(q, bot()),)

    def test_copies_a_group_rule_under_necessitation(self):
        # K[b](top -> E{a} (p -> p)): the RE step lies in the premise
        # subtree of RK, which is copied as it stands, its premise remapped
        spec = NestedImplicationSpec(0, (top(),), ())
        out = ProofBuilder((q,))
        taut = out.prop(implies(p, p))
        ka = out.add(Knows("a", implies(p, p)), RKJust(taut, "a"))
        pad = out.mp(ka, out.prop(implies(
            out.steps[ka].formula,
            nested_implication(spec, out.steps[ka].formula))))
        group = out.add(nested_implication(
            spec, EveryoneKnows(("a",), implies(p, p))),
            REJust(spec, (("a", pad),)))
        out.add(Knows("b", out.steps[group].formula), RKJust(group, "b"))
        proof = out.build()
        assert check(proof).verdict == ACCEPTED
        ded = deduction_transform(proof, q)
        assert check(ded).verdict == ACCEPTED
        assert ded.conclusion == implies(q, proof.conclusion)
        copied = [s for s in ded.steps
                  if isinstance(s.just, REJust) and s.just.spec == spec]
        assert [s.formula for s in copied] == [proof.steps[group].formula]
        [(member, cited)] = copied[0].just.premises
        assert member == "a"
        assert ded.steps[cited].formula == proof.steps[pad].formula

    def test_requires_hypothesis(self):
        proof = Proof((p,), (Step(p, HypJust(0)),))
        with pytest.raises(ProofTransformError):
            deduction_transform(proof, q)

    def test_rejected_input_refused(self):
        bad = Proof((p,), (Step(Knows("i", p), RKJust(0, "i")),
                           Step(p, HypJust(0))))
        with pytest.raises(ProofTransformError):
            deduction_transform(bad, p)


def test_trans_refuses_steps_that_do_not_meet():
    out = ProofBuilder()
    ab = out.prop(implies(p, p))
    bc = out.prop(implies(q, q))
    with pytest.raises(ProofTransformError, match="do not meet"):
        _trans(out, ab, bc)
    ac = _trans(out, ab, ab)
    assert out.steps[ac].formula == implies(p, p)


def test_builder_mp_needs_an_implication():
    out = ProofBuilder((p, implies(p, q), Knows("a", implies(p, p)),
                        Not(And(p, Knows("a", q)))))
    a = out.hyp(0)
    assert out.steps[out.mp(a, out.hyp(1))].formula == q
    for ix in (2, 3):  # an implication's body, and a conjunction short of one
        cited = out.hyp(ix)
        with pytest.raises(ProofTransformError,
                           match=f"step {cited} is not an implication"):
            out.mp(a, cited)


class TestStrongNecessitation:
    def test_single_hypothesis(self):
        proof = Proof((p,), (Step(p, HypJust(0)),))
        out = strong_necessitation_transform(proof, "i")
        assert out.hypotheses == (Knows("i", p),)
        assert out.conclusion == Knows("i", p)
        assert check(out).passed

    def test_universal_closure_routes_through_barcan(self):
        out = ProofBuilder((p,))
        h = out.hyp(0)
        out.add(__import__("pckfo.syntax", fromlist=["Forall"]).Forall("x", p),
                FORJust(h, "x"))
        proof = out.build()
        assert check(proof).passed
        sn = strong_necessitation_transform(proof, "i")
        rep = check(sn)
        assert rep.passed
        assert any(isinstance(s.just, AxiomJust) and s.just.name == ax.FO3
                   for s in sn.steps)

    def test_extends_certificate_tower(self):
        group = ("a",)
        spec = NestedImplicationSpec(0, (bot(),), ())
        out = ProofBuilder((q,))
        bound = 3
        premises = tuple(
            (m, out.prop(nested_implication(
                spec, iterate_everyone(group, m, p))))
            for m in range(1, bound + 1))
        out.add(nested_implication(spec, CommonKnows(group, p)),
                RCJust(spec, Certificate(bound, premises)))
        proof = out.build()
        sn = strong_necessitation_transform(proof, "b")
        rep = check(sn)
        assert rep.verdict == ACCEPTED_BOUNDED
        assert sn.conclusion == Knows(
            "b", nested_implication(spec, CommonKnows(group, p)))
        rebuilt = [s for s in sn.steps if isinstance(s.just, RCJust)]
        assert rebuilt and rebuilt[0].just.spec.guards[-1] == Guard("K", "b")


class TestSubtreeCopier:
    def test_copies_cited_steps_once_in_walk_order(self):
        # step 5 cites 2 and 4, step 2 cites 1 before 0, and step 4 cites
        # 2 again: the walk finishes 1, 0, 2, 3, 4, 5 and copies 2 once
        a, b = implies(p, p), implies(q, q)
        src = ProofBuilder()
        src.prop(implies(a, b))
        src.prop(a)
        src.mp(1, 0)
        src.prop(implies(b, implies(b, b)))
        src.mp(2, 3)
        src.mp(2, 4)
        proof = src.build()
        out = ProofBuilder()
        out.prop(top())
        assert _SubtreeCopier(proof, out).copy(5) == 6
        assert [s.formula for s in out.steps[1:]] == \
            [proof.steps[k].formula for k in (1, 0, 2, 3, 4, 5)]
        assert [s.just for s in out.steps[1:]] == [
            AxiomJust(ax.PROP), AxiomJust(ax.PROP), MPJust(1, 2),
            AxiomJust(ax.PROP), MPJust(3, 4), MPJust(3, 5)]

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_transforms_copy_a_deep_necessitation_premise(self):
        # the only RK step cites the end of a 1000-link MP chain, which
        # both transforms copy verbatim: 2003 steps in all
        out = ProofBuilder((q,))
        out.hyp(0)
        a = implies(p, p)
        last = out.prop(a)
        for _ in range(1000):
            last = out.mp(last, out.prop(implies(a, a)))
        out.add(Knows("a", a), RKJust(last, "a"))
        proof = out.build()
        assert len(proof.steps) == 2003 and check(proof).verdict == ACCEPTED
        assert check(deduction_transform(proof, q)).verdict == ACCEPTED
        assert check(strong_necessitation_transform(proof, "a")).verdict \
            == ACCEPTED


class TestGeneratedRoundTrips:
    @pytest.mark.parametrize("seed", range(20))
    def test_both_transforms_reaccepted(self, seed):
        proof = random_finitary_proof(seed)
        assert check(proof).passed, seed
        ded = deduction_transform(proof, proof.hypotheses[0])
        assert check(ded).passed, seed
        sn = strong_necessitation_transform(proof, "a")
        assert check(sn).passed, seed


def _archimedean_proof():
    spec = NestedImplicationSpec(0, (bot(),), ())
    out = ProofBuilder((q,))
    r = F(1, 2)
    premises = tuple(
        (m, out.prop(nested_implication(
            spec, ProbAtLeast("a", r - F(1, m), p))))
        for m in range(2, 5))
    out.add(nested_implication(spec, ProbAtLeast("a", r, p)),
            RAJust(spec, "a", r, Certificate(4, premises)))
    return out.build()


def _group_prob_proof():
    from pckfo.proofcheck import RPEJust
    from pckfo.syntax import EveryoneProb, knows_prob
    r = F(1, 2)
    theta = And(knows_prob("a", r, p), knows_prob("b", r, p))
    spec = NestedImplicationSpec(0, (theta,), ())
    out = ProofBuilder((q,))
    pr_a = out.prop(nested_implication(spec, knows_prob("a", r, p)))
    pr_b = out.prop(nested_implication(spec, knows_prob("b", r, p)))
    out.add(nested_implication(spec, EveryoneProb(("a", "b"), r, p)),
            RPEJust(spec, r, (("a", pr_a), ("b", pr_b))))
    return out.build()


class TestRemainingRuleTransforms:
    @pytest.mark.parametrize("build,verdict", [
        (_archimedean_proof, ACCEPTED_BOUNDED),
        (_group_prob_proof, ACCEPTED),
    ])
    def test_transforms_cover_probability_rules(self, build, verdict):
        proof = build()
        assert check(proof).verdict == verdict
        ded = deduction_transform(proof, q)
        assert check(ded).verdict == verdict
        sn = strong_necessitation_transform(proof, "b")
        assert check(sn).verdict == verdict

    @pytest.mark.parametrize("build", [_archimedean_proof, _group_prob_proof])
    def test_serializer_round_trip(self, build):
        proof = build()
        text = proof_to_json(proof)
        again = parse_proof(text)
        assert check(again).verdict == check(proof).verdict
        assert proof_to_json(again) == text
