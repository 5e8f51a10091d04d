"""Finite proof objects and their verification.

A proof is a forward-referencing sequence of steps over a hypothesis list
(the theory).  Knowledge/probabilistic necessitation premises must be
theorems: `check` computes each step's from-theory-only flag (its report's
`theorem_steps`) and enforces the restriction.

The five nested-implication rules (RE, RPE, RC, RPC, RA) share one check:
the cited premises cover the group's members, or the certificate's indices
first..bound, exactly; then each premise's tower is peeled with the
conclusion's spec and its head compared with the rule's premise body for
that member or index.  The rules with countably many premises are checked
against explicit bounded certificates and downgrade the verdict to
"accepted-with-bounded-certificates"; a bounded check is never reported as
full derivability.  Both proof transforms re-apply a nested rule through
`_nested_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import axioms as ax
from .errors import BudgetError, ProofTransformError
from .report import ACCEPTED, ACCEPTED_BOUNDED, REJECTED, CheckReport
from .syntax import (
    And, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb, Forall, Guard,
    GUARD_KNOWS, Knows, NestedImplicationSpec, ProbAtLeast, implies,
    is_sentence, iterate_everyone, knows_prob, nested_implication, peel_nested,
    prob_common_stage, split_implies, top,
)

MODE_PLAIN = "plain"
MODE_CON = "con"


# ---------------------------------------------------------------------------
# justifications


@dataclass(frozen=True)
class AxiomJust:
    name: str
    params: tuple = ()  # optional ((key, value), ...) cross-check


@dataclass(frozen=True)
class HypJust:
    index: int


@dataclass(frozen=True)
class MPJust:
    premise: int      # step proving phi
    implication: int  # step proving phi -> psi


@dataclass(frozen=True)
class FORJust:
    premise: int
    var: str


@dataclass(frozen=True)
class RKJust:
    premise: int
    agent: str


@dataclass(frozen=True)
class RPJust:
    premise: int
    agent: str


@dataclass(frozen=True)
class REJust:
    spec: NestedImplicationSpec
    premises: tuple  # ((agent, step), ...) one per group member


@dataclass(frozen=True)
class RPEJust:
    spec: NestedImplicationSpec
    bound: Fraction
    premises: tuple


@dataclass(frozen=True)
class Certificate:
    """Finite stand-in for an infinite premise family: steps for the indices
    up to a declared bound."""

    bound: int
    premises: tuple  # ((index, step), ...)


@dataclass(frozen=True)
class RCJust:
    spec: NestedImplicationSpec
    certificate: Certificate


@dataclass(frozen=True)
class RPCJust:
    spec: NestedImplicationSpec
    bound: Fraction
    certificate: Certificate


@dataclass(frozen=True)
class RAJust:
    spec: NestedImplicationSpec
    agent: str
    bound: Fraction
    certificate: Certificate


BOUNDED_RULES = (RCJust, RPCJust, RAJust)


@dataclass(frozen=True)
class Step:
    formula: "object"
    just: "object"


@dataclass(frozen=True)
class Proof:
    hypotheses: tuple
    steps: tuple
    mode: str = MODE_PLAIN

    @property
    def conclusion(self):
        return self.steps[-1].formula if self.steps else None


# ---------------------------------------------------------------------------
# the premise table of the five nested-implication rules


@dataclass(frozen=True)
class _NestedRule:
    head: type             # class of tau, the formula under the tower
    head_name: str         # tau as rejection messages name it
    body: object           # (tau, member or index) -> that premise's body
    cited: tuple = ()      # fields of tau the justification repeats
    first: object = None   # bounded rules: tau -> first certificate index


def _archimedean_first(tau):
    """ceil(1/r) for the family r - 1/m; None when r is 0."""
    return math.ceil(1 / tau.bound) if tau.bound else None


_NESTED = {
    REJust: _NestedRule(
        EveryoneKnows, "a group-knowledge formula",
        lambda tau, i: Knows(i, tau.body)),
    RPEJust: _NestedRule(
        EveryoneProb, "a group-probability formula",
        lambda tau, i: knows_prob(i, tau.bound, tau.body), cited=("bound",)),
    RCJust: _NestedRule(
        CommonKnows, "a common-knowledge formula",
        lambda tau, m: iterate_everyone(tau.group, m, tau.body),
        first=lambda tau: 1),
    RPCJust: _NestedRule(
        CommonProb, "a probabilistic-common-knowledge formula",
        lambda tau, m: prob_common_stage(tau.group, tau.bound, m, tau.body),
        cited=("bound",), first=lambda tau: 1),
    RAJust: _NestedRule(
        ProbAtLeast, "a probability formula",
        lambda tau, m: ProbAtLeast(tau.agent, tau.bound - Fraction(1, m),
                                   tau.body),
        cited=("agent", "bound"), first=_archimedean_first),
}

_CITED_MISMATCH = {
    ("bound",): "cited threshold differs from the conclusion's",
    ("agent", "bound"): "cited agent/threshold differ from the conclusion's",
}


def _premises(just) -> tuple:
    """((member or index, step), ...) of a nested rule."""
    if isinstance(just, BOUNDED_RULES):
        return just.certificate.premises
    return just.premises


def _with_premises(just, spec, premises):
    """The same nested rule over another spec and premise steps."""
    if isinstance(just, BOUNDED_RULES):
        return replace(just, spec=spec,
                       certificate=replace(just.certificate, premises=premises))
    return replace(just, spec=spec, premises=premises)


# ---------------------------------------------------------------------------
# checking


def check(proof: Proof) -> CheckReport:
    """Verify every step; deterministic and total.

    The returned report's details carry one entry per failing step plus
    `theorem_steps`, one flag per step: True iff the step is accepted and
    uses no hypothesis.  Artifacts stay empty.
    """
    rep = CheckReport(ACCEPTED)
    if proof.mode not in (MODE_PLAIN, MODE_CON):
        rep.verdict = REJECTED
        rep.add(step=None, problem=f"unknown mode {proof.mode!r}")
        return rep

    axiom_names = ax.CON_AXIOMS if proof.mode == MODE_CON else ax.PLAIN_AXIOMS
    for hx, h in enumerate(proof.hypotheses):
        if not is_sentence(h):
            rep.add(step=None, problem=f"hypothesis {hx} is not a sentence")

    flags = []
    bounded = []

    for ix, step in enumerate(proof.steps):
        problem, flag = _check_step(proof, ix, step, flags, axiom_names)
        if problem is not None:
            rep.add(step=ix, problem=problem)
            flag = False
        if isinstance(step.just, BOUNDED_RULES):
            bounded.append((ix, step.just.certificate.bound))
        flags.append(flag)

    if not proof.steps:
        rep.add(step=None, problem="proof has no steps")

    if any("problem" in d for d in rep.details):
        rep.verdict = REJECTED
    elif bounded:
        rep.verdict = ACCEPTED_BOUNDED
        rep.add(note="bounded certificates stand in for infinite premise "
                     "families; this is not full derivability",
                bounds=[b for (_, b) in bounded])
    rep.add(theorem_steps=flags)
    return rep


def _refs(just) -> list:
    if isinstance(just, MPJust):
        return [just.premise, just.implication]
    if isinstance(just, (FORJust, RKJust, RPJust)):
        return [just.premise]
    if type(just) in _NESTED:
        return [s for (_, s) in _premises(just)]
    return []


def _check_step(proof, ix, step, flags, axiom_names):
    """Returns (problem or None, theorem_flag)."""
    f = step.formula
    just = step.just

    for ref in _refs(just):
        if not (0 <= ref < ix):
            return (f"reference to step {ref} is not an earlier step", False)

    if isinstance(just, AxiomJust):
        if just.name not in axiom_names:
            return (f"axiom {just.name!r} not available in mode "
                    f"{proof.mode!r}", False)
        try:
            matches = ax.match_axiom(f, names=(just.name,))
        except BudgetError as exc:
            # Still a rejection, as the checker cannot tell either way.  The
            # closing clause is the wording perfbench's taut-cap check expects.
            return (f"Prop undecided: {exc} (the formula is not an instance"
                    " of Prop that this checker can decide)", False)
        if not matches:
            return (f"formula is not an instance of {just.name}", False)
        if just.params:
            want = dict(just.params)
            # An AC or APC depth above every match's cannot produce f: check
            # the other parameters at the matched depth, and build no tower.
            depths = [inst.params["m"] for inst in matches
                      if "m" in inst.params]
            too_deep = depths and isinstance(want.get("m"), int) \
                and want["m"] > max(depths)
            if too_deep:
                want["m"] = max(depths)
            try:
                built = ax.instantiate(just.name, want)
            except Exception as exc:  # side condition or missing key
                return (f"axiom parameters rejected: {exc}", False)
            if too_deep or built != f:
                return ("axiom parameters do not produce this formula", False)
        return (None, True)

    if isinstance(just, HypJust):
        if not (0 <= just.index < len(proof.hypotheses)):
            return (f"hypothesis index {just.index} out of range", False)
        if proof.hypotheses[just.index] != f:
            return ("formula differs from the cited hypothesis", False)
        return (None, False)

    if isinstance(just, MPJust):
        a = proof.steps[just.premise].formula
        imp = proof.steps[just.implication].formula
        # a tuple compares its items by identity first, so the operands of
        # a loaded proof, one object each, are not walked
        if split_implies(imp) != (a, f):
            return ("implication step is not 'premise -> this formula'", False)
        return (None, flags[just.premise] and flags[just.implication])

    if isinstance(just, FORJust):
        body = proof.steps[just.premise].formula
        if type(f) is not Forall or f.var != just.var or f.body != body:
            return ("formula is not the universal closure of the premise"
                    " over the cited variable", False)
        return (None, flags[just.premise])

    if isinstance(just, RKJust):
        body = proof.steps[just.premise].formula
        if not flags[just.premise]:
            return ("premise of knowledge necessitation is not a theorem", False)
        if type(f) is not Knows or f.agent != just.agent or f.body != body:
            return ("formula is not the knowledge-wrapped premise", False)
        return (None, True)

    if isinstance(just, RPJust):
        if proof.mode == MODE_CON:
            return ("probabilistic necessitation is not a rule of the"
                    " consistency-condition system", False)
        body = proof.steps[just.premise].formula
        if not flags[just.premise]:
            return ("premise of probabilistic necessitation is not a theorem",
                    False)
        if type(f) is not ProbAtLeast or f.agent != just.agent \
                or f.bound != 1 or f.body != body:
            return ("formula is not the probability-one-wrapped premise", False)
        return (None, True)

    rule = _NESTED.get(type(just))
    if rule is not None:
        tau = peel_nested(just.spec, f)
        if tau is None or not isinstance(tau, rule.head):
            return ("conclusion does not have the nested-implication shape"
                    f" around {rule.head_name}", False)
        if any(getattr(just, a) != getattr(tau, a) for a in rule.cited):
            return (_CITED_MISMATCH[rule.cited], False)
        given = dict(_premises(just))
        if rule.first is None:
            if set(given) != set(tau.group):
                missing = sorted(set(tau.group) - set(given))
                extra = sorted(set(given) - set(tau.group))
                return (f"premise map must cover the group exactly"
                        f" (missing {missing}, extra {extra})", False)
            keys = tau.group
            wrong = "premise for member {!r} is not the required nested" \
                    " implication"
        else:
            start, bound = rule.first(tau), just.certificate.bound
            if start is None:
                return ("the Archimedean rule requires a strictly positive"
                        " threshold", False)
            if bound < start:
                return (f"certificate bound {bound} is below the first"
                        f" premise index {start}", False)
            # as many distinct indices as first..bound holds, each in it: no
            # range of the bound's size is built
            if len(given) != bound - start + 1 or not all(
                    isinstance(m, int) and start <= m <= bound for m in given):
                return (f"certificate must cover indices {start}..{bound}"
                        " exactly", False)
            keys = sorted(given)
            wrong = "certificate premise for index {} has the wrong formula"
        for key in keys:
            got = peel_nested(just.spec, proof.steps[given[key]].formula)
            if got != rule.body(tau, key):
                return (wrong.format(key), False)
        return (None, all(flags[s] for s in given.values()))

    return (f"unknown justification {type(just).__name__}", False)


# ---------------------------------------------------------------------------
# proof construction helper


class ProofBuilder:
    """Append-only builder used by the transformations and shipped proofs."""

    def __init__(self, hypotheses=(), mode=MODE_PLAIN):
        self.hypotheses = tuple(hypotheses)
        self.steps = []
        self.mode = mode

    def add(self, formula, just) -> int:
        self.steps.append(Step(formula, just))
        return len(self.steps) - 1

    def hyp(self, index) -> int:
        return self.add(self.hypotheses[index], HypJust(index))

    def axiom(self, name, params) -> int:
        return self.add(ax.instantiate(name, params), AxiomJust(name))

    def prop(self, formula) -> int:
        """Add a propositional-tautology axiom step (verified here)."""
        return self.add(ax.instantiate(ax.PROP, {"formula": formula}),
                        AxiomJust(ax.PROP))

    def mp(self, premise: int, implication: int) -> int:
        pair = split_implies(self.steps[implication].formula)
        if pair is None:
            raise ProofTransformError(
                f"step {implication} is not an implication")
        return self.add(pair[1], MPJust(premise, implication))

    def build(self) -> Proof:
        return Proof(self.hypotheses, tuple(self.steps), self.mode)


# ---------------------------------------------------------------------------
# the deduction-theorem transformation


def _ensure_accepted(proof: Proof) -> None:
    rep = check(proof)
    if not rep.passed:
        raise ProofTransformError(f"input proof rejected: {rep.details}")


class _SubtreeCopier:
    """Copies hypothesis-free justification subtrees verbatim into a builder."""

    def __init__(self, proof, out):
        self.proof = proof
        self.out = out
        self.done = {}

    def copy(self, ix: int) -> int:
        """Copy step ix after the steps it cites, each step once, in the
        order a depth-first walk of the references finishes them.  A step
        is pushed again, ready, under the steps it cites."""
        steps, done = self.proof.steps, self.done
        todo = [(ix, False)]
        while todo:
            k, ready = todo.pop()
            if k in done:
                continue
            just = steps[k].just
            if ready:
                done[k] = self.out.add(steps[k].formula,
                                       _remap_just(just, done))
            else:
                todo.append((k, True))
                todo += ((ref, False) for ref in reversed(_refs(just)))
        return done[ix]


def _remap_just(just, mapping):
    if isinstance(just, MPJust):
        return MPJust(mapping[just.premise], mapping[just.implication])
    if isinstance(just, (FORJust, RKJust, RPJust)):
        return replace(just, premise=mapping[just.premise])
    if type(just) in _NESTED:
        return _with_premises(just, just.spec, tuple(
            (key, mapping[s]) for key, s in _premises(just)))
    return just  # axioms and hypotheses carry no references


def deduction_transform(proof: Proof, phi) -> Proof:
    """Turn a proof of psi from T ∪ {phi} into a proof of phi -> psi from T.

    Nested-implication rule steps are rebuilt with (phi AND theta_k) as the
    outermost antecedent; necessitation steps copy their hypothesis-free
    subtrees verbatim.
    """
    _ensure_accepted(proof)
    if phi not in proof.hypotheses:
        raise ProofTransformError("phi is not among the hypotheses")
    if not is_sentence(phi):
        raise ProofTransformError("phi must be a sentence")

    new_hyps = tuple(h for h in proof.hypotheses if h != phi)
    hyp_map = {}
    for old_ix, h in enumerate(proof.hypotheses):
        if h != phi:
            hyp_map[old_ix] = new_hyps.index(h)

    out = ProofBuilder(new_hyps, proof.mode)
    copier = _SubtreeCopier(proof, out)
    done = {}  # old index -> new index proving (phi -> old formula)

    def weaken_over_phi(new_ix) -> int:
        """From a step proving g, derive phi -> g."""
        g = out.steps[new_ix].formula
        return out.mp(new_ix, out.prop(implies(g, implies(phi, g))))

    for ix, step in enumerate(proof.steps):
        f, just = step.formula, step.just

        if isinstance(just, AxiomJust):
            done[ix] = weaken_over_phi(out.add(f, just))
            continue

        if isinstance(just, HypJust):
            if f == phi:
                done[ix] = out.prop(implies(phi, phi))
            else:
                done[ix] = weaken_over_phi(out.hyp(hyp_map[just.index]))
            continue

        if isinstance(just, MPJust):
            a = proof.steps[just.premise].formula
            taut = out.prop(implies(
                implies(phi, a),
                implies(implies(phi, implies(a, f)), implies(phi, f))))
            half = out.mp(done[just.premise], taut)
            done[ix] = out.mp(done[just.implication], half)
            continue

        if isinstance(just, FORJust):
            body = proof.steps[just.premise].formula
            closed = out.add(Forall(just.var, implies(phi, body)),
                             FORJust(done[just.premise], just.var))
            dist = out.axiom(ax.FO1, {"x": just.var, "phi": phi, "psi": body})
            done[ix] = out.mp(closed, dist)
            continue

        if isinstance(just, (RKJust, RPJust)):
            # The premise is a theorem: replay its subtree, re-apply the rule,
            # then weaken over phi.
            base = copier.copy(just.premise)
            wrapped = out.add(f, replace(just, premise=base))
            done[ix] = weaken_over_phi(wrapped)
            continue

        if type(just) in _NESTED:
            # (phi AND theta_k) becomes the outermost antecedent
            thetas = just.spec.thetas[:-1] + (And(phi, just.spec.thetas[-1]),)
            spec = NestedImplicationSpec(just.spec.k, thetas, just.spec.guards)
            done[ix] = _nested_step(out, proof, ix, done, spec,
                                    lambda g: implies(phi, g))
            continue

        raise ProofTransformError(f"unsupported justification {just!r}")

    return out.build()


def _nested_step(out, proof, ix, done, spec, wrap) -> int:
    """Re-apply the nested rule of step ix over `spec`, whose tower
    Phi_spec(body) and wrap(Phi(body)) imply each other propositionally over
    the tower's opaque head.  done maps each old step to the new step proving
    its wrap; returns the step proving wrap of step ix's formula."""
    just, f = proof.steps[ix].just, proof.steps[ix].formula
    tau = peel_nested(just.spec, f)
    body = _NESTED[type(just)].body
    premises = []
    for key, s in _premises(just):
        taut = out.prop(implies(wrap(proof.steps[s].formula),
                                nested_implication(spec, body(tau, key))))
        premises.append((key, out.mp(done[s], taut)))
    rebuilt = out.add(nested_implication(spec, tau),
                      _with_premises(just, spec, tuple(premises)))
    back = out.prop(implies(nested_implication(spec, tau), wrap(f)))
    return out.mp(rebuilt, back)


# ---------------------------------------------------------------------------
# strong necessitation


def k_distribution(out: ProofBuilder, agent, a, b) -> int:
    """Derive K_i(a -> b) -> (K_i a -> K_i b) from the distribution axiom."""
    akx = out.axiom(ax.AK, {"i": agent, "phi": a, "psi": b})
    shuffle = out.prop(implies(
        out.steps[akx].formula,
        implies(Knows(agent, implies(a, b)),
                implies(Knows(agent, a), Knows(agent, b)))))
    return out.mp(akx, shuffle)


def strong_necessitation_transform(proof: Proof, agent: str) -> Proof:
    """Turn a proof of psi from T into a proof of K_i psi from K_i T."""
    _ensure_accepted(proof)

    new_hyps = tuple(Knows(agent, h) for h in proof.hypotheses)
    out = ProofBuilder(new_hyps, proof.mode)
    copier = _SubtreeCopier(proof, out)
    done = {}  # old index -> new index proving K_agent(old formula)

    for ix, step in enumerate(proof.steps):
        f, just = step.formula, step.just

        if isinstance(just, AxiomJust):
            base = out.add(f, just)
            done[ix] = out.add(Knows(agent, f), RKJust(base, agent))
            continue

        if isinstance(just, HypJust):
            done[ix] = out.hyp(just.index)
            continue

        if isinstance(just, MPJust):
            a = proof.steps[just.premise].formula
            dist = k_distribution(out, agent, a, f)
            half = out.mp(done[just.implication], dist)
            done[ix] = out.mp(done[just.premise], half)
            continue

        if isinstance(just, FORJust):
            body = proof.steps[just.premise].formula
            closed = out.add(Forall(just.var, Knows(agent, body)),
                             FORJust(done[just.premise], just.var))
            barcan = out.axiom(ax.FO3, {"x": just.var, "i": agent, "phi": body})
            done[ix] = out.mp(closed, barcan)
            continue

        if isinstance(just, (RKJust, RPJust)):
            base = copier.copy(just.premise)
            inner = out.add(f, replace(just, premise=base))
            done[ix] = out.add(Knows(agent, f), RKJust(inner, agent))
            continue

        if type(just) in _NESTED:
            # top -> K_agent(...) becomes the outermost layer
            spec = NestedImplicationSpec(
                just.spec.k + 1, just.spec.thetas + (top(),),
                just.spec.guards + (Guard(GUARD_KNOWS, agent),))
            done[ix] = _nested_step(out, proof, ix, done, spec,
                                    lambda g: Knows(agent, g))
            continue

        raise ProofTransformError(f"unsupported justification {just!r}")

    return out.build()
