"""The semantics referees the proof checker.

The consequence relation checked is the paper's soundness half, over
seeded random models of the plain class: a step is judged at a model only
if every hypothesis of its proof holds at every state of that model, and
it must then hold at every state too.  For a theorem (a step that uses no
hypothesis) this is validity on the model.

(a) Every theorem-flagged step of the shipped proofs, of random finitary
proofs and of their deduction and strong-necessitation transforms holds on
every model of the pool.

(b) For each nested rule (RE, RPE, RC, RPC, RA), near misses of a correct
step: a premise cites the step proved for another member or index, the
conclusion is over another body, or a premise is left out.  Whenever the
evaluator falsifies a near miss on a model where its hypotheses hold,
`check` must reject it.  The premise bodies are written here from the
paper's rules, not read from the checker's table.

(c) Every formula of `tests/golden/axiom_matches.txt` that `match_axiom`
accepts holds at every state of every model of a seeded set, under every
valuation, where it is measurable.  An instance of a class axiom (CON,
OBJ, SDP-A, UNIF-A) counts only on the models of its class.
"""

from fractions import Fraction
from pathlib import Path

from pckfo import axioms as ax, oracle
from pckfo.errors import NotMeasurable
from pckfo.model import Model, classify
from pckfo.oracle import (
    SearchBudget, random_models, targeted_class_models, value_or_raise,
)
from pckfo.parser import parse_formula
from pckfo.proofcheck import (
    Certificate, HypJust, Proof, RAJust, RCJust, REJust, RPCJust, RPEJust,
    Step, check, deduction_transform, strong_necessitation_transform,
)
from pckfo.prooflib import (
    fixed_point_proof, group_pair_proof, k_distribution_proof,
    random_finitary_proof,
)
from pckfo.report import REJECTED
from pckfo.syntax import (
    Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb, Guard,
    GUARD_CERTAIN, Knows, NestedImplicationSpec, Not, ProbAtLeast,
    iterate_everyone, knows_prob, nested_implication, prob_common_stage, top,
)

F = Fraction
p, q = Atom("p"), Atom("q")

# Three states at most, so a certificate of bound 3 decides C and Cs on
# every model of the pool: a state reachable at all is reachable within 3
# steps, and the stages of Cs can shrink at most 3 times.
_BUDGET = SearchBudget(max_states=3, max_domain=2, max_agents=2,
                       relation_symbols=(("p", 0), ("q", 0), ("R", 1)),
                       atom_mode="singleton", seed=2024)
_POOL = random_models(_BUDGET, 200, tag="proof-semantics")


def _masks(formulas):
    """{formula: [holds everywhere, per pool model]}."""
    formulas = list(dict.fromkeys(formulas))
    out = {f: [] for f in formulas}
    for m, masks in oracle._scan(_POOL, formulas):
        full = (1 << len(m.states)) - 1
        for f, mask in zip(formulas, masks):
            out[f].append(value_or_raise(mask) == full)
    return out


def _theorems(proof):
    rep = check(proof)
    assert rep.passed
    flags = rep.details[-1]["theorem_steps"]
    return [s.formula for s, flag in zip(proof.steps, flags) if flag]


def test_theorem_steps_hold_on_random_models():
    proofs = [k_distribution_proof(), group_pair_proof(), fixed_point_proof(4)]
    proofs += [strong_necessitation_transform(pr, "a") for pr in proofs]
    for seed in range(12):
        proof = random_finitary_proof(seed)
        proofs += [proof, deduction_transform(proof, proof.hypotheses[0]),
                   strong_necessitation_transform(proof, "a")]
    theorems = [f for proof in proofs for f in _theorems(proof)]
    for f, holds in _masks(theorems).items():
        assert all(holds), f


# ---------------------------------------------------------------------------
# near misses of the nested rules

_G = ("a", "b")
_R = F(1, 2)
_BOUND = 3
_SPECS = (NestedImplicationSpec(0, (q,), ()),
          NestedImplicationSpec(1, (top(), q), (Guard(GUARD_CERTAIN, "b"),)))
_OTHER = Not(p)

# rule -> (head over a body, premise body over (head's body, key), keys,
# justification over (spec, ((key, step), ...)))
_RULES = {
    "RE": (lambda b: EveryoneKnows(_G, b), lambda b, i: Knows(i, b), _G,
           REJust),
    "RPE": (lambda b: EveryoneProb(_G, _R, b),
            lambda b, i: knows_prob(i, _R, b), _G,
            lambda spec, prem: RPEJust(spec, _R, prem)),
    "RC": (lambda b: CommonKnows(_G, b),
           lambda b, m: iterate_everyone(_G, m, b), range(1, _BOUND + 1),
           lambda spec, prem: RCJust(spec, Certificate(_BOUND, prem))),
    "RPC": (lambda b: CommonProb(_G, _R, b),
            lambda b, m: prob_common_stage(_G, _R, m, b),
            range(1, _BOUND + 1),
            lambda spec, prem: RPCJust(spec, _R, Certificate(_BOUND, prem))),
    # r = 1/2: the family P >= 1/2 - 1/m starts at m = ceil(1/r) = 2
    "RA": (lambda b: ProbAtLeast("a", _R, b),
           lambda b, m: ProbAtLeast("a", _R - F(1, m), b),
           range(2, _BOUND + 1),
           lambda spec, prem: RAJust(spec, "a", _R, Certificate(_BOUND, prem))),
}


def _step(rule, spec, cited, body=p):
    """A proof of one nested step over `body` whose premise for each key
    cites a hypothesis step proving cited[key]."""
    head, _, _, just = _RULES[rule]
    hyps = tuple(dict.fromkeys(cited.values()))
    steps = [Step(h, HypJust(ix)) for ix, h in enumerate(hyps)]
    prem = tuple((key, hyps.index(f)) for key, f in cited.items())
    steps.append(Step(nested_implication(spec, head(body)), just(spec, prem)))
    return Proof(hyps, tuple(steps))


def _right(rule, spec):
    """{key: the premise formula the rule asks for}."""
    _, premise, keys, _ = _RULES[rule]
    return {k: nested_implication(spec, premise(p, k)) for k in keys}


def _near_misses(rule, spec):
    """(kind, proof) of every near miss of the correct step."""
    right = _right(rule, spec)
    keys = list(right)
    out = [("other body", _step(rule, spec, right, _OTHER))]
    for ix, key in enumerate(keys):
        other = keys[(ix + 1) % len(keys)]
        out.append(("wrong premise", _step(rule, spec,
                                           {**right, key: right[other]})))
        out.append(("left out", _step(rule, spec, {
            k: f for k, f in right.items() if k != key})))
    return out


def test_falsified_near_misses_are_rejected():
    cases = [(rule, spec, kind, proof) for rule in _RULES for spec in _SPECS
             for kind, proof in _near_misses(rule, spec)]
    correct = [(rule, spec, _step(rule, spec, _right(rule, spec)))
               for rule in _RULES for spec in _SPECS]
    proofs = [proof for *_, proof in cases + correct]
    holds = _masks([f for proof in proofs
                    for f in (*proof.hypotheses, proof.conclusion)])

    def falsified(proof):
        return any(all(holds[h][k] for h in proof.hypotheses)
                   and not holds[proof.conclusion][k]
                   for k in range(len(_POOL)))

    for rule, spec, proof in correct:
        assert check(proof).passed
        # A certificate of bound 3 decides C and Cs on the pool; no bound
        # decides the Archimedean rule on every model.
        assert rule == "RA" or not falsified(proof), (rule, spec)
    caught = {}
    for rule, spec, kind, proof in cases:
        if falsified(proof):
            caught.setdefault(kind, set()).add(rule)
            assert check(proof).verdict == REJECTED, (rule, spec, kind)
    # Each kind has bite.  The stages of Cs descend, so only an RPC near
    # miss that drops or re-cites the last stage can be falsified, and no
    # model of the pool needs its third stage.
    assert caught == {"other body": set(_RULES),
                      "wrong premise": set(_RULES) - {"RPC"},
                      "left out": set(_RULES) - {"RPC"}}


AXIOM_MATCHES = Path(__file__).resolve().parent / "golden" \
    / "axiom_matches.txt"

# The class each class axiom is sound over, as `classify` flags it.
_AXIOM_CLASS = {ax.CON: "CON", ax.OBJ: "OBJ", ax.SDP_A: "SDP",
                ax.UNIF_A: "UNIF"}

# The corpus's signature: agents a, b, c, and the symbols below; the
# functions c, f and g get seeded tables.
_AXIOM_BUDGET = SearchBudget(
    max_states=3, max_domain=2, max_agents=3,
    relation_symbols=(("p", 0), ("q", 0), ("R", 1), ("S", 2), ("Q", 1)),
    seed=7)


def _axiom_models() -> list:
    """60 random models and 15 of each class, each with the function
    tables of the corpus."""
    models = random_models(_AXIOM_BUDGET, 60, tag="axiom-semantics")
    for flag in _AXIOM_CLASS.values():
        models += targeted_class_models(_AXIOM_BUDGET, flag, 15)
    d0, d1 = _AXIOM_BUDGET.domain
    functions = {"c": (0, {(): d0}), "f": (1, {(d0,): d1, (d1,): d1}),
                 "g": (1, {(d0,): d1, (d1,): d0})}
    return [Model.compiled(m.states, m.domain, m.agents, functions,
                           m.relations, m.groups, m.names, m.pred, m.spaces)
            for m in models]


def test_accepted_axiom_instances_hold_on_random_models():
    accepted = {}   # formula -> the classes it is sound over, None for all
    for line in AXIOM_MATCHES.read_text().splitlines():
        f = parse_formula(line.split("\t")[0])
        for match in ax.match_axiom(f, ax.ALL_AXIOMS):
            accepted.setdefault(f, set()).add(_AXIOM_CLASS.get(match.name))
    formulas = list(accepted)
    assert len(formulas) >= 900
    checked = 0
    models = _axiom_models()
    for m, masks in oracle._scan(models, formulas):
        flags = classify(m) | {None}
        full = (1 << len(m.states)) - 1
        for f, out in zip(formulas, masks):
            if isinstance(out, NotMeasurable) or not accepted[f] & flags:
                continue
            checked += 1
            assert value_or_raise(out) == full, f
    assert checked >= 0.8 * len(formulas) * len(models)

