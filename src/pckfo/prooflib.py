"""Machine-checkable proofs shipped with the package, plus a small random
proof generator used to exercise the proof transformations.

The three artifact proofs correspond to standard derived laws of the system:
distribution of knowledge over implication, the equivalence of group
knowledge with the member conjunction for a two-agent group, and the
fixed-point law of common knowledge (whose infinite-premise rule application
is witnessed by a bounded certificate and therefore checks as
accepted-with-bounded-certificates).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import axioms as ax
from .errors import ProofTransformError
from .proofcheck import (
    Certificate, FORJust, Guard, MODE_PLAIN, NestedImplicationSpec, Proof,
    ProofBuilder, RCJust, REJust, RKJust, RPJust, k_distribution,
)
from .syntax import (
    And, Atom, CommonKnows, EveryoneKnows, Forall, GUARD_KNOWS, Knows, Not,
    ProbAtLeast, Var, implies, iterate_everyone, nested_implication,
    split_implies, top,
)


def _trans(out: ProofBuilder, ab: int, bc: int) -> int:
    """From steps proving a -> b and b -> c, derive a -> c."""
    fa, fb = split_implies(out.steps[ab].formula)
    fb2, fc = split_implies(out.steps[bc].formula)
    if fb != fb2:
        raise ProofTransformError("transitivity endpoints do not meet")
    taut = out.prop(implies(
        implies(fa, fb), implies(implies(fb, fc), implies(fa, fc))))
    half = out.mp(ab, taut)
    return out.mp(bc, half)


def _conjoin(out: ProofBuilder, a: int, b: int) -> int:
    """From steps proving x and y, derive x AND y."""
    fx = out.steps[a].formula
    fy = out.steps[b].formula
    taut = out.prop(implies(fx, implies(fy, And(fx, fy))))
    half = out.mp(a, taut)
    return out.mp(b, half)


def k_distribution_proof() -> Proof:
    """K_a((p -> q)) distributes: from the distribution axiom alone."""
    out = ProofBuilder()
    k_distribution(out, "a", Atom("p"), Atom("q"))
    return out.build()


def group_pair_proof() -> Proof:
    """Group knowledge for G = {a, b} is the conjunction of the members'."""
    p = Atom("p")
    group = ("a", "b")
    e_p = EveryoneKnows(group, p)
    conj = And(Knows("a", p), Knows("b", p))

    out = ProofBuilder()
    ae_a = out.axiom(ax.AE, {"group": group, "i": "a", "phi": p})
    ae_b = out.axiom(ax.AE, {"group": group, "i": "b", "phi": p})
    merge = out.prop(implies(
        implies(e_p, Knows("a", p)),
        implies(implies(e_p, Knows("b", p)), implies(e_p, conj))))
    fwd = out.mp(ae_b, out.mp(ae_a, merge))

    spec = NestedImplicationSpec(0, (conj,), ())
    pr_a = out.prop(nested_implication(spec, Knows("a", p)))
    pr_b = out.prop(nested_implication(spec, Knows("b", p)))
    bwd = out.add(nested_implication(spec, e_p),
                  REJust(spec, (("a", pr_a), ("b", pr_b))))
    _conjoin(out, fwd, bwd)
    return out.build()


def fixed_point_proof(bound: int = 4) -> Proof:
    """Common knowledge implies group knowledge of (fact and itself).

    The step from all finite degrees to common knowledge inside a knowledge
    operator uses the infinitary rule, here with an explicit certificate up
    to the given bound.
    """
    p = Atom("p")
    group = ("a", "b")
    c_p = CommonKnows(group, p)

    out = ProofBuilder()

    def k_wrapped_implication(agent, a, b, theorem_step) -> int:
        """From a theorem step proving a -> b, derive K_agent a -> K_agent b."""
        wrapped = out.add(Knows(agent, implies(a, b)),
                          RKJust(theorem_step, agent))
        dist = k_distribution(out, agent, a, b)
        return out.mp(wrapped, dist)

    to_everyone = {}  # agent -> step proving C -> K_i(top -> C)
    for agent in group:
        premises = []
        for m in range(1, bound + 1):
            em_p = iterate_everyone(group, m, p)
            ac = out.axiom(ax.AC, {"group": group, "m": m + 1, "phi": p})
            ae = out.axiom(ax.AE, {"group": group, "i": agent, "phi": em_p})
            c_to_k = _trans(out, ac, ae)             # C -> K_i (E_G)^m p
            pad = out.prop(implies(em_p, implies(top(), em_p)))
            lift = k_wrapped_implication(agent, em_p, implies(top(), em_p), pad)
            premises.append((m, _trans(out, c_to_k, lift)))
        spec = NestedImplicationSpec(
            1, (top(), c_p), (Guard(GUARD_KNOWS, agent),))
        rc = out.add(nested_implication(spec, c_p),
                     RCJust(spec, Certificate(bound, tuple(premises))))

        unpad = out.prop(implies(implies(top(), c_p), c_p))
        drop = k_wrapped_implication(agent, implies(top(), c_p), c_p, unpad)
        to_everyone[agent] = _trans(out, rc, drop)   # C -> K_i C

    re_premises = []
    for agent in group:
        ac1 = out.axiom(ax.AC, {"group": group, "m": 1, "phi": p})
        ae1 = out.axiom(ax.AE, {"group": group, "i": agent, "phi": p})
        c_to_kp = _trans(out, ac1, ae1)              # C -> K_i p

        pair = out.prop(implies(p, implies(c_p, And(p, c_p))))
        lift = k_wrapped_implication(agent, p, implies(c_p, And(p, c_p)), pair)
        c_to_kimp = _trans(out, c_to_kp, lift)       # C -> K_i(C -> p & C)

        dist = k_distribution(out, agent, c_p, And(p, c_p))
        c_to_chain = _trans(out, c_to_kimp, dist)    # C -> (K_i C -> K_i(p & C))

        frege = out.prop(implies(
            out.steps[to_everyone[agent]].formula,
            implies(out.steps[c_to_chain].formula,
                    implies(c_p, Knows(agent, And(p, c_p))))))
        half = out.mp(to_everyone[agent], frege)
        re_premises.append((agent, out.mp(c_to_chain, half)))

    spec0 = NestedImplicationSpec(0, (c_p,), ())
    out.add(nested_implication(spec0, EveryoneKnows(group, And(p, c_p))),
            REJust(spec0, tuple(re_premises)))
    return out.build()


# ---------------------------------------------------------------------------
# random finitary proofs (for transformation round-trip testing)

_SENTENCES = (
    Atom("p"),
    Atom("q"),
    Knows("a", Atom("p")),
    implies(Atom("p"), Atom("q")),
    ProbAtLeast("a", Fraction(1, 2), Atom("q")),
    Forall("x", Atom("R", (Var("x"),))),
)


def random_finitary_proof(seed: int, mode: str = MODE_PLAIN) -> Proof:
    """A small random proof using only finitely-many-premise rules."""
    rng = random.Random(f"proofgen:{seed}")
    hyp_count = rng.randint(1, 3)
    hypotheses = tuple(rng.sample(list(_SENTENCES), hyp_count))
    out = ProofBuilder(hypotheses, mode)
    flags = []  # theorem flag per step, tracked for RK/RP picks

    def add_taut():
        a = rng.choice(_SENTENCES)
        b = rng.choice(_SENTENCES)
        pick = rng.randrange(3)
        if pick == 0:
            f = implies(a, a)
        elif pick == 1:
            f = implies(a, implies(b, a))
        else:
            f = implies(And(a, b), a)
        out.prop(f)
        flags.append(True)

    def add_hyp():
        out.hyp(rng.randrange(len(hypotheses)))
        flags.append(False)

    def add_weaken_mp():
        target = rng.randrange(len(out.steps))
        fa = out.steps[target].formula
        b = rng.choice(_SENTENCES)
        taut = out.prop(implies(fa, implies(b, fa)))
        flags.append(True)
        out.mp(target, taut)
        flags.append(flags[target])

    def add_rk():
        theorems = [ix for ix, ok in enumerate(flags) if ok]
        if not theorems:
            return add_taut()
        target = rng.choice(theorems)
        agent = rng.choice(("a", "b"))
        out.add(Knows(agent, out.steps[target].formula), RKJust(target, agent))
        flags.append(True)

    def add_rp():
        if mode != MODE_PLAIN:
            return add_rk()
        theorems = [ix for ix, ok in enumerate(flags) if ok]
        if not theorems:
            return add_taut()
        target = rng.choice(theorems)
        agent = rng.choice(("a", "b"))
        out.add(ProbAtLeast(agent, Fraction(1), out.steps[target].formula),
                RPJust(target, agent))
        flags.append(True)

    def add_re():
        candidates = [ix for ix, s in enumerate(out.steps)
                      if isinstance(s.formula, Knows)]
        if not candidates:
            return add_weaken_mp()
        target = rng.choice(candidates)
        kf = out.steps[target].formula
        spec = NestedImplicationSpec(0, (top(),), ())
        taut = out.prop(implies(kf, nested_implication(spec, kf)))
        flags.append(True)
        padded = out.mp(target, taut)
        flags.append(flags[target])
        out.add(nested_implication(spec, EveryoneKnows((kf.agent,), kf.body)),
                REJust(spec, ((kf.agent, padded),)))
        flags.append(flags[padded])

    def add_for():
        target = rng.randrange(len(out.steps))
        body = out.steps[target].formula
        out.add(Forall("x", body), FORJust(target, "x"))
        flags.append(flags[target])

    add_hyp()
    add_taut()
    moves = (add_taut, add_hyp, add_weaken_mp, add_rk, add_rp, add_re, add_for)
    for _ in range(rng.randint(3, 8)):
        rng.choice(moves)()
    return out.build()
