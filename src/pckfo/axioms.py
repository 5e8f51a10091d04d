"""Axiom schemata: instantiation, recognition and the tautology decision.

Each schema is defined once, by its builder: instantiate constructs an
instance from parameters and checks the side conditions.  Recognition is
purely syntactic over core formulas and goes through the same builders:
match_axiom guesses candidate parameters from the outer shape of the input
and keeps a candidate only if its instantiation is structurally equal to the
input.  A formula can instantiate several schemata at once; match_axiom
reports every such (name, parameters) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, SideConditionError
from . import syntax as syn
from .syntax import (
    And, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb, Forall,
    Knows, Not, ProbAtLeast, Var, free_vars, implies, is_free_for,
    iterate_everyone, prob_common_stage, prob_le, prob_lt, split_implies,
    substitute,
)

PROP = "Prop"
FO1 = "FO1"
FO2 = "FO2"
FO3 = "FO3"
AK = "AK"
AE = "AE"
AC = "AC"
P1 = "P1"
P2 = "P2"
P3 = "P3"
P4 = "P4"
P5 = "P5"
APE = "APE"
APC = "APC"
CON = "CON"
OBJ = "OBJ"
SDP_A = "SDP-A"
UNIF_A = "UNIF-A"

#: Axioms of the base system.
PLAIN_AXIOMS = (PROP, FO1, FO2, FO3, AK, AE, AC, P1, P2, P3, P4, P5, APE, APC)
#: Axioms of the consistency-condition system (probabilistic necessitation
#: becomes derivable and is dropped as a rule; see proofcheck).
CON_AXIOMS = PLAIN_AXIOMS + (CON,)
#: Class axioms matched only on request, for the class-relative suites.
CLASS_AXIOMS = (CON, OBJ, SDP_A, UNIF_A)
ALL_AXIOMS = PLAIN_AXIOMS + CLASS_AXIOMS

_TAUT_ATOM_CAP = 18


@dataclass
class AxiomInstance:
    name: str
    formula: "syn.Formula"
    params: dict = field(default_factory=dict)


def tautology_check(f) -> bool:
    """Is f a boolean tautology over its maximal non-boolean subformulas?

    Subformulas whose head is not negation/conjunction are treated as opaque
    atoms (identified up to structural equality) and a truth table decides.
    More than _TAUT_ATOM_CAP such atoms leave the question undecided and
    raise BudgetError.
    """
    atoms: dict = {}
    skel = _skeleton(f, atoms)
    n = len(atoms)
    if n > _TAUT_ATOM_CAP:
        raise BudgetError(
            f"tautology check over {n} opaque atoms exceeds the cap of "
            f"{_TAUT_ATOM_CAP}")
    for bits in range(1 << n):
        if not _eval_skeleton(skel, bits):
            return False
    return True


def _skeleton(f, atoms: dict):
    if isinstance(f, Not):
        return ("not", _skeleton(f.body, atoms))
    if isinstance(f, And):
        return ("and", _skeleton(f.left, atoms), _skeleton(f.right, atoms))
    ix = atoms.setdefault(f, len(atoms))
    return ("atom", ix)


def _eval_skeleton(node, bits) -> bool:
    tag = node[0]
    if tag == "atom":
        return bool(bits >> node[1] & 1)
    if tag == "not":
        return not _eval_skeleton(node[1], bits)
    return _eval_skeleton(node[1], bits) and _eval_skeleton(node[2], bits)


# ---------------------------------------------------------------------------
# instantiation


def instantiate(name: str, params: dict):
    """Build the schema instance; raises SideConditionError on bad parameters."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise SideConditionError(f"unknown axiom name {name!r}") from None
    return build(params)


def _rat(params, key) -> Fraction:
    v = Fraction(params[key])
    if v < 0 or v > 1:
        raise SideConditionError(f"{key}={v} outside [0, 1]")
    return v


def _build_prop(p):
    f = p["formula"]
    if not tautology_check(f):
        raise SideConditionError("formula is not a propositional tautology")
    return f


def _build_fo1(p):
    x, phi, psi = p["x"], p["phi"], p["psi"]
    if x in free_vars(phi):
        raise SideConditionError(f"variable {x!r} must not be free in the antecedent")
    return implies(Forall(x, implies(phi, psi)), implies(phi, Forall(x, psi)))


def _build_fo2(p):
    x, phi, term = p["x"], p["phi"], p["term"]
    if not is_free_for(term, x, phi):
        raise SideConditionError(f"term {term!r} is not free for {x!r}")
    return implies(Forall(x, phi), substitute(phi, x, term))


def _build_fo3(p):
    x, i, phi = p["x"], p["i"], p["phi"]
    return implies(Forall(x, Knows(i, phi)), Knows(i, Forall(x, phi)))


def _build_ak(p):
    i, phi, psi = p["i"], p["phi"], p["psi"]
    return implies(And(Knows(i, phi), Knows(i, implies(phi, psi))), Knows(i, psi))


def _build_ae(p):
    g, i, phi = tuple(p["group"]), p["i"], p["phi"]
    if i not in syn.EveryoneKnows(g, phi).group:
        raise SideConditionError(f"agent {i!r} not in the group")
    return implies(EveryoneKnows(g, phi), Knows(i, phi))


def _build_ac(p):
    g, m, phi = tuple(p["group"]), int(p["m"]), p["phi"]
    if m < 1:
        raise SideConditionError("iteration depth m must be at least 1")
    return implies(CommonKnows(g, phi), iterate_everyone(g, m, phi))


def _build_p1(p):
    return ProbAtLeast(p["i"], Fraction(0), p["phi"])


def _build_p2(p):
    i, phi = p["i"], p["phi"]
    r, t = _rat(p, "r"), _rat(p, "t")
    if not t > r:
        raise SideConditionError(f"need t > r, got t={t}, r={r}")
    return implies(prob_le(i, r, phi), prob_lt(i, t, phi))


def _build_p3(p):
    i, phi, t = p["i"], p["phi"], _rat(p, "t")
    return implies(prob_lt(i, t, phi), prob_le(i, t, phi))


def _build_p4(p):
    i, phi, psi = p["i"], p["phi"], p["psi"]
    r, t = _rat(p, "r"), _rat(p, "t")
    return implies(
        And(And(ProbAtLeast(i, r, phi), ProbAtLeast(i, t, psi)),
            ProbAtLeast(i, Fraction(1), Not(And(phi, psi)))),
        ProbAtLeast(i, min(Fraction(1), r + t), syn.disj(phi, psi)))


def _build_p5(p):
    i, phi, psi = p["i"], p["phi"], p["psi"]
    r, t = _rat(p, "r"), _rat(p, "t")
    if r + t > 1:
        raise SideConditionError(f"need r + t <= 1, got {r} + {t}")
    return implies(
        And(prob_le(i, r, phi), prob_lt(i, t, psi)),
        prob_lt(i, r + t, syn.disj(phi, psi)))


def _build_ape(p):
    g, i, phi, r = tuple(p["group"]), p["i"], p["phi"], _rat(p, "r")
    if i not in syn.EveryoneProb(g, r, phi).group:
        raise SideConditionError(f"agent {i!r} not in the group")
    return implies(EveryoneProb(g, r, phi), syn.knows_prob(i, r, phi))


def _build_apc(p):
    g, phi, r, m = tuple(p["group"]), p["phi"], _rat(p, "r"), int(p["m"])
    if m < 0:
        raise SideConditionError("stage index m must be a natural number")
    return implies(CommonProb(g, r, phi), prob_common_stage(g, r, m, phi))


def _build_con(p):
    i, phi = p["i"], p["phi"]
    return implies(Knows(i, phi), ProbAtLeast(i, Fraction(1), phi))


def _build_obj(p):
    i, j, phi, r = p["i"], p["j"], p["phi"], _rat(p, "r")
    return implies(ProbAtLeast(i, r, phi), ProbAtLeast(j, r, phi))


def _build_sdp(p):
    i, phi, r = p["i"], p["phi"], _rat(p, "r")
    return implies(ProbAtLeast(i, r, phi), Knows(i, ProbAtLeast(i, r, phi)))


def _build_unif(p):
    i, phi, r = p["i"], p["phi"], _rat(p, "r")
    return implies(ProbAtLeast(i, r, phi),
                   ProbAtLeast(i, Fraction(1), ProbAtLeast(i, r, phi)))


_BUILDERS = {
    PROP: _build_prop, FO1: _build_fo1, FO2: _build_fo2, FO3: _build_fo3,
    AK: _build_ak, AE: _build_ae, AC: _build_ac,
    P1: _build_p1, P2: _build_p2, P3: _build_p3, P4: _build_p4, P5: _build_p5,
    APE: _build_ape, APC: _build_apc,
    CON: _build_con, OBJ: _build_obj, SDP_A: _build_sdp, UNIF_A: _build_unif,
}


# ---------------------------------------------------------------------------
# matching


def match_axiom(f, names=ALL_AXIOMS) -> list:
    """Every axiom instance (among `names`) structurally equal to f.

    A schema's guesser reads candidate parameters off f's outer shape; a
    candidate is reported only if instantiate rebuilds exactly f from it.
    The builders are thus the one definition of each schema and of its side
    conditions.  A Prop candidate beyond the tautology cap raises
    BudgetError: it is undecided, not a non-instance.
    """
    out = []
    for name in names:
        tried = []
        for params in _GUESSERS[name](f):
            if params in tried:
                continue
            tried.append(params)
            try:
                built = instantiate(name, params)
            except SideConditionError:
                continue
            if built == f:
                out.append(AxiomInstance(name, f, params))
    return out


def _implication(guess):
    """A guesser over the antecedent and consequent of an implication."""
    def on_formula(f):
        pair = split_implies(f)
        return guess(*pair) if pair else ()
    return on_formula


def _subterms(f):
    """Distinct terms occurring in a formula (including nested subterms)."""
    seen = []
    stack = []
    for g in syn.subformulas(f):
        if isinstance(g, Atom):
            stack.extend(g.args)
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.append(t)
            if isinstance(t, syn.App):
                stack.extend(t.args)
    return seen


def _guess_prop(f):
    yield {"formula": f}


@_implication
def _guess_fo1(a, c):
    if isinstance(a, Forall) and (body := split_implies(a.body)):
        yield {"x": a.var, "phi": body[0], "psi": body[1]}


@_implication
def _guess_fo2(a, c):
    # With x free in phi the term sits somewhere in the consequent; without,
    # any term instantiates trivially and x itself is the canonical one.
    if isinstance(a, Forall):
        terms = _subterms(c) if a.var in free_vars(a.body) else []
        for t in terms + [Var(a.var)]:
            yield {"x": a.var, "phi": a.body, "term": t}


@_implication
def _guess_fo3(a, c):
    if isinstance(a, Forall) and isinstance(a.body, Knows):
        yield {"x": a.var, "i": a.body.agent, "phi": a.body.body}


@_implication
def _guess_ak(a, c):
    if isinstance(a, And) and isinstance(a.left, Knows) \
            and isinstance(c, Knows):
        yield {"i": c.agent, "phi": a.left.body, "psi": c.body}


@_implication
def _guess_ae(a, c):
    if isinstance(a, EveryoneKnows) and isinstance(c, Knows):
        yield {"group": a.group, "i": c.agent, "phi": a.body}


@_implication
def _guess_ac(a, c):
    # E^m phi has m more leading everyone-knows layers than phi itself.
    if isinstance(a, CommonKnows):
        m, phi = 0, a.body
        while isinstance(c, EveryoneKnows):
            m, c = m + 1, c.body
        while isinstance(phi, EveryoneKnows):
            m, phi = m - 1, phi.body
        yield {"group": a.group, "m": m, "phi": a.body}


def _guess_p1(f):
    if isinstance(f, ProbAtLeast):
        yield {"i": f.agent, "phi": f.body}


@_implication
def _guess_p2(a, c):
    if isinstance(a, ProbAtLeast) and isinstance(a.body, Not) \
            and isinstance(c, Not) and isinstance(c.body, ProbAtLeast):
        yield {"i": a.agent, "r": 1 - a.bound, "t": c.body.bound,
               "phi": a.body.body}


@_implication
def _guess_p3(a, c):
    if isinstance(a, Not) and isinstance(a.body, ProbAtLeast):
        yield {"i": a.body.agent, "t": a.body.bound, "phi": a.body.body}


@_implication
def _guess_p4(a, c):
    if isinstance(a, And) and isinstance(a.left, And):
        first, second = a.left.left, a.left.right
        if isinstance(first, ProbAtLeast) and isinstance(second, ProbAtLeast):
            yield {"i": first.agent, "r": first.bound, "t": second.bound,
                   "phi": first.body, "psi": second.body}


@_implication
def _guess_p5(a, c):
    if isinstance(a, And):
        le, lt = a.left, a.right
        if isinstance(le, ProbAtLeast) and isinstance(le.body, Not) \
                and isinstance(lt, Not) and isinstance(lt.body, ProbAtLeast):
            yield {"i": le.agent, "r": 1 - le.bound, "t": lt.body.bound,
                   "phi": le.body.body, "psi": lt.body.body}


@_implication
def _guess_ape(a, c):
    if isinstance(a, EveryoneProb) and isinstance(c, Knows):
        yield {"group": a.group, "i": c.agent, "r": a.bound, "phi": a.body}


@_implication
def _guess_apc(a, c):
    # Stage m nests m group-probability layers down the right conjuncts.
    if isinstance(a, CommonProb):
        m = 0
        while isinstance(c, EveryoneProb) and isinstance(c.body, And):
            m, c = m + 1, c.body.right
        yield {"group": a.group, "r": a.bound, "m": m, "phi": a.body}


@_implication
def _guess_con(a, c):
    if isinstance(a, Knows):
        yield {"i": a.agent, "phi": a.body}


@_implication
def _guess_obj(a, c):
    if isinstance(a, ProbAtLeast) and isinstance(c, ProbAtLeast):
        yield {"i": a.agent, "j": c.agent, "r": a.bound, "phi": a.body}


@_implication
def _guess_introspective(a, c):
    """SDP-A and UNIF-A: the antecedent is the whole parameter set."""
    if isinstance(a, ProbAtLeast):
        yield {"i": a.agent, "r": a.bound, "phi": a.body}


_GUESSERS = {
    PROP: _guess_prop, FO1: _guess_fo1, FO2: _guess_fo2, FO3: _guess_fo3,
    AK: _guess_ak, AE: _guess_ae, AC: _guess_ac,
    P1: _guess_p1, P2: _guess_p2, P3: _guess_p3, P4: _guess_p4, P5: _guess_p5,
    APE: _guess_ape, APC: _guess_apc,
    CON: _guess_con, OBJ: _guess_obj,
    SDP_A: _guess_introspective, UNIF_A: _guess_introspective,
}
