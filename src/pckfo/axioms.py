"""Axiom schemata: instantiation, recognition and the tautology decision.

Each schema is defined once, by its builder: instantiate constructs an
instance from parameters and checks the side conditions.  Recognition is
purely syntactic over core formulas and goes through the same builders:
match_axiom guesses candidate parameters from the outer shape of the input
and keeps a candidate only if its instantiation is structurally equal to the
input.  A formula can instantiate several schemata at once; match_axiom
reports every such (name, parameters) pair.

Prop, the schema of propositional tautologies, is decided by
tautology_check over the formula's opaque atoms: by a bit-parallel truth
table when its rows fit within the decision budget, and otherwise by
Tseitin's encoding of the negated formula and a DPLL search that stops at
that budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, SideConditionError
from . import syntax as syn
from .syntax import (
    And, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb, Forall, Knows,
    Not, ProbAtLeast, Var, free_vars, implies, is_free_for, iterate_everyone,
    prob_common_stage, prob_le, prob_lt, split_implies, substitute,
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

#: Branching decisions one tautology check may take before it gives up.  A
#: formula over n opaque atoms with 2^n at most this many is decided by its
#: truth table of 2^n rows instead, which the search would never exceed.
_TAUT_DECISION_BUDGET = 1 << 14


@dataclass
class AxiomInstance:
    name: str
    formula: "syn.Formula"
    params: dict = field(default_factory=dict)


def tautology_check(f) -> bool:
    """Is f a boolean tautology over its maximal non-boolean subformulas?

    Subformulas whose head is not negation/conjunction are treated as opaque
    atoms (identified up to structural equality).  With n of them and 2^n
    at most _TAUT_DECISION_BUDGET, f is decided by its truth table: atom k
    is the int whose bit r is bit k of r, each negation and conjunction is
    an `^` or `&` of those 2^n-bit columns, and f is a tautology iff its
    column has every bit set.  Otherwise Tseitin's encoding puts not-f into
    clause form, and f is a tautology iff a DPLL search finds those clauses
    unsatisfiable.  A search past _TAUT_DECISION_BUDGET decisions leaves the
    question undecided and raises BudgetError.

    Both deciders are exact, so they give the same verdict wherever both
    decide, and the truth table takes over only where the search would
    decide too: the search branches on the n opaque atoms only, in a fixed
    order, and flips each decision at most once, so its decisions are the
    inner nodes of a binary tree of depth n, at most 2^n - 1 of them, which
    is below the budget whenever 2^n is at most it.
    """
    order, atoms = _spine(f)
    n = len(atoms)
    if 1 << n > _TAUT_DECISION_BUDGET:
        atoms, nvars, root, clauses = _tseitin(order)
        return not _satisfiable(atoms, nvars, -root, clauses)
    full = (1 << (1 << n)) - 1
    columns = []
    for k in range(n):
        width = 2 << k      # the period of column k, doubled to 2^n rows
        column = (1 << (1 << k)) - 1 << (1 << k)
        while width >> n == 0:
            column |= column << width
            width *= 2
        columns.append(column)
    rows = {}       # id(node) -> the rows where it holds
    for g in order:
        cls = type(g)
        if cls is Not:
            rows[id(g)] = rows[id(g.body)] ^ full
        elif cls is And:
            rows[id(g)] = rows[id(g.left)] & rows[id(g.right)]
        else:
            rows[id(g)] = columns[atoms[g]]
    return rows[id(f)] == full


def _spine(f):
    """The negations and conjunctions of f and the opaque atoms they stop
    at, each distinct node object once and after its operands, the left
    operand's first; and a map from each opaque atom, up to structural
    equality, to its index in that order.

    The walk keeps an explicit stack, on which a node is pushed again,
    done, under its operands, and nodes are marked by id(), so each node
    of a deep spine, or of the DAG that iff builds, is expanded once and
    looked up without hashing."""
    order = []
    seen = set()    # id() of the nodes met
    atoms = {}
    stack = [(f, False)]
    while stack:
        g, done = stack.pop()
        if done:
            order.append(g)
            continue
        if id(g) in seen:
            continue
        seen.add(id(g))
        stack.append((g, True))
        cls = type(g)
        if cls is Not:
            stack.append((g.body, False))
        elif cls is And:
            # the left operand on top, so its atoms are numbered first
            stack += ((g.right, False), (g.left, False))
        elif g not in atoms:
            atoms[g] = len(atoms)
    return order, atoms


def _tseitin(order):
    """Clauses that define a literal for the last node of `order`, a spine
    as `_spine` lists it, over its opaque atoms.

    Returns (atoms, nvars, root, clauses): the opaque atoms' variables in
    first-occurrence order, the number of variables, the root's literal,
    and the clauses.  Variables are positive ints and -v negates v.  A
    conjunction gets a gate variable g with the clauses g -> a, g -> b and
    a & b -> g; a negation flips its body's literal."""
    atoms = {}      # opaque atom -> its variable
    lits = {}       # id(node) -> literal
    clauses = []
    nvars = 0
    for g in order:
        cls = type(g)
        if cls is Not:
            lits[id(g)] = -lits[id(g.body)]
        elif cls is And:
            a, b = lits[id(g.left)], lits[id(g.right)]
            nvars += 1
            clauses += ((-nvars, a), (-nvars, b), (nvars, -a, -b))
            lits[id(g)] = nvars
        else:
            v = atoms.get(g)
            if v is None:
                nvars += 1
                v = atoms[g] = nvars
            lits[id(g)] = v
    return list(atoms.values()), nvars, lits[id(order[-1])], clauses


def _satisfiable(atoms, nvars, unit, clauses) -> bool:
    """DPLL over the clauses with `unit` asserted: unit propagation over an
    explicit trail, chronological backtracking, and branches on the `atoms`
    variables only, in their order.  Every other variable is a gate, fixed
    by propagation once the atoms below it are, so a full atom assignment
    without conflict satisfies every clause."""
    # truth[l] is True, False or None (unassigned) for literal l; negative
    # literals index from the end of the list.
    truth = [None] * (2 * nvars + 1)
    occurs = [[] for _ in truth]    # occurs[l]: the clauses containing l
    for c in clauses:
        for x in c:
            occurs[x].append(c)
    trail, head = [], 0
    decisions = []  # (trail length before, atom index, literal, flipped)
    spent = 0
    lit = unit
    while True:
        trail.append(lit)
        truth[lit], truth[-lit] = True, False
        conflict = False
        while head < len(trail) and not conflict:
            done = trail[head]
            head += 1
            for c in occurs[-done]:
                free = 0
                for x in c:
                    t = truth[x]
                    if t is None:
                        free += 1
                        last = x
                    elif t:
                        break
                else:
                    if free == 0:
                        conflict = True
                        break
                    if free == 1:
                        truth[last], truth[-last] = True, False
                        trail.append(last)
        if conflict:
            while decisions and decisions[-1][3]:
                decisions.pop()
            if not decisions:
                return False
            pos, ix, lit, _ = decisions.pop()
            for x in trail[pos:]:
                truth[x] = truth[-x] = None
            del trail[pos:]
            head, lit = pos, -lit
            decisions.append((pos, ix, lit, True))
            continue
        # Atoms before the last decision's are all assigned at this level.
        ix = decisions[-1][1] + 1 if decisions else 0
        while ix < len(atoms) and truth[atoms[ix]] is not None:
            ix += 1
        if ix == len(atoms):
            return True
        spent += 1
        if spent > _TAUT_DECISION_BUDGET:
            raise BudgetError(
                f"tautology check over {len(atoms)} opaque atoms exceeds the "
                f"decision budget of {_TAUT_DECISION_BUDGET}")
        lit = atoms[ix]
        decisions.append((len(trail), ix, lit, False))


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
    v = params[key]
    if type(v) is not Fraction:
        v = Fraction(v)
    if not 0 <= v.numerator <= v.denominator:   # the denominator is positive
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
        # the parser imports this module, through proofcheck
        from .parser import print_term
        raise SideConditionError(
            f"term '{print_term(term)}' is not free for {x!r}")
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
    conditions.  A Prop candidate whose tautology search exceeds the
    decision budget raises BudgetError: it is undecided, not a non-instance.
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


def _guess_prop(f):
    yield {"formula": f}


@_implication
def _guess_fo1(a, c):
    if isinstance(a, Forall) and (body := split_implies(a.body)):
        yield {"x": a.var, "phi": body[0], "psi": body[1]}


@_implication
def _guess_fo2(a, c):
    # With x free in phi the term is one of the consequent's distinct
    # terms; without, any term instantiates trivially and x itself is the
    # canonical one.
    if isinstance(a, Forall):
        terms = list(dict.fromkeys(syn.subterms(c))) \
            if a.var in free_vars(a.body) else []
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
