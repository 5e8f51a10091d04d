"""Terms, formulas and the structural operations on them.

The formula type keeps only the core constructors: atoms, negation,
conjunction, universal quantification, the knowledge operators (individual,
group, common) and their probabilistic counterparts.  Everything else
(implication, disjunction, existential quantifier, the remaining probability
comparisons, truth constants) is an abbreviation and is expanded eagerly, so
structural equality of dataclasses is the one and only formula identity.

Formula nodes are immutable, so each one computes its hash and its set of
free variables the first time it is asked and keeps them in the node.  The
hash is the one a frozen dataclass gives (the hash of the tuple of its
fields), and equality stays structural: two separately built equal formulas
are equal and hash alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Union

from .errors import ArityError, CaptureError, RationalRangeError

# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple = ()


Term = Union[Var, App]


def term_vars(t: Term) -> frozenset:
    """All variables occurring in a term."""
    out = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            out.add(cur.name)
        else:
            stack.extend(cur.args)
    return frozenset(out)


# ---------------------------------------------------------------------------
# formulas


def _as_group(members) -> tuple:
    """Normalize a group: sorted, duplicate-free, nonempty tuple of tokens.
    A tuple of strings already in that form is returned as it is."""
    if type(members) is tuple and members:
        prev = ""
        for m in members:
            if type(m) is not str or not prev < m:
                break
            prev = m
        else:
            return members
    out = tuple(sorted(set(members)))
    if not out:
        raise ValueError("group must be nonempty")
    for m in out:
        if not m:
            raise ValueError("group member tokens must be nonempty")
    return out


def _check_bound(r: Fraction) -> Fraction:
    if type(r) is Fraction and 0 <= r.numerator <= r.denominator:
        return r
    r = Fraction(r)
    if r < 0 or r > 1:
        raise RationalRangeError(f"probability bound {r} outside [0, 1]")
    return r


@dataclass(frozen=True)
class _Node:
    """What every formula node keeps about itself once it is asked: its
    hash and its free variables (None until then).  They are written
    straight into the instance dict, as functools.cached_property does,
    because the dataclass is frozen."""

    _hash: int = field(default=None, init=False, repr=False, compare=False)
    _fv: frozenset = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # String hashes differ between processes, so a pickled or copied
        # node starts without the stored values.
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_hash", "_fv")}


def _node(cls):
    """Make cls a frozen formula dataclass whose __hash__ computes the
    dataclass hash once and then returns the stored value."""
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = structural(self)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Atom(_Node):
    rel: str
    args: tuple = ()


@_node
class Not(_Node):
    body: "Formula"


@_node
class And(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Forall(_Node):
    var: str
    body: "Formula"


@_node
class Knows(_Node):
    agent: str
    body: "Formula"


@_node
class EveryoneKnows(_Node):
    group: tuple
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "group", _as_group(self.group))


@_node
class CommonKnows(_Node):
    group: tuple
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "group", _as_group(self.group))


@_node
class ProbAtLeast(_Node):
    agent: str
    bound: Fraction
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "bound", _check_bound(self.bound))


@_node
class EveryoneProb(_Node):
    group: tuple
    bound: Fraction
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "group", _as_group(self.group))
        object.__setattr__(self, "bound", _check_bound(self.bound))


@_node
class CommonProb(_Node):
    group: tuple
    bound: Fraction
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "group", _as_group(self.group))
        object.__setattr__(self, "bound", _check_bound(self.bound))


Formula = Union[
    Atom, Not, And, Forall, Knows, EveryoneKnows, CommonKnows,
    ProbAtLeast, EveryoneProb, CommonProb,
]

_UNARY_BODY = (Not, Knows, EveryoneKnows, CommonKnows, ProbAtLeast,
               EveryoneProb, CommonProb)


def children(f: Formula) -> tuple:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, And):
        return (f.left, f.right)
    return (f.body,)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Depth-first iterator over f and all its subformulas."""
    stack = [f]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(children(cur))


# ---------------------------------------------------------------------------
# abbreviations (always expanded, never stored)

FALSUM_REL = "ff"


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def exists(var: str, f: Formula) -> Formula:
    return Not(Forall(var, Not(f)))


def bot() -> Formula:
    return And(Atom(FALSUM_REL), Not(Atom(FALSUM_REL)))


def top() -> Formula:
    return Not(bot())


def prob_lt(agent: str, r, f: Formula) -> Formula:
    return Not(ProbAtLeast(agent, r, f))


def prob_le(agent: str, r, f: Formula) -> Formula:
    return ProbAtLeast(agent, 1 - Fraction(r), Not(f))


def prob_gt(agent: str, r, f: Formula) -> Formula:
    return Not(prob_le(agent, r, f))


def prob_eq(agent: str, r, f: Formula) -> Formula:
    return And(prob_le(agent, r, f), ProbAtLeast(agent, r, f))


def knows_prob(agent: str, r, f: Formula) -> Formula:
    """The 'knows the probability is at least r' operator."""
    return Knows(agent, ProbAtLeast(agent, r, f))


_ABBREVS = {
    "implies": lambda a, b: implies(a, b),
    "or": lambda a, b: disj(a, b),
    "iff": lambda a, b: iff(a, b),
    "exists": lambda x, f: exists(x, f),
    "top": top,
    "bot": bot,
    "P<": prob_lt,
    "P<=": prob_le,
    "P>": prob_gt,
    "P=": prob_eq,
    "Kr": knows_prob,
}


def expand_abbrev(name: str, *args) -> Formula:
    """Expand a named abbreviation into its defining core formula."""
    try:
        build = _ABBREVS[name]
    except KeyError:
        raise ValueError(f"unknown abbreviation {name!r}") from None
    return build(*args)


# ---------------------------------------------------------------------------
# free variables, substitution

def free_vars(f: Formula) -> frozenset:
    """Variables with at least one free occurrence in f (computed once per
    node and kept in it)."""
    out = f._fv
    if out is not None:
        return out
    if isinstance(f, Atom):
        out = frozenset().union(*(term_vars(t) for t in f.args)) if f.args else frozenset()
    elif isinstance(f, Forall):
        out = free_vars(f.body) - {f.var}
    elif isinstance(f, And):
        out = free_vars(f.left) | free_vars(f.right)
    else:
        out = free_vars(f.body)
    f.__dict__["_fv"] = out
    return out


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def substitute_term(t: Term, x: str, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t.name == x else t
    return App(t.fn, tuple(substitute_term(a, x, repl) for a in t.args))


def is_free_for(t: Term, x: str, f: Formula) -> bool:
    """True iff no free occurrence of x in f sits under a binder for a
    variable of t."""
    tvars = term_vars(t)

    def walk(g: Formula, blocked: frozenset) -> bool:
        if isinstance(g, Atom):
            if any(x in term_vars(a) for a in g.args):
                return not (tvars & blocked)
            return True
        if isinstance(g, Forall):
            if g.var == x:
                return True  # x is bound below here
            add = {g.var} if g.var in tvars else set()
            return walk(g.body, blocked | add)
        if isinstance(g, And):
            return walk(g.left, blocked) and walk(g.right, blocked)
        return walk(g.body, blocked)

    return walk(f, frozenset())


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of x in f by t.

    Raises CaptureError when t is not free for x in f.
    """
    if not is_free_for(t, x, f):
        raise CaptureError(x, t, _capture_binder(f, x, t))

    def walk(g: Formula) -> Formula:
        if x not in free_vars(g):
            return g
        if isinstance(g, Atom):
            return Atom(g.rel, tuple(substitute_term(a, x, t) for a in g.args))
        if isinstance(g, And):
            return And(walk(g.left), walk(g.right))
        # Every other node has one body; a Forall here binds a variable
        # other than x, since x occurs free below it.
        return replace(g, body=walk(g.body))

    return walk(f)


def _capture_binder(f: Formula, x: str, t: Term) -> str:
    """Find a binder name responsible for the capture (for the error)."""
    tvars = term_vars(t)
    for g in subformulas(f):
        if isinstance(g, Forall) and g.var in tvars and x in free_vars(g.body) and g.var != x:
            return g.var
    return "?"


# ---------------------------------------------------------------------------
# k-nested implications and iterated operators

GUARD_KNOWS = "K"
GUARD_CERTAIN = "P1"  # the probability-one operator


@dataclass(frozen=True)
class Guard:
    """One wrapping operator of a nested implication: K_i or P_{i,>=1}."""

    kind: str
    agent: str

    def __post_init__(self):
        if self.kind not in (GUARD_KNOWS, GUARD_CERTAIN):
            raise ValueError(f"guard kind must be K or P1, got {self.kind!r}")

    def wrap(self, f: Formula) -> Formula:
        if self.kind == GUARD_KNOWS:
            return Knows(self.agent, f)
        return ProbAtLeast(self.agent, Fraction(1), f)


@dataclass(frozen=True)
class NestedImplicationSpec:
    """Shape of a guarded implication tower: k, thetas (k+1 of them) and the
    k guards applied outermost-last."""

    k: int
    thetas: tuple
    guards: tuple

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be a natural number")
        if len(self.thetas) != self.k + 1:
            raise ValueError(
                f"need {self.k + 1} thetas for k={self.k}, got {len(self.thetas)}")
        if len(self.guards) != self.k:
            raise ValueError(
                f"need {self.k} guards for k={self.k}, got {len(self.guards)}")


def nested_implication(spec: NestedImplicationSpec, tau: Formula) -> Formula:
    """Build theta_k -> X_k(... (theta_0 -> tau) ...)."""
    out = implies(spec.thetas[0], tau)
    for j in range(1, spec.k + 1):
        out = implies(spec.thetas[j], spec.guards[j - 1].wrap(out))
    return out


def peel_nested(spec: NestedImplicationSpec, f: Formula):
    """Inverse of nested_implication: recover tau, or None on shape mismatch."""
    cur = f
    for j in range(spec.k, 0, -1):
        pair = split_implies(cur)
        if pair is None or pair[0] != spec.thetas[j]:
            return None
        wrapped = pair[1]
        guard = spec.guards[j - 1]
        if guard.kind == GUARD_KNOWS:
            if not (isinstance(wrapped, Knows) and wrapped.agent == guard.agent):
                return None
        else:
            if not (isinstance(wrapped, ProbAtLeast) and wrapped.agent == guard.agent
                    and wrapped.bound == 1):
                return None
        cur = wrapped.body
    pair = split_implies(cur)
    if pair is None or pair[0] != spec.thetas[0]:
        return None
    return pair[1]


def split_implies(f: Formula):
    """Destructure the expansion of an implication, if f has that shape."""
    if isinstance(f, Not) and isinstance(f.body, And) and isinstance(f.body.right, Not):
        return (f.body.left, f.body.right.body)
    return None


def iterate_everyone(group, m: int, f: Formula) -> Formula:
    """m-fold application of the everyone-knows operator (m >= 1)."""
    if m < 1:
        raise ArityError("iterated everyone-knows is defined from m = 1")
    out = f
    for _ in range(m):
        out = EveryoneKnows(group, out)
    return out


def prob_common_stage(group, r, m: int, f: Formula) -> Formula:
    """Stage m of the probabilistic-common-knowledge recursion.

    Stage 0 is the truth constant; stage m+1 wraps the conjunction of f with
    the previous stage in the group probability operator.
    """
    if m < 0:
        raise ArityError("stage index must be a natural number")
    out = top()
    for _ in range(m):
        out = EveryoneProb(group, r, And(f, out))
    return out
