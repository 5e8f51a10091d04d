"""Terms, formulas and the structural operations on them.

The formula type keeps only the core constructors: atoms, negation,
conjunction, universal quantification, the knowledge operators (individual,
group, common) and their probabilistic counterparts.  Everything else
(implication, disjunction, existential quantifier, the remaining probability
comparisons, truth constants) is an abbreviation and is expanded eagerly, so
structural equality is the one and only formula identity.

Terms (variables and applications of rigid function symbols) are nodes of
the same kind as formulas.  This module alone decides the identity of both,
and no walk here recurses: a node is sealed when it is built, its hash and
free variables made from its operands', which are built first (`_node`),
and equality walks a stack of node pairs.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Union

from .errors import ArityError, CaptureError, RationalRangeError

# ---------------------------------------------------------------------------
# terms and formulas


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


_NO_VARS = frozenset()

# How a node's __init__ sets fv, its free variables, from its operands',
# by the field that tells its kind.
_FREE_VARS = (
    ("name", ["fv = frozenset((name,))"]),
    ("args", ["fv = _NO_VARS",
              "for t in args:",
              "    a = t._fv",
              "    if a and a is not fv:",
              "        fv = fv | a if fv else a"]),
    ("left", ["a, b = left._fv, right._fv",
              "fv = a | b if a and b and a is not b else a or b"]),
    ("var", ["fv = body._fv",
             "if var in fv:",
             "    fv = fv - {var}"]),
    ("body", ["fv = body._fv"]),
)
_NORMS = {"group": "_as_group", "bound": "_check_bound"}


def _node(cls):
    """Make cls a frozen term or formula dataclass with this module's hash
    and equality, sealed when built.  Its `__init__`, generated here as a
    frozen dataclass generates one, sets the fields, a group and a bound
    in normal form, then seals the node: it stores its free variables,
    made from its operands', and its hash, that of the tuple of its
    fields, as a frozen dataclass hashes.  The operands were built before
    it, so they are sealed, and no walk is needed.  A node is pickled and
    copied as a call of its constructor, so a copy is sealed in its own
    process, whose string hashes differ.  `_data` reads the fields that
    are not subnodes."""
    cls = dataclass(frozen=True, init=False, eq=False)(cls)
    names = [fl.name for fl in fields(cls)]
    params = [fl.name if fl.default is MISSING else f"{fl.name}={fl.default!r}"
              for fl in fields(cls)]
    free = next(lines for name, lines in _FREE_VARS if name in names)
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *[f"    _set(self, {n!r}, {n} := {_NORMS[n]}({n}))" if n in _NORMS
          else f"    _set(self, {n!r}, {n})" for n in names],
        *["    " + line for line in free],
        "    _set(self, '_fv', fv)",
        f"    _set(self, '_hash', hash(({', '.join(names)},)))",
        "def __reduce__(self):",
        f"    return type(self), ({''.join(f'self.{n}, ' for n in names)})",
    ])
    made = {}
    exec(source, {"_as_group": _as_group, "_check_bound": _check_bound,
                  "_NO_VARS": _NO_VARS, "_set": object.__setattr__}, made)
    cls.__init__, cls.__reduce__ = made["__init__"], made["__reduce__"]
    data = [n for n in names if n not in ("body", "left", "right", "args")]
    cls._data = attrgetter(*data) if data else None
    cls.__hash__ = _stored_hash
    cls.__eq__ = _equal
    return cls


def _stored_hash(f) -> int:
    return f._hash


def _equal(f, g):
    """Structural equality over a stack of node pairs: a pair that is one
    node is equal, one with two types or two unequal stored hashes not.
    Arguments are paired on the stack too, never compared as tuples."""
    if type(g) is not type(f):
        return NotImplemented
    todo = []
    while True:
        if f is not g:
            cls = type(f)
            if cls is not type(g) or f._hash != g._hash:
                return False
            if cls is And:
                todo.append((f.right, g.right))
                f, g = f.left, g.left
                continue
            if cls is not Not and cls._data(f) != cls._data(g):
                return False
            if cls is Atom or cls is App:
                if f.args or g.args:
                    if len(f.args) != len(g.args):
                        return False
                    todo += zip(f.args, g.args)
            elif cls is not Var:
                f, g = f.body, g.body
                continue
        if not todo:
            return True
        f, g = todo.pop()


@_node
class Var:
    name: str


@_node
class App:
    fn: str
    args: tuple = ()


Term = Union[Var, App]


@_node
class Atom:
    rel: str
    args: tuple = ()


@_node
class Not:
    body: "Formula"


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Forall:
    var: str
    body: "Formula"


@_node
class Knows:
    agent: str
    body: "Formula"


@_node
class EveryoneKnows:
    group: tuple
    body: "Formula"


@_node
class CommonKnows:
    group: tuple
    body: "Formula"


@_node
class ProbAtLeast:
    agent: str
    bound: Fraction
    body: "Formula"


@_node
class EveryoneProb:
    group: tuple
    bound: Fraction
    body: "Formula"


@_node
class CommonProb:
    group: tuple
    bound: Fraction
    body: "Formula"


Formula = Union[
    Atom, Not, And, Forall, Knows, EveryoneKnows, CommonKnows,
    ProbAtLeast, EveryoneProb, CommonProb,
]

def subformulas(f: Formula) -> Iterator[Formula]:
    """f and its subformulas, depth first, right operand first."""
    stack = [f]
    while stack:
        cur = stack.pop()
        yield cur
        if type(cur) is And:
            stack += (cur.left, cur.right)
        elif type(cur) is not Atom:
            stack.append(cur.body)


def subterms(f: Formula) -> Iterator[Term]:
    """Every term occurrence in f, each before its arguments; the last
    argument of the last atom in `subformulas` order comes first."""
    stack = [t for g in subformulas(f) if type(g) is Atom for t in g.args]
    while stack:
        t = stack.pop()
        yield t
        if type(t) is App:
            stack += t.args


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


_ABBREVS = {"implies": implies, "or": disj, "iff": iff, "exists": exists,
            "top": top, "bot": bot, "P<": prob_lt, "P<=": prob_le,
            "P>": prob_gt, "P=": prob_eq, "Kr": knows_prob}


def expand_abbrev(name: str, *args) -> Formula:
    """Expand a named abbreviation into its defining core formula."""
    try:
        build = _ABBREVS[name]
    except KeyError:
        raise ValueError(f"unknown abbreviation {name!r}") from None
    return build(*args)


# ---------------------------------------------------------------------------
# free variables, substitution

def free_vars(f) -> frozenset:
    """Variables with at least one free occurrence in a formula or term."""
    return f._fv


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def is_free_for(t: Term, x: str, f: Formula) -> bool:
    """True iff no free occurrence of x in f sits under a binder for a
    variable of t."""
    return _captor(t, x, f) is None


def _captor(t: Term, x: str, f: Formula):
    """The first binder in `subformulas` order that captures a variable of
    t put for a free x in f, or None.  Only nodes with x free are entered."""
    tvars = free_vars(t)
    todo = [f] if tvars else []
    while todo:
        g = todo.pop()
        if x not in free_vars(g):
            continue
        cls = type(g)
        if cls is And:
            todo += (g.left, g.right)
        elif cls is not Atom:
            if cls is Forall and g.var in tvars:
                return g.var
            todo.append(g.body)
    return None


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of x in f by t.

    Raises CaptureError when t is not free for x in f.
    """
    binder = _captor(t, x, f)
    if binder is not None:
        raise CaptureError(x, t, binder)
    # Post-order: a node with x free is pushed again, ready, under its
    # children; a Forall here binds another variable, and a Var is x.
    todo, done = [(f, False)], []
    while todo:
        g, ready = todo.pop()
        cls = type(g)
        if ready:
            if cls is And:
                right = done.pop()
                done[-1] = And(done[-1], right)
            elif cls is Atom or cls is App:
                k = len(done) - len(g.args)
                args = tuple(done[k:])
                done[k:] = [Atom(g.rel, args) if cls is Atom
                            else App(g.fn, args)]
            else:
                done[-1] = replace(g, body=done[-1])
        elif x not in free_vars(g):
            done.append(g)
        elif cls is Var:
            done.append(t)
        else:
            kids = g.args if cls is Atom or cls is App else \
                (g.left, g.right) if cls is And else (g.body,)
            todo.append((g, True))
            todo += [(kid, False) for kid in reversed(kids)]
    return done[0]


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
