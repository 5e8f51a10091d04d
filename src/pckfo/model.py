"""Finite Kripke-probability models: validation, measures, class predicates.

A model couples a finite state set with a fixed first-order structure per
state (rigid functions, per-state relations), one accessibility relation per
agent, and one finitely additive probability space per (agent, state).  The
algebra of each space is represented by its atoms: a partition of the sample
set whose finite unions are exactly the measurable sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EvalError, NotMeasurable, SchemaError
from .report import CheckReport, INVALID, OK

CLASS_CON = "CON"
CLASS_OBJ = "OBJ"
CLASS_SDP = "SDP"
CLASS_UNIF = "UNIF"


@dataclass(frozen=True)
class ProbSpace:
    """Sample set, atom partition and exact atom weights.

    Construction also puts the weights over one common denominator
    (the lcm of theirs) as integer numerators, so measuring and
    validating add integers.  It raises SchemaError unless there is
    exactly one weight per atom.
    """

    sample: frozenset
    atoms: tuple
    weights: tuple
    _den: int = field(init=False, repr=False, compare=False)
    _nums: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.atoms):
            raise SchemaError(
                f"one weight per atom required: {len(self.atoms)} atoms, "
                f"{len(self.weights)} weights")
        keys = [sorted(atom) for atom in self.atoms]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        weights = tuple([w if isinstance(w, Fraction) else Fraction(w)
                         for w in map(self.weights.__getitem__, order)])
        den = math.lcm(*[w.denominator for w in weights])
        object.__setattr__(self, "sample", frozenset(self.sample))
        object.__setattr__(
            self, "atoms", tuple([frozenset(self.atoms[i]) for i in order]))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple(
            [w.numerator * (den // w.denominator) for w in weights]))

    def measure(self, event, *, agent=None, state=None) -> Fraction:
        """Exact measure of event ∩ sample; the event must be a union of atoms."""
        ev = frozenset(event) & self.sample
        total = 0
        for atom, num in zip(self.atoms, self._nums):
            if atom <= ev:
                total += num
            elif not atom.isdisjoint(ev):
                raise NotMeasurable(agent, state, atom)
        return Fraction(total, self._den)


def point_space(state) -> ProbSpace:
    return ProbSpace(frozenset([state]), (frozenset([state]),), (Fraction(1),))


@dataclass(frozen=True)
class Model:
    """A finite model as plain data.

    Construction only sorts `states`, `domain` and `agents`; nothing is
    derived from the other fields, so every reader sees them as they
    stand, and an evaluator compiles what it needs for itself (see
    `pckfo.evaluator`).  Edges outside the state set and relations of
    undeclared agents are kept as given, so `validate` still reports
    them.
    """

    states: tuple
    domain: tuple
    agents: tuple
    functions: dict = field(default_factory=dict)   # name -> (arity, {args: value})
    relations: dict = field(default_factory=dict)   # name -> (arity, {state: {tuples}})
    access: dict = field(default_factory=dict)      # agent -> {(s, t)}
    prob: dict = field(default_factory=dict)        # (agent, state) -> ProbSpace
    groups: dict = field(default_factory=dict)      # name -> (members)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(sorted(set(self.states))))
        object.__setattr__(self, "domain", tuple(sorted(set(self.domain))))
        object.__setattr__(self, "agents", tuple(sorted(set(self.agents))))

    def successors(self, agent: str, state: str) -> frozenset:
        """States with an `agent` edge from `state`: a scan of its edges."""
        pairs = self.access.get(agent)
        if pairs is None:
            if agent not in self.agents:
                raise EvalError(f"undeclared agent {agent!r}")
            return frozenset()
        return frozenset([t for (s, t) in pairs if s == state])

    def space(self, agent: str, state: str) -> ProbSpace:
        try:
            return self.prob[(agent, state)]
        except KeyError:
            raise EvalError(
                f"no probability space for agent {agent!r} at state {state!r}"
            ) from None

    def resolve_group(self, tokens) -> tuple:
        """Resolve group-member tokens against declared groups and agents."""
        members = set()
        for tok in tokens:
            if tok in self.groups:
                members.update(self.groups[tok])
            elif tok in self.agents:
                members.add(tok)
            else:
                raise EvalError(f"{tok!r} is neither a declared agent nor a group")
        return tuple(sorted(members))


def validate(m: Model) -> CheckReport:
    """Check every model invariant; the report lists each violation."""
    rep = CheckReport(OK)

    def bad(where, problem):
        rep.add(where=where, problem=problem)

    states = set(m.states)
    domain = set(m.domain)
    if not m.states:
        bad("states", "state set must be nonempty")
    if not m.domain:
        bad("domain", "domain must be nonempty")

    for name, members in sorted(m.groups.items()):
        if name in m.agents:
            bad(f"groups.{name}", "group name collides with an agent name")
        if not members:
            bad(f"groups.{name}", "group must be nonempty")
        for a in members:
            if a not in m.agents:
                bad(f"groups.{name}", f"member {a!r} is not a declared agent")

    for fn, (arity, table) in sorted(m.functions.items()):
        if arity < 0:
            bad(f"functions.{fn}", f"negative arity {arity}")
            continue
        seen = set()
        for args, value in table.items():
            if len(args) != arity:
                bad(f"functions.{fn}", f"row {args!r} has wrong arity")
            elif any(a not in domain for a in args) or value not in domain:
                bad(f"functions.{fn}", f"row {args!r} -> {value!r} outside domain")
            seen.add(args)
        n = len(m.domain)
        if n > 1 and arity * n.bit_length() > 4096:
            # more rows than any table holds, and too many digits to print
            bad(f"functions.{fn}", f"table not total: {len(seen)} of"
                f" {n}**{arity} rows")
        elif len(seen) != n ** arity:
            bad(f"functions.{fn}",
                f"table not total: {len(seen)} of {n ** arity} rows")

    for rel, (arity, percol) in sorted(m.relations.items()):
        if arity < 0:
            bad(f"relations.{rel}", f"negative arity {arity}")
            continue
        for state, tuples in sorted(percol.items()):
            if state not in states:
                bad(f"relations.{rel}", f"table keyed by unknown state {state!r}")
                continue
            for tup in tuples:
                if len(tup) != arity:
                    bad(f"relations.{rel}@{state}", f"tuple {tup!r} has wrong arity")
                elif any(d not in domain for d in tup):
                    bad(f"relations.{rel}@{state}", f"tuple {tup!r} outside domain")

    for agent, pairs in sorted(m.access.items()):
        if agent not in m.agents:
            bad(f"access.{agent}", "accessibility for undeclared agent")
            continue
        for (s, t) in sorted((s, t) for (s, t) in pairs
                             if s not in states or t not in states):
            bad(f"access.{agent}", f"edge ({s!r}, {t!r}) outside state set")

    for agent in m.agents:
        for state in m.states:
            sp = m.prob.get((agent, state))
            where = f"prob.{agent}@{state}"
            if sp is None:
                bad(where, "missing probability space")
                continue
            if not sp.sample:
                bad(where, "sample set must be nonempty")
            if not sp.sample <= states:
                bad(where, "sample set must be a subset of the states")
            union = set()
            for atom in sp.atoms:
                if not atom:
                    bad(where, "empty atom in the partition")
                if atom & union:
                    bad(where, "atoms must be pairwise disjoint")
                union |= atom
            if union != sp.sample:
                bad(where, "atoms must partition the sample set")
            if any(n < 0 or n > sp._den for n in sp._nums):
                bad(where, "weights must lie in [0, 1]")
            if sum(sp._nums) != sp._den:
                bad(where, "measure not normalized: weights must sum to 1")
    for (agent, state) in m.prob:
        if agent not in m.agents or state not in states:
            bad(f"prob.{agent}@{state}", "space keyed by unknown agent or state")

    if rep.details:
        rep.verdict = INVALID
    return rep


def measure(m: Model, agent: str, state: str, event) -> Fraction:
    """Measure of event ∩ sample in the (agent, state) space."""
    return m.space(agent, state).measure(event, agent=agent, state=state)


def classify(m: Model) -> frozenset:
    """Class flags the model satisfies: CON, OBJ, SDP, UNIF.

    Measurability is not a flag here; it is checked lazily per
    probability-operator application during evaluation.
    """
    flags = set()
    succ = {}   # (agent, state) -> successors, from one pass over the edges
    for i in m.agents:
        for s, t in m.access.get(i, ()):
            succ.setdefault((i, s), set()).add(t)
    none = frozenset()

    if all(m.space(i, s).sample <= succ.get((i, s), none)
           for i in m.agents for s in m.states):
        flags.add(CLASS_CON)

    if all(m.space(i, s) == m.space(j, s)
           for s in m.states for i in m.agents for j in m.agents):
        flags.add(CLASS_OBJ)

    if all(m.space(i, s) == m.space(i, t)
           for i in m.agents for s in m.states
           for t in succ.get((i, s), none)):
        flags.add(CLASS_SDP)

    if all(m.space(i, s) == m.space(i, t)
           for i in m.agents for s in m.states for t in m.space(i, s).sample):
        flags.add(CLASS_UNIF)

    return frozenset(flags)
