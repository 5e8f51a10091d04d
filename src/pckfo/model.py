"""Finite Kripke-probability models: validation, measures, class predicates.

A model couples a finite state set with a fixed first-order structure per
state (rigid functions, per-state relations), one accessibility relation per
agent, and one finitely additive probability space per (agent, state).  The
algebra of each space is represented by its atoms: a partition of the sample
set whose finite unions are exactly the measurable sets.

A model keeps its relations and spaces in one compiled form, integer rows
over bit masks (see `Model`); the loader, the enumerator, the evaluator and
the document writer work on those rows.  `Model.space` and
`Model.successors` build a `ProbSpace` or an edge set from them for the
callers that ask.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import EvalError, NotMeasurable, SchemaError
from .report import CheckReport, INVALID, OK

CLASS_CON = "CON"
CLASS_OBJ = "OBJ"
CLASS_SDP = "SDP"
CLASS_UNIF = "UNIF"


def positions(mask) -> list:
    """Positions of the set bits of mask, ascending."""
    bits = bin(mask)[:1:-1]
    out = []
    k = bits.find("1")
    while k >= 0:
        out.append(k)
        k = bits.find("1", k + 1)
    return out


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
        nums, den = over_common_denominator(weights)
        object.__setattr__(self, "sample", frozenset(self.sample))
        object.__setattr__(
            self, "atoms", tuple([frozenset(self.atoms[i]) for i in order]))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", tuple(nums))

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


def over_common_denominator(weights) -> tuple:
    """Fractions as a list of integer numerators over the lcm of their
    denominators, and that lcm."""
    den = math.lcm(*[w.denominator for w in weights])
    return [w.numerator * (den // w.denominator) for w in weights], den


def point_space(state) -> ProbSpace:
    return ProbSpace(frozenset([state]), (frozenset([state]),), (Fraction(1),))


class Positions(dict):
    """Name -> bit position while a model is compiled: the k-th sorted
    state at k, then each other name at the next free position, in the
    order `add` first meets it.  `names` lists them by position and `bit`
    maps each to its bit.  Only an invalid model has a name that is not a
    state; its bit keeps the set algebra on masks exact, so `validate`
    reports it as given."""

    def __init__(self, states):
        super().__init__(zip(states, range(len(states))))
        self.names = list(states)
        self.bit = {s: 1 << k for k, s in enumerate(states)}

    def add(self, name) -> int:
        k = self.get(name)
        if k is None:
            k = self[name] = len(self.names)
            self.names.append(name)
            self.bit[name] = 1 << k
        return k

    def mask(self, names) -> int:
        out = 0
        for s in names:
            out |= 1 << self.add(s)
        return out


def space_entry(sample, atoms, nums, den, names, n) -> tuple:
    """The space entry (see `Model`) of a sample mask, atom masks and their
    numerators over den, with the atoms put in canonical order: by the
    sorted names of their members.  While all names are states (the first
    n), that is the order of the atoms' lowest bits if those are distinct,
    which they are in a partition; the names are sorted only otherwise."""
    low = [a & -a for a in atoms]
    if len(names) == n and sorted(set(low)) == low:
        return (sample, tuple(atoms), tuple(nums), den)
    if len(names) == n and len(set(low)) == len(low):
        keys = low
    else:
        keys = [sorted([names[k] for k in positions(a)]) for a in atoms]
    order = sorted(range(len(atoms)), key=keys.__getitem__)
    return (sample, tuple([atoms[i] for i in order]),
            tuple([nums[i] for i in order]), den)


def point_entry(k) -> tuple:
    """The space entry of the one-point space at the state of position k."""
    bit = 1 << k
    return (bit, (bit,), (1,), 1)


class Model:
    """A finite model, compiled once into integer rows.

    `states`, `domain` and `agents` are sorted.  Bit k of a mask stands for
    `names[k]`: the states, then any name that is not a state, which only
    an invalid model has.  The rows:

    - `pred[agent]`: per name position, the mask of the names with an
      edge of the agent into it; a row covers the states and any later
      name with an edge into it.  Every declared agent has a row.
    - `spaces[agent]`: per state position, the space entry `(sample,
      atoms, nums, den)`: the sample mask, the atom masks in canonical
      order (see `space_entry`), their weights as integer numerators over
      the common denominator den; None where a space is missing.  Every
      declared agent has a row.
    - `strays`: ((agent, state), space entry) of each space keyed outside
      agents x states, in the order given, except that each agent's are
      kept together, where its first stands: a document lists each
      agent's spaces together, so these are the orders it reproduces.

    `orbit` is carried beside the rows: None, or, for a model that
    `oracle.enumerate_models` yields as the least member of its class
    under renamings of its states, that class (see `oracle._all_models`).

    Construction compiles `access` (agent -> {(s, t)}) and `prob`
    ((agent, state) -> ProbSpace); `Model.compiled` takes rows as they
    stand.  Two models are equal when their declared data and their rows
    are; `orbit` takes no part.  The rows of a valid model are canonical,
    so two valid models are equal exactly when they have the same edges
    and spaces; two invalid models whose names past the states were met in
    another order compare unequal.  Models are not hashable.
    """

    states: tuple
    domain: tuple
    agents: tuple
    functions: dict     # name -> (arity, {args: value})
    relations: dict     # name -> (arity, {state: {tuples}})
    groups: dict        # name -> (members)
    orbit = None

    def __init__(self, states, domain, agents, functions=None, relations=None,
                 access=None, prob=None, groups=None):
        states = tuple(sorted(set(states)))
        agents = tuple(sorted(set(agents)))
        n = len(states)
        index = Positions(states)
        pred = {}
        for agent, pairs in (access or {}).items():
            into = {}
            for s, t in pairs:
                k = index.add(t)
                into[k] = into.get(k, 0) | 1 << index.add(s)
            size = max(n, max(into, default=0) + 1)
            pred[agent] = tuple([into.get(k, 0) for k in range(size)])
        spaces = {agent: [None] * n for agent in agents}
        strays = []
        first = {}      # agent -> the index of its first stray space
        for (agent, state), sp in (prob or {}).items():
            entry = space_entry(index.mask(sp.sample),
                                [index.mask(a) for a in sp.atoms], sp._nums,
                                sp._den, index.names, n)
            row, k = spaces.get(agent), index.get(state, n)
            if row is None or k >= n:
                strays.append(((agent, state), entry))
                first.setdefault(agent, len(first))
            else:
                row[k] = entry
        for agent in agents:
            pred.setdefault(agent, (0,) * n)
        vars(self).update(
            states=states, domain=tuple(sorted(set(domain))), agents=agents,
            functions=functions or {}, relations=relations or {},
            groups=groups or {}, names=tuple(index.names), pred=pred,
            spaces={agent: tuple(row) for agent, row in spaces.items()},
            strays=tuple(sorted(strays, key=lambda item: first[item[0][0]])))

    @classmethod
    def compiled(cls, states, domain, agents, functions, relations, groups,
                 names, pred, spaces, strays=(), orbit=None) -> "Model":
        """A model made of its rows, taken as they stand: sorted states,
        domain and agents, names starting with the states, and the rows
        as the class describes them."""
        m = object.__new__(cls)
        vars(m).update(
            states=states, domain=domain, agents=agents, functions=functions,
            relations=relations, groups=groups, names=names, pred=pred,
            spaces=spaces, strays=strays, orbit=orbit)
        return m

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return all(getattr(self, key) == getattr(other, key) for key in (
            "states", "domain", "agents", "functions", "relations", "groups",
            "names", "pred", "spaces", "strays"))

    def names_of(self, mask) -> list:
        """The names of the bits of mask."""
        names = self.names
        return [names[k] for k in positions(mask)]

    def _position(self, name):
        """The position of name among the sorted states, or None."""
        states = self.states
        try:
            k = bisect_left(states, name)
        except TypeError:   # not a string, so no state
            return None
        return k if k < len(states) and states[k] == name else None

    def successors(self, agent: str, state: str) -> frozenset:
        """States with an `agent` edge from `state`."""
        row = self.pred.get(agent)
        if row is None:
            raise EvalError(f"undeclared agent {agent!r}")
        k = self._position(state)
        if k is None:
            try:   # only an invalid model has names past the states
                k = self.names.index(state, len(self.states))
            except ValueError:
                return frozenset()
        bit = 1 << k
        return frozenset([self.names[t] for t, into in enumerate(row)
                          if into & bit])

    def space(self, agent: str, state: str) -> ProbSpace:
        row = self.spaces.get(agent)
        k = self._position(state)
        if row is None or k is None or row[k] is None:
            raise EvalError(f"no probability space for agent {agent!r} at"
                            f" state {state!r}")
        sample, atoms, nums, den = row[k]
        return ProbSpace(frozenset(self.names_of(sample)),
                         tuple([frozenset(self.names_of(a)) for a in atoms]),
                         tuple([Fraction(x, den) for x in nums]))

    def space_row(self, agent: str) -> tuple:
        """The agent's space entry per state position; EvalError if the
        agent has a space missing."""
        row = self.spaces.get(agent, ())
        if len(row) == len(self.states) and None not in row:
            return row
        k = row.index(None) if None in row else 0
        raise EvalError(f"no probability space for agent {agent!r} at"
                        f" state {self.states[k]!r}")

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
            for tup in sorted(tuples):
                if len(tup) != arity:
                    bad(f"relations.{rel}@{state}", f"tuple {tup!r} has wrong arity")
                elif any(d not in domain for d in tup):
                    bad(f"relations.{rel}@{state}", f"tuple {tup!r} outside domain")

    n = len(m.states)
    full = (1 << n) - 1
    names = m.names
    for agent, row in sorted(m.pred.items()):
        if agent not in m.agents:
            bad(f"access.{agent}", "accessibility for undeclared agent")
            continue
        if len(row) == n and reduce(or_, row, 0) <= full:
            continue
        for (s, t) in sorted((names[s], names[t])
                             for t, into in enumerate(row)
                             for s in positions(into if t >= n
                                                else into & ~full)):
            bad(f"access.{agent}", f"edge ({s!r}, {t!r}) outside state set")

    for agent in m.agents:
        for state, entry in zip(m.states, m.spaces[agent]):
            if entry is None:
                bad(f"prob.{agent}@{state}", "missing probability space")
                continue
            sample, atoms, nums, den = entry
            where = f"prob.{agent}@{state}"
            if not sample:
                bad(where, "sample set must be nonempty")
            if sample & ~full:
                bad(where, "sample set must be a subset of the states")
            union = 0
            for atom in atoms:
                if not atom:
                    bad(where, "empty atom in the partition")
                if atom & union:
                    bad(where, "atoms must be pairwise disjoint")
                union |= atom
            if union != sample:
                bad(where, "atoms must partition the sample set")
            if any(x < 0 or x > den for x in nums):
                bad(where, "weights must lie in [0, 1]")
            if sum(nums) != den:
                bad(where, "measure not normalized: weights must sum to 1")
    for (agent, state), _ in m.strays:
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
    n = len(m.states)
    full = (1 << n) - 1
    rows = [m.space_row(i) for i in m.agents]
    succ = []   # per agent, the successor mask of each state position
    for i in m.agents:
        out = [0] * n
        for t, into in enumerate(m.pred[i][:n]):
            for s in positions(into & full):
                out[s] |= 1 << t
        succ.append(out)

    if all(entry[0] & ~after == 0
           for row, out in zip(rows, succ) for entry, after in zip(row, out)):
        flags.add(CLASS_CON)

    if all(row == rows[0] for row in rows):
        flags.add(CLASS_OBJ)

    if all(row[t] == entry
           for row, out in zip(rows, succ) for entry, after in zip(row, out)
           for t in positions(after)):
        flags.add(CLASS_SDP)

    if all(row[t] == entry
           for row in rows for entry in row
           for t in positions(entry[0] & full)):
        flags.add(CLASS_UNIF)

    return frozenset(flags)
