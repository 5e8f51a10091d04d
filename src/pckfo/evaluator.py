"""The satisfaction relation over finite models.

Evaluation is extension-based and takes two steps.  `Program` compiles a
list of formulas, each under a valuation of its free variables, once: an
iterative post-order walk lays out one operation per distinct (subformula,
valuation) pair, so a subformula shared within or between the formulas is
computed once.  `Evaluator.run` executes that list on one model in a single
loop.  Every extension is an int bitmask over the positions of the model's
sorted states.  Common knowledge is backward reachability over the group's
predecessor masks; probabilistic common knowledge a decreasing fixed-point
iteration that stabilizes within |S| rounds on finite models.

Measurement is strict and canonical: a probability operator measures every
(agent, state) space it consults, once, in sorted (agent, state) order,
before it decides any state, and the first space that cannot measure the
event raises NotMeasurable, which reports the offending formula, agent and
state.  Everything else is evaluated in a fixed order too: conjunction left
first, and quantifiers over the sorted domain, where a universal stops at
the first value that leaves no state (the operations of the later values
are skipped, errors included).  So whether and where an error is raised
never depends on the hash seed.

An error is kept per operation: an operation with a failed operand takes
the error of its first failed operand, the others run on, so one formula's
failure does not hide another formula of the same program.

Sharing comes from one program's roots: `Evaluator.extension` compiles
its one formula into a program of its own and runs it, so formulas that
should share their subformulas go into one `Program` as its roots.

The evaluator expects a model that passes `model.validate`.  It reads the
model's rows as they stand (see `pckfo.model.Model`): per agent, the
predecessor masks and the space entries by state position, built once
when the model was loaded, enumerated or constructed.  An edge with an end
outside the states adds no state to an extension and takes none away.  A
run keeps its values in lists of its own, and an evaluator keeps only the
state bits and the resolved groups, stored only when complete, with
values that every thread computes alike.  So one evaluator is safe to use
from several threads, with no lock.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import or_

from .errors import EvalError, NotMeasurable, PckfoError
from .model import Model, positions
from .syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Knows, Not, ProbAtLeast, Var, free_vars,
)


def eval_term(m: Model, state: str, valuation, t):
    """Value of a term: variables via the valuation, applications via the
    rigid function tables.  An application's symbol and arity are checked
    before its arguments are evaluated, left to right."""
    values, todo = [], [t]
    while todo:
        t = todo.pop()
        if type(t) is Var:
            try:
                values.append(valuation[t.name])
            except (KeyError, TypeError):
                raise EvalError(f"unbound variable {t.name!r}") from None
        elif type(t) is App:
            entry = m.functions.get(t.fn)
            if entry is None:
                raise EvalError(f"undeclared function symbol {t.fn!r}")
            arity, table = entry
            if arity != len(t.args):
                raise EvalError(f"function {t.fn!r} expects {arity}"
                                f" arguments, got {len(t.args)}")
            # its arguments' values will follow position len(values)
            todo += ((t.fn, table, len(values)), *reversed(t.args))
        else:
            fn, table, k = t
            args = tuple(values[k:])
            try:
                values[k:] = [table[args]]
            except KeyError:
                raise EvalError(f"function table {fn!r} has no row for"
                                f" {args!r}") from None
    return values[0]


# ---------------------------------------------------------------------------
# compiling

# An operation is a tuple (code, a, b, ...): a and b are the positions of
# its operands in the program (-1 for none), and its own position is where
# its value goes.
#   (_ATOM, -1, -1, rel, args, valuation)
#   (_NOT, a, -1)                  (_AND, a, b)          (_ALL, -1, -1)
#   (_FORALL, prev, body, last)    one per domain value; prev is the running
#                                  intersection (-1 for the first value),
#                                  last the position of the final one
#   (_K, body, -1, agent)          (_E, body, -1, group)  (_C, body, -1, group)
#   (_P, body, -1, agent, num, den, formula)
#   (_EP, body, -1, group, num, den, formula)
#   (_CP, body, -1, group, num, den, formula)
# num/den is the bound; formula is the one a NotMeasurable names.
(_ATOM, _NOT, _AND, _ALL, _FORALL, _K, _E, _C, _P, _EP, _CP) = range(11)

# The compile walk's frames are (kind, f, v, x):
#   _VISIT  lay out f under the valuation v (x is None)
#   a code  f's operands are laid out: add f's operation, which has that
#           code; x is f's table key
#   _STEP   one value of a universal is laid out: x is (k, steps), the
#           value's index and the positions of the universal's steps
#   _CLOSE  every value of the universal f is laid out: x is (key, steps)
_VISIT, _STEP, _CLOSE = -1, -2, -3
_CODES = {Atom: _ATOM, Not: _NOT, And: _AND, Forall: _FORALL, Knows: _K,
          EveryoneKnows: _E, CommonKnows: _C, ProbAtLeast: _P,
          EveryoneProb: _EP, CommonProb: _CP}


class Program:
    """Formulas compiled once, for every model over one domain.

    `roots` lists (formula, valuation) pairs; `slots[k]` is the position of
    the operation whose value is the extension of the k-th root, and the
    roots share every operation they can.  The domain is sorted, as `Model`
    sorts it.  Raises EvalError when a valuation misses a free variable of
    its formula.

    The roots are laid out in post-order, in one walk.  The operations of a
    universal's second and later values run only while its running
    intersection is not empty, so what they add to the table of shared
    operations is dropped again at the end of their value.
    """

    def __init__(self, roots, domain):
        self.domain = domain = tuple(sorted(set(domain)))   # as Model sorts it
        todo = []
        for f, valuation in roots:
            v = dict(valuation) if valuation else {}
            fv = free_vars(f)
            if fv and not fv <= v.keys():
                raise EvalError(f"valuation misses free variable"
                                f" {min(fv - v.keys())!r}")
            todo.append((_VISIT, f, v, None))
        todo.reverse()
        ops = []
        table = {}     # table key -> position of its operation
        done = []      # positions of the finished subformulas
        scopes = []    # table keys added under each open skippable value
        pop, push = todo.pop, todo.append
        while todo:
            kind, f, v, x = pop()
            if kind == _VISIT:
                # f's table key: f, with the values of its free variables.
                # Under an empty valuation f is a sentence, and so is every
                # node below a sentence but a binder's body, which gets a
                # valuation again.
                x = f
                if v:
                    fv = free_vars(f)
                    if fv:
                        x = (f, tuple([(y, v.get(y)) for y in sorted(fv)]))
                    else:
                        v = {}
                at = table.get(x)
                if at is not None:
                    done.append(at)
                    continue
                code = _CODES[type(f)]
                if code == _AND:
                    push((code, f, v, x))
                    push((_VISIT, f.right, v, None))
                    push((_VISIT, f.left, v, None))
                    continue
                if code == _ATOM:
                    ops.append((_ATOM, -1, -1, f.rel, f.args, v))
                elif code != _FORALL:
                    push((code, f, v, x))
                    push((_VISIT, f.body, v, None))
                    continue
                elif not domain:
                    done.append(len(ops))
                    ops.append((_ALL, -1, -1))
                    continue
                else:
                    steps = []
                    push((_CLOSE, f, v, (x, steps)))
                    for k in range(len(domain) - 1, -1, -1):
                        push((_STEP, None, None, (k, steps)))
                        push((_VISIT, f.body, {**v, f.var: domain[k]}, None))
                    continue
            elif kind >= 0:
                a, b = done.pop(), -1
                if kind == _AND:
                    a, b = done.pop(), a
                if kind == _AND or kind == _NOT:
                    ops.append((kind, a, b))
                elif kind == _K:
                    ops.append((kind, a, b, f.agent))
                elif kind == _E or kind == _C:
                    ops.append((kind, a, b, f.group))
                else:
                    ops.append((kind, a, b, f.agent if kind == _P else f.group,
                                f.bound.numerator, f.bound.denominator, f))
            elif kind == _STEP:
                k, steps = x
                steps.append(len(ops))
                ops.append((_FORALL, steps[-2] if k else -1, done.pop(), None))
                if k:                      # this value may have been skipped
                    for key in scopes.pop():
                        del table[key]
                if k + 1 < len(domain):    # the next value may be
                    scopes.append([])
                continue
            else:
                key, steps = x
                last = steps[-1]
                for at in steps:
                    ops[at] = ops[at][:3] + (last,)
                done.append(last)
                table[key] = last
                if scopes:
                    scopes[-1].append(key)
                continue
            # an operation for the key x was just appended
            at = len(ops) - 1
            done.append(at)
            table[x] = at
            if scopes:
                scopes[-1].append(x)
        self.ops = tuple(ops)
        self.slots = tuple(done)   # one position per root, in order


# ---------------------------------------------------------------------------
# running


_ZEROS = itertools.repeat(0)


class Evaluator:
    """Runs programs on one model.  `full` is the mask of all its states."""

    def __init__(self, model: Model):
        self.model = model
        self._bit = {s: 1 << k for k, s in enumerate(model.states)}
        self.full = (1 << len(model.states)) - 1
        self._groups = {}   # group tokens -> sorted members

    # -- public API

    def extension(self, f, valuation=None) -> frozenset:
        """States where f holds, under the given valuation of its free
        variables: a one-root program, run on this model."""
        program = Program([(f, valuation)], self.model.domain)
        return self._states(value_or_raise(self.run(program)[0]))

    def satisfies(self, state: str, f, valuation=None) -> bool:
        if state not in self._bit:
            raise EvalError(f"unknown state {state!r}")
        return state in self.extension(f, valuation)

    def common_knowledge(self, members, event) -> frozenset:
        """States from which every state reachable in one or more steps of
        the union relation lies inside the event."""
        return self._states(self._common(tuple(members), self._mask(event)))

    def prob_common_stages(self, members, bound, event, origin=None) -> list:
        """The decreasing chain of stage sets, first repetition included."""
        bound = Fraction(bound)
        stages = self._prob_common(tuple(members), bound.numerator,
                                   bound.denominator, self._mask(event),
                                   origin)
        return [self._states(x) for x in stages]

    def prob_common(self, members, bound, event, origin=None) -> frozenset:
        """Greatest fixed point of X -> [group-prob of (event ∩ X)]."""
        return self.prob_common_stages(members, bound, event, origin)[-1]

    def run(self, program: Program) -> list:
        """The value of each root of the program on this model, in order:
        its extension as a mask, or the EvalError or NotMeasurable that
        evaluating it raised."""
        if program.domain != self.model.domain:
            raise ValueError("the program was compiled for another domain")
        ops, full = program.ops, self.full
        vals, errs = [0] * len(ops), {}   # by operation position
        pc, end = 0, len(ops)
        while pc < end:
            op = ops[pc]
            code, a, b = op[0], op[1], op[2]
            if errs:
                err = errs.get(a) or errs.get(b)
                if err is not None:
                    if code == _FORALL:
                        errs[op[3]] = err
                        pc = op[3] + 1
                    else:
                        errs[pc] = err
                        pc += 1
                    continue
            try:
                if code == _AND:
                    vals[pc] = vals[a] & vals[b]
                elif code == _NOT:
                    vals[pc] = full ^ vals[a]
                elif code == _ATOM:
                    vals[pc] = self._atom(op[3], op[4], op[5])
                elif code == _FORALL:
                    x = vals[b] if a < 0 else vals[a] & vals[b]
                    if not x:
                        vals[op[3]] = 0
                        pc = op[3] + 1
                        continue
                    vals[pc] = x
                elif code == _K:
                    vals[pc] = self._knows((op[3],), vals[a])
                elif code == _P:
                    vals[pc] = self._prob(op[3], op[4], op[5], vals[a], op[6])
                elif code == _E:
                    vals[pc] = self._knows(self._members(op[3]), vals[a])
                elif code == _C:
                    vals[pc] = self._common(self._members(op[3]), vals[a])
                elif code == _EP:
                    vals[pc] = self._everyone_prob(
                        self._rows(self._members(op[3])), op[4], op[5],
                        vals[a], op[6])
                elif code == _CP:
                    vals[pc] = self._prob_common(
                        self._members(op[3]), op[4], op[5], vals[a], op[6])[-1]
                else:
                    vals[pc] = full
            except PckfoError as exc:
                errs[pc] = exc.with_traceback(None)
            pc += 1
        return [errs.get(k, vals[k]) if errs else vals[k]
                for k in program.slots]

    # -- masks

    def _mask(self, states) -> int:
        return reduce(or_, map(self._bit.get, states, _ZEROS), 0)

    def _states(self, mask) -> frozenset:
        states = self.model.states
        return frozenset([states[k] for k in positions(mask)])

    def _predecessors(self, agent) -> tuple:
        """The agent's predecessor mask per state position (and past the
        states, per name that is not a state)."""
        row = self.model.pred.get(agent)
        if row is None:
            if self.model.states:
                raise EvalError(f"undeclared agent {agent!r}")
            row = ()
        return row

    def _members(self, group) -> tuple:
        members = self._groups.get(group)
        if members is None:
            members = self._groups[group] = self.model.resolve_group(group)
        return members

    # -- operators

    def _atom(self, rel, args, v) -> int:
        m = self.model
        entry = m.relations.get(rel)
        if entry is None:
            # The language has relation symbols of every arity; a finite
            # document lists the non-empty ones and the rest denote the
            # empty relation.
            return 0
        arity, table = entry
        if arity != len(args):
            raise EvalError(f"relation {rel!r} expects {arity} arguments,"
                            f" got {len(args)}")
        if not m.states:
            return 0
        # Function tables are rigid, so the arguments are the same at
        # every state.
        row = tuple([eval_term(m, m.states[0], v, t) for t in args])
        out = 0
        for k, s in enumerate(m.states):
            tuples = table.get(s)
            if tuples and row in tuples:
                out |= 1 << k
        return out

    def _knows(self, members, body) -> int:
        """States where every member's successors all lie in body.  A
        member is only looked up while some state is still in, as the
        state-by-state definition would."""
        out = self.full
        bad = positions(out & ~body)
        for i in members:
            if not out:
                break
            row = self._predecessors(i)
            failed = 0
            for t in bad:
                failed |= row[t]
            out &= ~failed
        return out

    def _common(self, members, event) -> int:
        """The complement of what reaches a state outside the event in one
        or more steps, walked backwards over the predecessor masks."""
        frontier = self.full & ~event
        if not frontier:
            return self.full
        rows = [self._predecessors(i) for i in members]
        left = self.full    # the states not yet seen to reach outside
        while frontier:
            new = 0
            for t in positions(frontier):
                for row in rows:
                    new |= row[t]
            frontier = new & left
            left ^= frontier
        return left

    def _prob_ok(self, entry, agent, t, num, den, event, origin) -> bool:
        """Whether the (agent, t) space, whose entry is given, gives event
        at least num/den.  The numerators of a valid space sum to its
        denominator."""
        sample, atoms, nums, whole = entry
        ev = event & sample
        if not ev:
            total = 0
        elif ev == sample:
            total = whole
        else:
            total = 0
            for atom, w in zip(atoms, nums):
                inside = atom & ev
                if inside == atom:
                    total += w
                elif inside:
                    m = self.model
                    raise NotMeasurable(agent, m.states[t], m.names_of(atom),
                                        formula=origin)
        return total * den >= num * whole

    def _prob(self, agent, num, den, event, origin) -> int:
        out = 0
        for t, entry in enumerate(self.model.space_row(agent)):
            if self._prob_ok(entry, agent, t, num, den, event, origin):
                out |= 1 << t
        return out

    def _rows(self, members) -> list:
        """(agent, predecessor row, space row) of each member."""
        m = self.model
        return [(i, self._predecessors(i), m.space_row(i)) for i in members]

    def _everyone_prob(self, rows, num, den, event, origin) -> int:
        """States where every member gives the event at least num/den at
        every successor; rows are the members' `_rows`.  Strict: every
        (member, successor) space is measured once, in sorted (agent,
        state) order, before any state is decided."""
        failed = 0
        for i, pred, spaces in rows:
            for t, (mask, entry) in enumerate(zip(pred, spaces)):
                if mask and not self._prob_ok(entry, i, t, num, den,
                                              event, origin):
                    failed |= mask
        return self.full & ~failed

    def _prob_common(self, members, num, den, event, origin) -> list:
        rows = self._rows(members)
        stages = [self.full]
        while True:
            nxt = self._everyone_prob(rows, num, den, event & stages[-1],
                                      origin)
            stages.append(nxt)
            if nxt == stages[-2]:
                return stages
            if len(stages) > len(self.model.states) + 2:
                raise EvalError(
                    "stage chain failed to stabilize within |S| rounds")


def value_or_raise(out):
    """A result that `Evaluator.run` returns: out itself, or raised afresh
    when it is an error.  Raise a stored error only through here, with no
    local of the caller naming it: the traceback keeps every frame it
    passes, and a frame that named the error would keep it alive."""
    if not isinstance(out, PckfoError):
        return out
    try:
        raise out.with_traceback(None)
    finally:
        out = None


def extension(m: Model, valuation, f) -> frozenset:
    return Evaluator(m).extension(f, valuation)


def satisfies(m: Model, state: str, f, valuation=None) -> bool:
    """One-shot satisfaction check (use Evaluator for repeated queries)."""
    return Evaluator(m).satisfies(state, f, valuation)
