"""The satisfaction relation over finite models.

Evaluation is extension-based and takes two steps.  `Program` compiles a
list of formulas, each under a valuation of its free variables, once: an
iterative post-order walk lays out one operation per distinct (subformula,
valuation) pair, so a subformula shared within or between the formulas is
computed once.  `Evaluator.run` executes that list in a single loop.  Every
extension is an int bitmask over state positions.  Common knowledge is
backward reachability over the group's predecessor masks; probabilistic
common knowledge a decreasing fixed-point iteration that stabilizes within
|S| rounds on finite models.

One run evaluates a batch of models over one domain as their disjoint
union: the states of the first model at the lowest positions, then those
of each next one.  Every operator reads at a state only that state's own
model, its successors and the spaces of its agents there, whose samples
lie in that model.  So a disjoint union satisfies at each state exactly
what the state's own model satisfies (Blackburn, de Rijke & Venema, Modal
Logic, 2001, Prop. 2.3), and each model's part of a mask is its extension
alone.  One model is a batch of one, run on the same path.

Measurement is strict and canonical: a probability operator measures every
(agent, state) space it consults, once, in sorted (agent, state) order,
before it decides any state, and the first space that cannot measure the
event raises NotMeasurable, which reports the offending formula, agent and
state.  Everything else is evaluated in a fixed order too: conjunction left
first, and every value of a quantifier over the sorted domain.  So
whether and where an error is raised never depends on the hash seed.

Errors are kept per model of the batch, as each model alone would raise
them.  An operation with a failed operand takes the error of its first
failed operand, and the others run on, so one formula's failure does not
hide another formula of the same program.  An operation that fails for
some models fails only those, and runs on for the rest: each model gets
the NotMeasurable of its own first space that cannot measure the event,
and an undeclared agent or a missing space fails only the models where
evaluating alone would look it up.  A universal stops for each model at
the first value that leaves none of its states: its later values still
run, but what they raise there is not that model's error.

Sharing comes from one program's roots: `Evaluator.extension` compiles
its one formula into a program of its own and runs it, so formulas that
should share their subformulas go into one `Program` as its roots.

The evaluator expects models that pass `model.validate`.  It reads a
model's rows as they stand (see `pckfo.model.Model`): per agent, the
predecessor masks and the space entries by state position, built once
when the model was loaded, enumerated or constructed.  A run packs the
rows its operators read into rows over the union, once per run and
agent; the first model's, at position 0, are taken as they stand, not
shifted.  An edge with an end outside the states of a lone model adds no
state to an extension and takes none away.  A run keeps its values,
packed rows and errors in containers of its own, and an evaluator keeps
only its models, their first positions and the resolved groups, stored
only when complete, with values that every thread computes alike.  So
one evaluator is safe to use from several threads, with no lock.
"""

from __future__ import annotations

from bisect import bisect_right
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
#   (_FORALL, prev, body)          one per domain value; prev is the running
#                                  intersection (-1 for the first value)
#   (_K, body, -1, agent)          (_E, body, -1, group)  (_C, body, -1, group)
#   (_P, body, -1, agent, num, den, formula)
#   (_EP, body, -1, group, num, den, formula)
#   (_CP, body, -1, group, num, den, formula)
# num/den is the bound; formula is the one a NotMeasurable names.
(_ATOM, _NOT, _AND, _ALL, _FORALL, _K, _E, _C, _P, _EP, _CP) = range(11)

# The compile walk's frames are (kind, f, v, x):
#   _VISIT  lay out f under the valuation v (x is None)
#   a code  f's operands are laid out: add f's operation, which has that
#           code; x is f's table cell [key, position].  A universal has
#           one such frame per domain value, v the value's index; each
#           step takes the one before it from `done`, and the cell ends
#           at the last.
_VISIT = -1
_CODES = {Atom: _ATOM, Not: _NOT, And: _AND, Forall: _FORALL, Knows: _K,
          EveryoneKnows: _E, CommonKnows: _C, ProbAtLeast: _P,
          EveryoneProb: _EP, CommonProb: _CP}


class Program:
    """Formulas compiled once, for every model over one domain.

    `roots` lists (formula, valuation) pairs; `slots[k]` is the position of
    the operation whose value is the extension of the k-th root, and the
    roots share every operation they can, the bodies of every value of a
    universal included.  The domain is sorted, as `Model` sorts it.
    Raises EvalError when a valuation misses a free variable of its
    formula.  The roots are laid out in post-order, in one walk.
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
        # table key -> its cell [key, position of its operation], put in
        # when the key is first met, so that a new key is hashed once
        table = {}
        done = []      # positions of the finished subformulas
        pop, push = todo.pop, todo.append
        while todo:
            kind, f, v, x = pop()
            if kind == _VISIT:
                # Lay out f, going down a chain of unary nodes with no
                # frame for each body.
                while True:
                    # f's table key: f, with the values of its free
                    # variables.  Under an empty valuation f is a sentence,
                    # and so is every node below a sentence but a binder's
                    # body, which gets a valuation again.
                    key = f
                    if v:
                        fv = free_vars(f)
                        if fv:
                            key = (f, tuple([(y, v.get(y))
                                             for y in sorted(fv)]))
                        else:
                            v = {}
                    # A met key has its position: a subformula is laid
                    # out before any equal one is met.
                    x = [key, None]
                    cell = table.setdefault(key, x)
                    if cell is not x:
                        done.append(cell[1])
                        break
                    code = _CODES[type(f)]
                    if code == _AND:
                        push((code, f, v, x))
                        push((_VISIT, f.right, v, None))
                        push((_VISIT, f.left, v, None))
                        break
                    if code == _ATOM:
                        ops.append((_ATOM, -1, -1, f.rel, f.args, v))
                    elif code != _FORALL:
                        push((code, f, v, x))
                        f = f.body
                        continue
                    elif not domain:
                        ops.append((_ALL, -1, -1))
                    else:
                        for k in range(len(domain) - 1, -1, -1):
                            push((code, f, k, x))
                            push((_VISIT, f.body, {**v, f.var: domain[k]},
                                  None))
                        break
                    # an operation for the cell x was just appended
                    x[1] = at = len(ops) - 1
                    done.append(at)
                    break
                continue
            a, b = done.pop(), -1
            if kind == _AND:
                a, b = done.pop(), a
            elif kind == _FORALL:   # v is the index of the value
                a, b = done.pop() if v else -1, a
            if kind == _AND or kind == _NOT or kind == _FORALL:
                ops.append((kind, a, b))
            elif kind == _K:
                ops.append((kind, a, b, f.agent))
            elif kind == _E or kind == _C:
                ops.append((kind, a, b, f.group))
            else:
                ops.append((kind, a, b, f.agent if kind == _P else f.group,
                            f.bound.numerator, f.bound.denominator, f))
            # an operation for the cell x was just appended
            x[1] = at = len(ops) - 1
            done.append(at)
        self.ops = tuple(ops)
        self.slots = tuple(done)   # one position per root, in order


# ---------------------------------------------------------------------------
# running

# The space entry at every state of a model that misses a space of the
# agent, in rows over several models: it has no atom, so it measures
# nothing and raises nothing, and the model's failure stands for what it
# decides.
_NO_SPACE = (0, (), (), 1)


class Evaluator:
    """Runs programs on the disjoint union of its models, the first of
    them `model`; one model is a union of one.  `full` is the mask of all
    their states: the first model's at the lowest positions, then each
    next model's above them."""

    def __init__(self, model: Model, *more: Model):
        self.model = model
        self.models = models = (model, *more)
        starts = [0]    # each model's first position, then the end
        for m in models:
            starts.append(starts[-1] + len(m.states))
        self._starts = tuple(starts)
        self.full = (1 << starts[-1]) - 1
        self._groups = {}   # group tokens -> sorted members

    # -- public API: one model's states

    def extension(self, f, valuation=None) -> frozenset:
        """States of `model` where f holds, under the given valuation of
        its free variables: a one-root program, run on this model."""
        program = Program([(f, valuation)], self.model.domain)
        return self._states(value_or_raise(self.run(program)[0]))

    def satisfies(self, state: str, f, valuation=None) -> bool:
        if self.model._position(state) is None:
            raise EvalError(f"unknown state {state!r}")
        return state in self.extension(f, valuation)

    def common_knowledge(self, members, event) -> frozenset:
        """States from which every state reachable in one or more steps of
        the union relation lies inside the event."""
        fail = []
        out = self._common(tuple(members), self._mask(event), {}, fail)
        if fail:
            value_or_raise(fail[0][1])
        return self._states(out)

    def prob_common_stages(self, members, bound, event, origin=None) -> list:
        """The decreasing chain of stage sets, first repetition included."""
        bound = Fraction(bound)
        fail = []
        stages = self._prob_common(tuple(members), bound.numerator,
                                   bound.denominator, self._mask(event),
                                   origin, {}, fail)
        if fail:
            value_or_raise(fail[0][1])
        return [self._states(x) for x in stages]

    def prob_common(self, members, bound, event, origin=None) -> frozenset:
        """Greatest fixed point of X -> [group-prob of (event ∩ X)]."""
        return self.prob_common_stages(members, bound, event, origin)[-1]

    def run(self, program: Program) -> list:
        """The value of each root of the program on each model, model by
        model, the roots in order: the extension as a mask over the
        model's own states, or the EvalError or NotMeasurable that
        evaluating it there raised.

        An operation fails for some models and runs on for the others: it
        keeps the mask of its failed models (bit j for the j-th), those of
        its operands and those it failed itself, and its own errors.  A
        model's error is found at a root, walking back through the failed
        operands, the first operand before the second."""
        if program.domain != self.model.domain:
            raise ValueError("the program was compiled for another domain")
        ops, full = program.ops, self.full
        every = (1 << len(self.models)) - 1   # bit j for the j-th model
        vals = [0] * len(ops)
        bad, own = {}, {}   # by operation position: failed models, own errors
        cache, fail = {}, []   # rows and errors made in this run; new failures
        pc, end = 0, len(ops)
        while pc < end:
            op = ops[pc]
            code, a, b = op[0], op[1], op[2]
            if bad:
                gone = bad.get(a, 0) | bad.get(b, 0)
                if gone:
                    if code == _FORALL and a >= 0:
                        # a model left without states by an earlier value
                        # has stopped: what this value raises is not its
                        # error
                        gone = bad.get(a, 0) | (
                            bad.get(b, 0) & self._holders(vals[a]))
                    bad[pc] = gone
                    if code != _FORALL and gone == every:
                        pc += 1   # failed in every model
                        continue
            if code == _AND:
                vals[pc] = vals[a] & vals[b]
            elif code == _NOT:
                vals[pc] = full ^ vals[a]
            elif code == _FORALL:
                x = vals[b] if a < 0 else vals[a] & vals[b]
                gone = bad.get(pc, 0) if bad else 0
                vals[pc] = x & ~self._span(gone) if gone else x
            else:   # an operator that reads the models, and may fail some
                try:
                    if code == _ATOM:
                        vals[pc] = self._atom(op[3], op[4], op[5], fail)
                    elif code == _K:
                        vals[pc] = self._knows((op[3],), vals[a], cache, fail)
                    elif code == _P:
                        vals[pc] = self._prob(op[3], op[4], op[5], vals[a],
                                              op[6], cache, fail)
                    elif code == _E:
                        vals[pc] = self._knows(self._members(op[3]), vals[a],
                                               cache, fail)
                    elif code == _C:
                        vals[pc] = self._common(self._members(op[3]), vals[a],
                                                cache, fail)
                    elif code == _EP:
                        vals[pc] = self._everyone_prob(
                            self._rows(self._members(op[3]), cache, fail),
                            op[4], op[5], vals[a], op[6], cache, fail)
                    elif code == _CP:
                        vals[pc] = self._prob_common(
                            self._members(op[3]), op[4], op[5], vals[a],
                            op[6], cache, fail)[-1]
                    else:
                        vals[pc] = full
                except PckfoError as exc:
                    fail.append((every, exc.with_traceback(None)))
                if fail:
                    bad[pc] = bad.get(pc, 0) | _failed(fail)
                    own[pc], fail = fail, []
            pc += 1
        starts = self._starts
        return [_error_of(ops, bad, own, k, 1 << j) if bad.get(k, 0) >> j & 1
                else vals[k] >> start & (1 << (stop - start)) - 1
                for j, (start, stop) in enumerate(zip(starts, starts[1:]))
                for k in program.slots]

    # -- masks

    def _mask(self, states) -> int:
        position = self.model._position
        return reduce(or_, [1 << k for k in map(position, states)
                            if k is not None], 0)

    def _states(self, mask) -> frozenset:
        """The states of `model` in mask."""
        states = self.model.states
        return frozenset([states[k] for k in positions(
            mask & (1 << len(states)) - 1)])

    def _holders(self, mask) -> int:
        """The models (bit j for the j-th) with a state in mask."""
        starts, out = self._starts, 0
        for j in range(len(starts) - 1):
            if mask & ((1 << starts[j + 1]) - (1 << starts[j])):
                out |= 1 << j
        return out

    def _span(self, members) -> int:
        """The mask of the states of the models (bit j for the j-th)."""
        starts, out = self._starts, 0
        for j in positions(members):
            out |= (1 << starts[j + 1]) - (1 << starts[j])
        return out

    def _members(self, group) -> tuple:
        members = self._groups.get(group)
        if members is None:
            members = self._groups[group] = self.model.resolve_group(group)
        return members

    # -- rows over the union, packed when first read

    def _predecessors(self, agent, cache) -> tuple:
        """The agent's predecessor mask per state position, and the models
        (bit j for the j-th) that have states but no row: the agent is
        undeclared there.  A row at start 0 is taken as it stands, so a
        lone model's also covers its names past the states."""
        key = (agent, "pred")
        out = cache.get(key)
        if out is None:
            row, missing = [], 0
            for j, (m, start) in enumerate(zip(self.models, self._starts)):
                own_row = m.pred.get(agent)
                if own_row is None:
                    if m.states:
                        missing |= 1 << j
                    row += [0] * len(m.states)
                else:
                    row += [x << start for x in own_row] if start else own_row
            out = cache[key] = row, missing
        return out

    def _space_row(self, agent, cache, fail) -> tuple:
        """The agent's space entry per state position; the error of each
        model that misses a space of the agent is added to fail as (bit,
        error).  A row at start 0 is taken as it stands."""
        key = (agent, "space")
        out = cache.get(key)
        if out is None:
            row, errors = [], []
            for j, (m, start) in enumerate(zip(self.models, self._starts)):
                try:
                    own_row = m.space_row(agent)
                except EvalError as exc:
                    errors.append((1 << j, exc.with_traceback(None)))
                    row += [_NO_SPACE] * len(m.states)
                    continue
                if start:
                    own_row = [(sample << start,
                                tuple([x << start for x in atoms]), nums, whole)
                               for sample, atoms, nums, whole in own_row]
                row += own_row
            out = cache[key] = row, errors
        fail += out[1]
        return out[0]

    # -- operators

    def _atom(self, rel, args, v, fail) -> int:
        """The atom over the models; `_atom_mask` is one model's."""
        out = 0
        for j, m in enumerate(self.models):
            try:
                out |= _atom_mask(m, rel, args, v) << self._starts[j]
            except EvalError as exc:
                fail.append((1 << j, exc.with_traceback(None)))
        return out

    def _undeclared(self, agent, missing, live, fail) -> int:
        """Fail the models of `missing` with a state in live for the
        undeclared agent; the mask of their states."""
        hit = self._holders(live) & missing
        if not hit:
            return 0
        fail.append((hit, EvalError(f"undeclared agent {agent!r}")))
        return self._span(hit)

    def _knows(self, members, body, cache, fail) -> int:
        """States where every member's successors all lie in body.  A
        member is only looked up in a model while some state of it is
        still in, as the state-by-state definition would."""
        out = self.full
        bad = positions(out & ~body)
        for i in members:
            if not out:
                break
            row, missing = self._predecessors(i, cache)
            if missing:
                out &= ~self._undeclared(i, missing, out, fail)
                if not out:
                    break
            failed = 0
            for t in bad:
                failed |= row[t]
            out &= ~failed
        return out

    def _common(self, members, event, cache, fail) -> int:
        """The complement of what reaches a state outside the event in one
        or more steps, walked backwards over the predecessor masks."""
        frontier = self.full & ~event
        if not frontier:
            return self.full
        rows = []
        for i in members:
            row, missing = self._predecessors(i, cache)
            if missing:
                frontier &= ~self._undeclared(i, missing, frontier, fail)
            rows.append(row)
        left = self.full    # the states not yet seen to reach outside
        while frontier:
            new = 0
            for t in positions(frontier):
                for row in rows:
                    new |= row[t]
            frontier = new & left
            left ^= frontier
        return left

    def _decide(self, entry, num, den, event):
        """Whether the space, whose entry is given, gives event at least
        num/den; None where it cannot measure the event.  The numerators
        of a valid space sum to its denominator."""
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
                    return None
        return total * den >= num * whole

    def _straddled(self, agent, t, entry, event, origin, cache,
                   fail) -> int:
        """Fail the model at position t with the NotMeasurable of the
        agent's space there, which cannot measure event; the mask of the
        model's states.  The error is made once per run for each (agent,
        state, atom, formula)."""
        j = bisect_right(self._starts, t) - 1
        m, start, end = self.models[j], self._starts[j], self._starts[j + 1]
        for atom in entry[1]:
            if atom & event and atom & ~event:
                break
        key = (agent, m.names, t - start, atom >> start, id(origin))
        exc = cache.get(key)
        if exc is None:
            exc = cache[key] = NotMeasurable(
                agent, m.states[t - start], m.names_of(atom >> start),
                formula=origin)
        fail.append((1 << j, exc))
        return (1 << end) - (1 << start)

    def _prob(self, agent, num, den, event, origin, cache, fail) -> int:
        row = self._space_row(agent, cache, fail)
        dead = self._span(_failed(fail)) if fail else 0   # failed states
        out = 0
        for t, entry in enumerate(row):
            ok = self._decide(entry, num, den, event)
            if ok:
                out |= 1 << t
            elif ok is None and not dead >> t & 1:
                dead |= self._straddled(agent, t, entry, event, origin,
                                        cache, fail)
                if dead == self.full:
                    break
        return out

    def _rows(self, members, cache, fail) -> list:
        """(agent, predecessor row, space row) of each member.  A model
        fails at its first member without a row, the predecessors before
        the spaces."""
        out, gone, errors = [], 0, []
        for i in members:
            pred, missing = self._predecessors(i, cache)
            if missing & ~gone:
                fail.append((missing & ~gone,
                             EvalError(f"undeclared agent {i!r}")))
                gone |= missing
                if gone == (1 << len(self.models)) - 1:
                    break
            spaces = self._space_row(i, cache, errors)
            for hit, exc in errors:
                if hit & ~gone:
                    fail.append((hit & ~gone, exc))
                    gone |= hit
            errors.clear()
            out.append((i, pred, spaces))
        return out

    def _everyone_prob(self, rows, num, den, event, origin, cache,
                       fail) -> int:
        """States where every member gives the event at least num/den at
        every successor; rows are the members' `_rows`.  Strict: every
        (member, successor) space is measured once, in sorted (agent,
        state) order, before any state is decided."""
        dead = self._span(_failed(fail)) if fail else 0   # failed states
        failed = 0
        for i, pred, spaces in rows:
            for t, (mask, entry) in enumerate(zip(pred, spaces)):
                if mask:
                    ok = self._decide(entry, num, den, event)
                    if not ok:
                        failed |= mask
                        if ok is None and not dead >> t & 1:
                            dead |= self._straddled(i, t, entry, event,
                                                    origin, cache, fail)
                            if dead == self.full:
                                return 0
        return self.full & ~failed

    def _prob_common(self, members, num, den, event, origin, cache,
                     fail) -> list:
        rows = self._rows(members, cache, fail)
        stages = [self.full]
        while True:
            nxt = self._everyone_prob(rows, num, den, event & stages[-1],
                                      origin, cache, fail)
            if fail:   # a failed model's stages stay empty from here
                gone = _failed(fail)
                if gone == (1 << len(self.models)) - 1:
                    return stages + [nxt]
                nxt &= ~self._span(gone)
            stages.append(nxt)
            if nxt == stages[-2]:
                return stages
            if len(stages) > self.full.bit_length() + 2:
                raise EvalError(
                    "stage chain failed to stabilize within |S| rounds")


def _atom_mask(m, rel, args, v) -> int:
    """The mask of the states of m where the atom rel(args) holds under
    the valuation v."""
    entry = m.relations.get(rel)
    if entry is None:
        # The language has relation symbols of every arity; a finite
        # document lists the non-empty ones and the rest denote the empty
        # relation.
        return 0
    arity, table = entry
    if arity != len(args):
        raise EvalError(f"relation {rel!r} expects {arity} arguments,"
                        f" got {len(args)}")
    if not m.states:
        return 0
    # Function tables are rigid, so the arguments are the same at every
    # state.
    row = tuple([eval_term(m, m.states[0], v, t) for t in args])
    out = 0
    for k, s in enumerate(m.states):
        tuples = table.get(s)
        if tuples and row in tuples:
            out |= 1 << k
    return out


def _failed(fail) -> int:
    """The models (bit j for the j-th) that the failures name."""
    out = 0
    for hit, _ in fail:
        out |= hit
    return out


def _error_of(ops, bad, own, k, bit):
    """The error of the model `bit` at the operation k that failed it:
    back through the first failed operand, the first before the second,
    to the operation that raised it."""
    while True:
        a, b = ops[k][1], ops[k][2]
        if bad.get(a, 0) & bit:
            k = a
        elif bad.get(b, 0) & bit:
            k = b
        else:
            for hit, exc in own[k]:
                if hit & bit:
                    return exc


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
