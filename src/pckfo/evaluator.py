"""The satisfaction relation over finite models.

Evaluation is extension-based: every formula is mapped (once per relevant
valuation) to the set of states where it holds.  Common knowledge is computed
by reachability over the union of the group's accessibility relations;
probabilistic common knowledge by a decreasing fixed-point iteration that
stabilizes within |S| rounds on finite models.  Measurability of an event is
checked at each probability-operator application and NotMeasurable reports
the offending formula, agent and state.

Measurement is strict and canonical: a probability operator measures every
(agent, state) space it consults, once, in sorted (agent, state) order,
before it decides any state, and the first space that cannot measure the
event raises NotMeasurable.  Everything else is evaluated in a fixed order
too (conjunction left first, quantifiers over the sorted domain), so whether
and where NotMeasurable is raised never depends on the hash seed.

Evaluators over a shared validated Model are safe to use from several
threads: the memo table only ever gains entries, so concurrent calls behave
as if serialized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EvalError, NotMeasurable
from .model import Model
from .syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Knows, Not, ProbAtLeast, Var, free_vars,
)


@dataclass(frozen=True)
class Extension:
    """A formula's satisfying states under a valuation snapshot (restricted
    to the formula's free variables)."""

    formula: object
    valuation: tuple
    states: frozenset


def eval_term(m: Model, state: str, valuation, t):
    """Value of a term: variables via the valuation, applications via the
    rigid function tables."""
    if isinstance(t, Var):
        try:
            return valuation[t.name]
        except (KeyError, TypeError):
            raise EvalError(f"unbound variable {t.name!r}") from None
    entry = m.functions.get(t.fn)
    if entry is None:
        raise EvalError(f"undeclared function symbol {t.fn!r}")
    arity, table = entry
    if arity != len(t.args):
        raise EvalError(f"function {t.fn!r} expects {arity} arguments,"
                        f" got {len(t.args)}")
    args = tuple(eval_term(m, state, valuation, a) for a in t.args)
    try:
        return table[args]
    except KeyError:
        raise EvalError(f"function table {t.fn!r} has no row for {args!r}") from None


class Evaluator:
    """Memoizing evaluator bound to one model."""

    def __init__(self, model: Model):
        self.model = model
        self._all = frozenset(model.states)
        self._memo = {}

    # -- public API

    def extension(self, f, valuation=None) -> frozenset:
        """States where f holds, under the given valuation of its free
        variables."""
        v = dict(valuation) if valuation else {}
        return self._ext(f, v)

    def satisfies(self, state: str, f, valuation=None) -> bool:
        if state not in self.model.states:
            raise EvalError(f"unknown state {state!r}")
        return state in self.extension(f, valuation)

    def extension_record(self, f, valuation=None) -> Extension:
        """The extension together with the memo key it is stored under."""
        v = dict(valuation) if valuation else {}
        formula, snapshot = self._key(f, v)
        return Extension(formula, snapshot, self._ext(f, v))

    # -- internals

    def _key(self, f, v):
        fv = free_vars(f)
        if not fv:
            return (f, ())
        items = []
        for name in sorted(fv):
            if name not in v:
                raise EvalError(f"valuation misses free variable {name!r}")
            items.append((name, v[name]))
        return (f, tuple(items))

    def _ext(self, f, v) -> frozenset:
        key = self._key(f, v)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._compute(f, v)
        self._memo[key] = out
        return out

    def _compute(self, f, v) -> frozenset:
        m = self.model
        if isinstance(f, Atom):
            return self._atom(f, v)
        if isinstance(f, Not):
            return self._all - self._ext(f.body, v)
        if isinstance(f, And):
            return self._ext(f.left, v) & self._ext(f.right, v)
        if isinstance(f, Forall):
            out = self._all
            for d in m.domain:
                v2 = dict(v)
                v2[f.var] = d
                out &= self._ext(f.body, v2)
                if not out:
                    break
            return out
        if isinstance(f, Knows):
            body = self._ext(f.body, v)
            return frozenset(
                s for s in m.states if m.successors(f.agent, s) <= body)
        if isinstance(f, EveryoneKnows):
            body = self._ext(f.body, v)
            members = m.resolve_group(f.group)
            return frozenset(
                s for s in m.states
                if all(m.successors(i, s) <= body for i in members))
        if isinstance(f, CommonKnows):
            body = self._ext(f.body, v)
            return self.common_knowledge(m.resolve_group(f.group), body)
        if isinstance(f, ProbAtLeast):
            body = self._ext(f.body, v)
            return frozenset(
                s for s in m.states
                if self._measure(f, f.agent, s, body) >= f.bound)
        if isinstance(f, EveryoneProb):
            body = self._ext(f.body, v)
            members = m.resolve_group(f.group)
            return self._everyone_prob(f, members, f.bound, body)
        if isinstance(f, CommonProb):
            body = self._ext(f.body, v)
            return self.prob_common(m.resolve_group(f.group), f.bound, body,
                                    origin=f)
        raise TypeError(f"not a formula: {f!r}")

    def _atom(self, f, v) -> frozenset:
        m = self.model
        entry = m.relations.get(f.rel)
        if entry is None:
            # The language has relation symbols of every arity; a finite
            # document lists the non-empty ones and the rest denote the
            # empty relation.
            return frozenset()
        arity, table = entry
        if arity != len(f.args):
            raise EvalError(f"relation {f.rel!r} expects {arity} arguments,"
                            f" got {len(f.args)}")
        out = set()
        for s in m.states:
            args = tuple(eval_term(m, s, v, a) for a in f.args)
            if args in table.get(s, frozenset()):
                out.add(s)
        return frozenset(out)

    def _measure(self, origin, agent, state, event):
        try:
            return self.model.space(agent, state).measure(
                event, agent=agent, state=state)
        except NotMeasurable as exc:
            raise NotMeasurable(agent, state, exc.atom, formula=origin) from None

    def _everyone_prob(self, origin, members, bound, event) -> frozenset:
        """States where every member gives the event at least `bound` at
        every successor.  Strict: every (member, successor) space is
        measured once, in sorted (agent, state) order, before any state is
        decided."""
        m = self.model
        succ = {(i, s): m.successors(i, s) for i in members for s in m.states}
        spaces = sorted({(i, t) for (i, _), ts in succ.items() for t in ts})
        good = {(i, t): self._measure(origin, i, t, event) >= bound
                for (i, t) in spaces}
        return frozenset(s for s in m.states
                         if all(good[(i, t)] for i in members
                                for t in succ[(i, s)]))

    def common_knowledge(self, members, event) -> frozenset:
        """States from which every state reachable in one or more steps of
        the union relation lies inside the event: the complement of what
        reaches a state outside the event, walked backwards over the
        model's predecessor index."""
        m = self.model
        reach_bad = set()
        frontier = self._all - event
        while frontier:
            new = set()
            for t in frontier:
                for i in members:
                    for s in m.predecessors(i, t):
                        if s not in reach_bad:
                            reach_bad.add(s)
                            new.add(s)
            frontier = new
        return self._all - reach_bad

    def prob_common_stages(self, members, bound, event, origin=None) -> list:
        """The decreasing chain of stage sets, first repetition included."""
        stages = [self._all]
        while True:
            nxt = self._everyone_prob(origin, members, bound,
                                      event & stages[-1])
            stages.append(nxt)
            if nxt == stages[-2]:
                return stages
            if len(stages) > len(self.model.states) + 2:
                raise EvalError(
                    "stage chain failed to stabilize within |S| rounds")

    def prob_common(self, members, bound, event, origin=None) -> frozenset:
        """Greatest fixed point of X -> [group-prob of (event ∩ X)]."""
        return self.prob_common_stages(members, bound, event, origin)[-1]


def extension(m: Model, valuation, f) -> frozenset:
    return Evaluator(m).extension(f, valuation)


def satisfies(m: Model, state: str, f, valuation=None) -> bool:
    """One-shot satisfaction check (use Evaluator for repeated queries)."""
    return Evaluator(m).satisfies(state, f, valuation)
