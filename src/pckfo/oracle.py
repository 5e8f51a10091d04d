"""Brute-force ground truth at desk scale.

Exhaustive model enumeration over a small budget, seeded random generation,
satisfiability search, soundness fuzzing of the axiom schemata, the
non-compactness demonstrations and the derived-theorem validity suites.
Every one of them evaluates through `_scan`, the one loop that builds
evaluators, one per batch of models.  Nothing here is a decision
procedure: a search that ends without a witness reports
not-found-within-budget, never unsatisfiability.

Satisfaction and measurability do not change when the states of a model
are renamed, so `enumerate_models` generates one model per class under
renaming: the least member, the one the labelled enumeration meets first,
with the class size (see `_all_models`).  Counts still count every
labelled model: `models_checked` is the witness's labelled position plus
1 (all of them on a miss), and a validity suite's `models` and
`skipped_not_measurable` add each class's size.

A search for one formula (`find_model`) enumerates less: only the
coordinates of a model that the formula reads, every other held at its
first option (the cone of influence, see `_witness`).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from . import axioms as ax
from .errors import (
    BudgetError, EvalError, NonSentenceError, NotMeasurable, PckfoError,
)
from .evaluator import Evaluator, Program, satisfies, value_or_raise
from .model import (
    Model, classify, over_common_denominator, point_entry, positions,
    space_entry, validate,
)
from .parser import model_to_doc, print_formula
from .report import (
    CheckReport, NOT_FOUND, OK, REJECTED, SAT, VALID_IN_SUITE,
)
from .syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Knows, Not, ProbAtLeast, Var, disj, free_vars, iff, implies,
    is_free_for, is_sentence, iterate_everyone, knows_prob, prob_eq,
    subterms,
)

DEFAULT_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                Fraction(2, 3), Fraction(3, 4), Fraction(1))

_AGENT_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")

# Counts are reported as decimal numerals, and Python writes an int of at
# most 4 300 digits by default: a count at or past this bound is refused.
_COUNT_LIMIT = 10 ** 4300


@dataclass(frozen=True)
class SearchBudget:
    """Shape of the model space to enumerate or sample.

    Enumeration ranges over 1..max_states states with exactly max_agents
    agents and max_domain domain elements; sample_mode/atom_mode restrict the
    probability spaces ("full" forces the sample to be the whole state set,
    "singleton"/"merged" fix the partition).  The weight grid keeps each
    value once, in the order first given.  The cap is a hard error, not a
    truncation.
    """

    max_states: int = 2
    max_domain: int = 1
    max_agents: int = 1
    weight_grid: tuple = DEFAULT_GRID
    relation_symbols: tuple = (("p", 0), ("q", 0))
    seed: int = 0
    sample_mode: str = "any"   # "any" | "full"
    atom_mode: str = "any"     # "any" | "singleton" | "merged"
    max_models: int = 200_000

    def __post_init__(self):
        if self.max_states < 1 or self.max_domain < 1 or self.max_agents < 1:
            raise BudgetError("budget bounds must be at least 1")
        if self.max_agents > len(_AGENT_POOL):
            raise BudgetError(f"at most {len(_AGENT_POOL)} agents supported")
        if self.sample_mode not in ("any", "full"):
            raise BudgetError(f"unknown sample_mode {self.sample_mode!r}")
        if self.atom_mode not in ("any", "singleton", "merged"):
            raise BudgetError(f"unknown atom_mode {self.atom_mode!r}")
        # first occurrences only: a repeated value would repeat models,
        # and make the space options of a shape ambiguous
        grid = tuple(dict.fromkeys(Fraction(w) for w in self.weight_grid))
        if not grid:
            raise BudgetError("the weight grid must not be empty")
        if any(w < 0 or w > 1 for w in grid):
            raise BudgetError("weight grid entries must lie in [0, 1]")
        object.__setattr__(self, "weight_grid", grid)

    @property
    def agents(self) -> tuple:
        return _AGENT_POOL[:self.max_agents]

    @property
    def domain(self) -> tuple:
        return tuple(f"d{i}" for i in range(self.max_domain))


def _set_partitions(items: list, counts=None):
    """The partitions of items into nonempty blocks, made as they are read,
    in a fixed order: the partitions of each suffix of items, from the
    empty one up, give those of the suffix one item longer, each in turn,
    with the new head put into each of its blocks and then into a block of
    its own.  With `counts`, only those with an allowed number of blocks:
    the order is walked depth first, and a partial partition that cannot
    end with an allowed number is dropped with every partition under it."""
    todo = [(len(items), [])]   # (items still to place, blocks so far)
    while todo:
        left, part = todo.pop()
        if counts is not None and not any(
                max(len(part), 1) <= k <= len(part) + left for k in counts):
            continue
        if not left:
            yield part
            continue
        head = items[left - 1]
        kids = [part[:ix] + [[head] + part[ix]] + part[ix + 1:]
                for ix in range(len(part))]
        kids.append([[head]] + part)
        todo += [(left - 1, kid) for kid in reversed(kids)]


def _step(sums, nums, den) -> dict:
    """The sums up to den of one numerator more than the sums given, each
    with how many tuples of numerators add up to it."""
    step = {}
    for total, ways in sums.items():
        for w in nums:
            if total + w <= den:
                step[total + w] = step.get(total + w, 0) + ways
    return step


def _sums(nums, den, k) -> list:
    """reach[r], for r <= k: the sums up to den that r of the numerators
    nums add up to, each with how many tuples make it."""
    reach = [{0: 1}]
    for _ in range(k):
        reach.append(_step(reach[-1], nums, den))
    return reach


def _weight_rows(grid, k, sums=None):
    """The grid^k tuples summing exactly to 1, in `itertools.product`
    order, made as they are read; the sums are taken over the grid's
    common denominator.  The order is walked depth first, and a prefix
    that the values left cannot bring to 1 is dropped with every tuple it
    starts.  `sums` is the grid's numerators, denominator and `_sums` for
    k or more values, if known."""
    if sums is None:
        nums, den = over_common_denominator(grid)
        sums = nums, den, _sums(nums, den, k)
    nums, den, reach = sums
    todo = [((), 0)] if den in reach[k] else []
    while todo:
        combo, total = todo.pop()
        left = k - len(combo)
        if not left:
            yield tuple([grid[i] for i in combo])
            continue
        todo += [(combo + (i,), total + nums[i])
                 for i in range(len(nums) - 1, -1, -1)
                 if den - total - nums[i] in reach[left - 1]]


def _space_options(states, budget):
    """Every probability space over the given sorted states allowed by the
    budget, as a space entry (see `Model`), made as it is read: samples by
    size, each size in `itertools.combinations` order, each sample with
    its partitions in `_set_partitions` order and each partition with its
    weight rows.  A sample size or a partition whose number of atoms no
    weight row fits is passed over unmade."""
    n = len(states)
    nums, den = over_common_denominator(budget.weight_grid)
    reach = _sums(nums, den, n)
    sums = nums, den, reach
    bit = {s: 1 << k for k, s in enumerate(states)}
    made = {}   # atoms -> its weight rows over their own denominators,
                # kept once every one of them has been read
    for size in [n] if budget.sample_mode == "full" else range(1, n + 1):
        if budget.atom_mode == "singleton":
            counts = [size]
        elif budget.atom_mode == "merged":
            counts = [1]
        else:
            counts = range(1, size + 1)
        counts = [k for k in counts if den in reach[k]]
        if not counts:
            continue
        for sample in itertools.combinations(states, size):
            if budget.atom_mode == "singleton":
                partitions = [[[s] for s in sample]]
            elif budget.atom_mode == "merged" or size == 1:
                partitions = [[list(sample)]]
            else:   # pruned only if some number of atoms does not fit
                partitions = _set_partitions(
                    list(sample), None if len(counts) == size else counts)
            mask = sum([bit[s] for s in sample])
            for part in partitions:
                atoms = [sum([bit[s] for s in b]) for b in part]
                rows = made.get(len(atoms))
                if rows is not None:
                    for row_nums, row_den in rows:
                        yield space_entry(mask, atoms, row_nums, row_den,
                                          states, n)
                    continue
                rows = []
                for row in _weight_rows(budget.weight_grid, len(atoms),
                                        sums):
                    rows.append(over_common_denominator(row))
                    yield space_entry(mask, atoms, *rows[-1], states, n)
                made[len(atoms)] = rows


def _relation_options(states, budget, symbols) -> list:
    """Per (symbol, state) the list of its possible tuple sets: every one
    for the given symbols, only the first, the empty set, for the rest."""
    slots = []
    for sym, arity in budget.relation_symbols:
        if sym in symbols:
            tuples = list(itertools.product(budget.domain, repeat=arity))
            options = []
            for size in range(len(tuples) + 1):
                options.extend(map(frozenset,
                                   itertools.combinations(tuples, size)))
        else:
            options = [frozenset()]
        for state in states:
            slots.append((sym, state, options))
    return slots


def _access_options(states) -> list:
    """Every accessibility relation over the given sorted states, as a
    predecessor row (see `Model`); the first is the empty one."""
    n = len(states)
    pairs = list(itertools.product(range(n), range(n)))
    out = []
    for size in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, size):
            row = [0] * n
            for s, t in edges:
                row[t] |= 1 << s
            out.append(tuple(row))
    return out


# The coordinates of a model that a formula can read (see `_witness`): the
# relation symbols it names, the agents whose access it reads and those
# whose spaces it reads, each in the budget's order.
_Cone = namedtuple("_Cone", "symbols access spaces")


def _everything(budget) -> _Cone:
    """The cone of every coordinate: the labelled enumeration itself."""
    return _Cone(tuple([sym for sym, _ in budget.relation_symbols]),
                 budget.agents, budget.agents)


def _cone(f, budget) -> _Cone:
    """The coordinates of the budget's models that f's outcome depends on.
    An atom reads its symbol's tables, `K`, `E` and `C` the predecessor
    rows of their agents, `P` the spaces of its agent (over identity rows,
    see `pckfo.evaluator`), and `Es` and `Cs` both.  A group token names
    its members through the budget's groups: `G` names every agent.  An
    agent outside the budget names nothing: the evaluator raises for it
    whatever the coordinates are.  Shared subformulas are walked once."""
    names, access, spaces = set(), set(), set()
    todo, seen = [f], set()
    while todo:
        g = todo.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        kind = type(g)
        if kind is Atom:
            names.add(g.rel)
            continue
        if kind is And:
            todo += (g.left, g.right)
            continue
        todo.append(g.body)
        if kind is Knows:
            access.add(g.agent)
        elif kind is ProbAtLeast:
            spaces.add(g.agent)
        elif kind is not Not and kind is not Forall:
            members = set()
            for token in g.group:
                members.update(budget.agents if token == "G" else (token,))
            access |= members
            if kind is EveryoneProb or kind is CommonProb:
                spaces |= members
    return _Cone(tuple([sym for sym, _ in budget.relation_symbols
                        if sym in names]),
                 tuple([a for a in budget.agents if a in access]),
                 tuple([a for a in budget.agents if a in spaces]))


def _space_counts(budget):
    """len(list(_space_options(states, budget))) over n = 1, 2, ...
    states, from counts: per sample size, the partitions of each number of
    blocks (Stirling numbers of the second kind, by their recurrence)
    times the weight rows of that many atoms, counted over partial sums."""
    nums, den = over_common_denominator(budget.weight_grid)
    sums = {0: 1}     # partial sum -> how many k-tuples of the grid make it
    rows = [0]        # rows[k]: the k-tuples that sum to 1
    stirling = [1]    # the partitions of a sample of size k - 1, by blocks
    one_sample = [0]  # per sample size, the spaces over one sample
    n = 0
    while True:
        n += 1
        sums = _step(sums, nums, den)
        rows.append(sums.get(den, 0))
        stirling = [0] + [k * stirling[k] + stirling[k - 1]
                          for k in range(1, n)] + [1]
        if budget.atom_mode == "singleton":
            one_sample.append(rows[n])
        elif budget.atom_mode == "merged":
            one_sample.append(rows[1])
        else:
            one_sample.append(sum(map(operator.mul, stirling, rows)))
        if budget.sample_mode == "full":
            yield one_sample[n]
        else:
            yield sum([math.comb(n, size) * one_sample[size]
                       for size in range(1, n + 1)])


def _shape_counts(budget: SearchBudget, cone: _Cone):
    """Per state count n from 1 to max_states, from counts and made only
    when reached: n, the labelled models of n states, and how many of them
    differ in the cone's coordinates: 2^(d^arity) tuple sets per relation
    slot, 2^(n*n) access sets per agent and the space options per (agent,
    state).  A state count with no space option has no model, and is left
    out."""
    radix = [2 ** (budget.max_domain ** arity)
             for _, arity in budget.relation_symbols]
    every = math.prod(radix)
    read = math.prod([r for r, (sym, _) in zip(radix, budget.relation_symbols)
                      if sym in cone.symbols])
    agents = budget.max_agents
    for n, spaces in zip(range(1, budget.max_states + 1),
                         _space_counts(budget)):
        if spaces:
            yield (n,
                   every ** n * 2 ** (n * n * agents) * spaces ** (agents * n),
                   read ** n * 2 ** (n * n * len(cone.access))
                   * spaces ** (len(cone.spaces) * n))


def enumeration_size(budget: SearchBudget) -> int:
    """How many labelled models the budget has."""
    return sum([labelled for _, labelled, _ in
                _shape_counts(budget, _everything(budget))])


def _check_cap(budget: SearchBudget, cone: _Cone) -> None:
    """BudgetError if the labelled models that differ in the cone's
    coordinates are more than the budget's cap.  They are counted shape by
    shape, over the shapes that `_shapes` reaches, and counting stops once
    the cap is passed: no count past it is made or printed."""
    total = offset = 0
    for _, labelled, read in _shape_counts(budget, cone):
        if offset >= _COUNT_LIMIT:
            return
        total += read
        if total > budget.max_models:
            raise BudgetError(
                f"enumeration space has more than the cap of"
                f" {budget.max_models} models; shrink the budget")
        offset += labelled


def _reportable(count: int) -> int:
    """count, if it can be printed; else a BudgetError."""
    if count >= _COUNT_LIMIT:
        raise BudgetError("the count of models checked has more than 4300"
                          " digits; shrink the budget")
    return count


def enumerate_models(budget: SearchBudget):
    """Deterministic stream of the valid models over the budget's shape,
    one per class under renamings of their states: the least member of
    each class, in the order of the labelled enumeration.  The cap is
    checked from counts, before any option list is built.

    Each model carries its class as its `orbit` (see `_all_models`), whose
    size counts the labelled models it stands for; `_members` builds them.
    The stream of every labelled model is `_all_models(budget)`."""
    _check_cap(budget, _everything(budget))
    yield from _all_models(budget, classes=True)


def _shapes(budget: SearchBudget, cone: _Cone):
    """Per state count with a space option, from 1 to max_states and built
    only when reached: how many labelled models the earlier shapes have,
    the radices of an index tuple, the states, sorted as a Model sorts
    them, their relation slots, access options and space options.  An
    option list is whole where the cone reads it, and else holds only the
    first option; the space options are then counted (`_space_counts`).
    Reaching a shape whose models' positions could not be printed (see
    `_COUNT_LIMIT`) is a BudgetError."""
    counts = None if cone.spaces else _space_counts(budget)
    rel_radices = [2 ** (budget.max_domain ** arity)
                   for _, arity in budget.relation_symbols]
    offset = 0
    for n in range(1, budget.max_states + 1):
        if offset >= _COUNT_LIMIT:
            raise BudgetError(
                f"the models of fewer than {n} states are too many to count"
                f" in a report (10^4300 or more); shrink the budget")
        states = tuple(sorted(f"s{i}" for i in range(n)))
        options = _space_options(states, budget)
        if counts is None:
            space_opts = list(options)
            spaces = len(space_opts)
        else:
            spaces = next(counts)
            space_opts = [next(options)] if spaces else []
        if not spaces:
            continue   # the grid normalizes no space over these states
        radices = ([radix for radix in rel_radices for _ in states]
                   + [2 ** (n * n)] * budget.max_agents
                   + [spaces] * (budget.max_agents * n))
        yield (offset, radices, states,
               _relation_options(states, budget, cone.symbols),
               _access_options(states) if cone.access else [(0,) * n],
               space_opts)
        offset += math.prod(radices)


# A renaming pi of the n states of a shape (pi[i] is the new position of
# the state at position i), as tables over option indices:
#   slots   the relation slot whose choice lands in each slot of pi.M
#   access  per access option, the index of its image under pi
#   space   per space option, the index of its image (atoms put back in
#           canonical order by space_entry), as a lookup
#   take    the space choices of M in the order of their images' positions
_Renaming = namedtuple("_Renaming", "slots access space take")

# One shape of one enumeration: the token of the call, how many labelled
# models the earlier shapes have, the radices of an index tuple, what a
# model of the shape is built from, and the renamings of its states.
_Shape = namedtuple("_Shape", "call offset radices budget states domain"
                              " agents groups rel_slots access_opts"
                              " space_opts renamings")

# The class of a least member: its shape, its index tuple as relation,
# access and space choices, and how many labelled models it has.
_Orbit = namedtuple("_Orbit", "shape rel acc sp size")


def _renamings(states, n_slots, access_opts, space_opts, n_agents) -> list:
    """The tables of every renaming of the shape's states but the
    identity, whose `take` reads the space choices of n_agents agents.
    The option lists are closed under renaming, and their entries are
    distinct (the grid has no duplicates), so every image is found, at
    exactly one index."""
    n = len(states)
    access_ix = {row: k for k, row in enumerate(access_opts)}
    space_ix = {entry: k for k, entry in enumerate(space_opts)}
    out = []
    for pi in itertools.islice(itertools.permutations(range(n)), 1, None):
        inv = sorted(range(n), key=pi.__getitem__)
        move = [sum([1 << pi[i] for i in positions(mask)])
                for mask in range(1 << n)]
        access = [access_ix[tuple([move[row[i]] for i in inv])]
                  for row in access_opts]
        space = [space_ix[space_entry(move[sample], [move[a] for a in atoms],
                                      nums, den, states, n)]
                 for sample, atoms, nums, den in space_opts]
        take = [k * n + i for k in range(n_agents) for i in inv]
        out.append(_Renaming(
            [k - k % n + inv[k % n] for k in range(n_slots)], access,
            space.__getitem__,
            operator.itemgetter(*take) if take else lambda sp: ()))
    return out


def _position(shape, rel, acc, sp) -> int:
    """The position in the labelled enumeration of the shape's model with
    that index tuple: the labelled models of the earlier shapes, then its
    rank in `itertools.product` order over the shape's radices."""
    rank = 0
    for digit, radix in zip(rel + acc + sp, shape.radices):
        rank = rank * radix + digit
    return shape.offset + rank


def _ties(key, images):
    """Of (image, renaming) pairs, the renamings whose image is key, or
    None if some image is less than key."""
    ties = []
    for image, ren in images:
        if image < key:
            return None
        if image == key:
            ties.append(ren)
    return ties


def _access_choices(ties, radices):
    """The access choices (an option index per agent, below its radix) in
    product order that no renaming of ties maps to a less choice, each
    with the renamings that map it to itself.  A renaming maps each
    agent's option on its own, so the choices grow an agent at a time,
    depth first, and a prefix that a renaming maps to a less one is
    dropped with every choice it starts."""
    if not ties:
        yield from ((acc, ()) for acc in
                    itertools.product(*map(range, radices)))
        return
    todo = [((), ties)]   # prefixes to grow, the next one last
    while todo:
        acc, kept = todo.pop()
        if len(acc) == len(radices):
            yield acc, kept
            continue
        grown = []
        for k in range(radices[len(acc)]):
            still = _ties(k, [(ren.access[k], ren) for ren in kept])
            if still is not None:
                grown.append((acc + (k,), still))
        todo += reversed(grown)


def _put(width, at, values) -> tuple:
    """width zeros, with values put at the positions at."""
    out = [0] * width
    for k, x in zip(at, values):
        out[k] = x
    return tuple(out)


def _relations(shape, rel) -> dict:
    """The relations of the shape's relation choice rel."""
    relations = {sym: (arity, {})
                 for sym, arity in shape.budget.relation_symbols}
    for (sym, state, options), k in zip(shape.rel_slots, rel):
        relations[sym][1][state] = options[k]
    return relations


def _all_models(budget: SearchBudget, classes=False, cone=None):
    """Every model of each shape, in a fixed order: with `classes`, the
    stream of enumerate_models without the cap, else every labelled
    model, for callers that take a prefix or referee the classes.

    Within a shape, models come in `itertools.product` order of their
    option indices (relation choice per slot, access option per agent,
    space option per agent and state), so that order is the lexicographic
    order of the index tuples.  A renaming pi of the states maps a model M
    of the shape to a model pi.M of the shape; the members of M's class
    are the distinct images, and the one with the least index tuple is the
    least member, which the labelled order meets first of its class.

    With `classes`, a model is yielded only if no renaming maps it to a
    less index tuple (orderly generation).  A renaming maps the relation,
    access and space choices each on their own, so the comparison is made
    a level at a time: a relation choice that some renaming maps to a less
    one is skipped with every model under it, and so is an access prefix;
    only the renamings that map a level to itself are tried on the next.
    Those that map all three levels to themselves fix M, and M's class has
    n!/(1 + their number) members.  Each such M carries its `orbit`, an
    `_Orbit`; the stream without `classes` carries none.

    With a `cone` (see `_witness`), only the coordinates it reads are
    enumerated, and every other is held at index 0; the models come in the
    labelled order still, and their orbits hold their whole index tuples.
    Those coordinates are closed under renaming: a symbol's slots at every
    state, an agent's access option, an agent's spaces at every state.  So
    a renaming acts on them alone, and the classes and their sizes are
    those of the cone's coordinates.  Index 0 of a relation slot or of an
    access option is empty, which every renaming fixes, so those levels
    are compared on the whole tuples; the space level compares the cone's
    space choices only (`take` reads those alone), since the first space
    option is not fixed.  A renaming check costs up to n! image
    comparisons, so a shape of the cone is enumerated in classes only if
    (n!)^2 is at most its models, and else labelled; every shape of the
    whole enumeration has at least 2^(n*n) models, and so is in
    classes."""
    domain, agents = tuple(sorted(budget.domain)), budget.agents
    groups = {"G": agents}
    cone = cone or _everything(budget)
    readers = [k for k, agent in enumerate(agents) if agent in cone.spaces]
    call = object()
    for offset, radices, states, rel_slots, access_opts, space_opts in \
            _shapes(budget, cone):
        n = len(states)
        free = [k for k, (sym, _, _) in enumerate(rel_slots)
                if sym in cone.symbols]
        rel_radices = [len(rel_slots[k][2]) for k in free]
        acc_radices = [len(access_opts) if agent in cone.access else 1
                       for agent in agents]
        sp_at = [k * n + i for k in readers for i in range(n)]
        sp_radices = [len(space_opts)] * len(sp_at)
        every_rel = len(free) == len(rel_slots)
        every_sp = len(sp_at) == len(agents) * n
        renamings = []
        if classes and math.factorial(n) ** 2 <= (
                math.prod(rel_radices) * math.prod(acc_radices)
                * math.prod(sp_radices)):
            renamings = _renamings(states, len(rel_slots), access_opts,
                                   space_opts if readers else [],
                                   len(readers))
        shape = _Shape(call, offset, radices, budget, states, domain, agents,
                       groups, rel_slots, access_opts, space_opts, renamings)
        group_size = 1 + len(renamings)
        # The models of one relation choice share their relations, and
        # those of one access choice their predecessor rows.
        for chosen in itertools.product(*map(range, rel_radices)):
            rel = chosen if every_rel else _put(len(rel_slots), free, chosen)
            rel_ties = _ties(rel, [(tuple([rel[k] for k in ren.slots]), ren)
                                   for ren in renamings])
            if rel_ties is None:
                continue
            relations = _relations(shape, rel)
            for acc, ties in _access_choices(rel_ties, acc_radices):
                pred = {agent: access_opts[k] for agent, k in zip(agents, acc)}
                for chosen in itertools.product(*map(range, sp_radices)):
                    size = group_size
                    if ties:
                        fixed = _ties(chosen, [(tuple(map(ren.space,
                                                          ren.take(chosen))),
                                                ren) for ren in ties])
                        if fixed is None:
                            continue
                        size //= 1 + len(fixed)
                    sp = chosen if every_sp else _put(len(agents) * n, sp_at,
                                                      chosen)
                    yield _model(shape, relations, pred, sp,
                                 _Orbit(shape, rel, acc, sp, size)
                                 if classes else None)


def _model(shape, relations, pred, sp, orbit=None) -> Model:
    """The shape's model of the given relations, predecessor rows and
    space choice sp: every enumerated model is built here."""
    n = len(shape.states)
    entries = tuple(map(shape.space_opts.__getitem__, sp))
    return Model.compiled(
        shape.states, shape.domain, shape.agents, {}, relations,
        shape.groups, shape.states, pred,
        {agent: entries[k * n:(k + 1) * n]
         for k, agent in enumerate(shape.agents)}, orbit=orbit)


def _members(orbit) -> list:
    """(labelled position, model) of each member of the orbit's class, in
    the order of the labelled enumeration: the distinct images of its
    least member under the renamings of its shape, which is one of the
    whole enumeration."""
    shape = orbit.shape
    rel, acc, sp = orbit.rel, orbit.acc, orbit.sp
    images = {(rel, acc, sp)}
    images.update((tuple([rel[k] for k in ren.slots]),
                   tuple([ren.access[k] for k in acc]),
                   tuple(map(ren.space, ren.take(sp))))
                  for ren in shape.renamings)
    return [(_position(shape, rel, acc, sp),
             _model(shape, _relations(shape, rel),
                    {agent: shape.access_opts[k]
                     for agent, k in zip(shape.agents, acc)}, sp))
            for rel, acc, sp in sorted(images)]


# ---------------------------------------------------------------------------
# random generation


def _rng_for(budget: SearchBudget, tag) -> random.Random:
    return random.Random(f"{budget.seed}:{tag}")


def random_model(budget: SearchBudget, rng: random.Random, rows) -> Model:
    """One seeded random model, built as rows (see `Model`).  `rows` keeps
    the weight rows of each partition size, and the partitions of each
    sorted sample, between the calls of one generation run."""
    n = rng.randint(1, budget.max_states)
    states = [f"s{i}" for i in range(n)]
    names = sorted(states)
    bit = {s: 1 << k for k, s in enumerate(names)}
    domain = budget.domain
    relations = {}
    for sym, arity in budget.relation_symbols:
        tuples = list(itertools.product(domain, repeat=arity))
        table = {}
        for state in states:
            table[state] = frozenset(t for t in tuples if rng.random() < 0.5)
        relations[sym] = (arity, table)
    pred = {}
    for agent in budget.agents:
        into = dict.fromkeys(states, 0)
        for s, t in itertools.product(states, states):
            if rng.random() < 0.5:
                into[t] |= bit[s]
        pred[agent] = tuple([into[t] for t in names])
    spaces = {}
    for agent in budget.agents:
        entries = {s: _random_space(budget, rng, states, rows) for s in states}
        spaces[agent] = tuple([entries[s] for s in names])
    m = Model.compiled(tuple(names), tuple(sorted(domain)), budget.agents, {},
                       relations, {"G": budget.agents}, tuple(names), pred,
                       spaces)
    if not validate(m).passed:
        raise EvalError("generated model failed validation")
    return m


def _random_space(budget, rng, states, rows) -> tuple:
    """A random space entry over the states, as the budget allows."""
    if budget.sample_mode == "full":
        sample = list(states)
    else:
        size = rng.randint(1, len(states))
        sample = rng.sample(sorted(states), size)
    if budget.atom_mode == "merged":
        part = [list(sample)]
    elif budget.atom_mode == "singleton":
        part = [[s] for s in sample]
    else:
        key = tuple(sorted(sample))
        if key not in rows:
            rows[key] = list(_set_partitions(list(key)))
        part = rng.choice(rows[key])
    options = rows.get(len(part))
    if options is None:
        options = rows[len(part)] = list(_weight_rows(budget.weight_grid,
                                                      len(part)))
    if not options:
        # Grid cannot normalize this partition; a point mass always can.
        part = [list(sample)]
        options = [(Fraction(1),)]
    names = sorted(states)
    bit = {s: 1 << k for k, s in enumerate(names)}
    nums, den = over_common_denominator(rng.choice(options))
    return space_entry(sum([bit[s] for s in sample]),
                       [sum([bit[s] for s in b]) for b in part], nums, den,
                       names, len(names))


def random_models(budget: SearchBudget, count: int, tag="models") -> list:
    rng = _rng_for(budget, tag)
    rows = {}
    return [random_model(budget, rng, rows) for _ in range(count)]


def targeted_class_models(budget: SearchBudget, flag: str, count: int) -> list:
    """Random models guaranteed to carry the given class flag.  More than
    the budget's model cap is a BudgetError."""
    if count > budget.max_models:
        raise BudgetError(f"class model count {count} is over the cap of"
                          f" {budget.max_models}; ask for fewer models")
    rng = _rng_for(budget, f"class:{flag}")
    rows = {}
    out = []
    while len(out) < count:
        m = random_model(budget, rng, rows)
        pred, spaces = dict(m.pred), dict(m.spaces)
        if flag == "CON":
            # each state reaches every state of its sample
            for agent, row in spaces.items():
                into = list(pred[agent])
                for s, entry in enumerate(row):
                    for t in positions(entry[0]):
                        into[t] |= 1 << s
                pred[agent] = tuple(into)
        elif flag == "OBJ":
            spaces = dict.fromkeys(m.agents, spaces[m.agents[0]])
        elif flag in ("SDP", "UNIF"):
            for agent in m.agents:
                shared = _random_space(budget, rng, m.states, rows)
                spaces[agent] = (shared,) * len(m.states)
        else:
            raise BudgetError(f"unknown class flag {flag!r}")
        m = Model.compiled(m.states, m.domain, m.agents, m.functions,
                           m.relations, m.groups, m.names, pred, spaces)
        if not (validate(m).passed and flag in classify(m)):
            raise EvalError(f"generated model is invalid or not {flag}")
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# the one enumerate-and-evaluate loop, and satisfiability search


def _full(m: Model) -> int:
    """The mask of all the model's states."""
    return (1 << len(m.states)) - 1


_BATCH = 32   # the most models evaluated in one run


def _scan(models, formulas):
    """Yield each model with, per formula, its outcome there: the mask of
    the states where it holds under every valuation of its free variables,
    or the first error met.  Valuations are read in order up to the first
    that fails somewhere, whose mask it then is, so an earlier failure
    beats a later error.  Formulas are compiled once per domain; errors
    are yielded, not raised: see `value_or_raise`.

    Every model is evaluated, in batches, each batch as one disjoint union
    (see `pckfo.evaluator`), which gives every member the outcome it has
    alone.  A batch is consecutive models that agree on domain, agents and
    groups, and have states and no name past them.  Batches grow 1, 2, 4,
    ... up to `_BATCH` models, so a caller that stops at an early model,
    as `_witness` does, has at most about twice the models it needed
    evaluated.  The models of a batch are yielded, in order, once it has
    run.

    An enumerated model stands for its class (see `enumerate_models`).
    Renaming the states of a model by pi renames everything the evaluator
    computes: the extension of every operation at pi.M is its extension at
    M moved by pi, an empty or full extension stays empty or full, and a
    space that cannot measure an event at M is the space of the same agent
    at the renamed state of pi.M.  So each formula fails at the same
    valuation at every member of a class, raises the same error type for
    the same formula and agent, or has the renamed mask, and the callers
    read the outcome of the least member as that of each member."""
    compiled = {}   # domain -> (program, per formula the range of its roots)
    batch = []      # the models of the next run
    size = 1        # the batch is run when it has this many models
    for m in itertools.chain(models, (None,)):
        if batch and (m is None or len(batch) == size
                      or not _shares_run(batch[0], m)):
            domain = batch[0].domain
            if domain not in compiled:
                roots, spans = [], []
                for f in formulas:
                    fv = sorted(free_vars(f))
                    start = len(roots)
                    if fv:
                        roots += [(f, dict(zip(fv, values))) for values
                                  in itertools.product(domain,
                                                       repeat=len(fv))]
                    else:
                        roots.append((f, None))   # a sentence is one root
                    spans.append((start, len(roots)))
                compiled[domain] = Program(roots, domain), spans
            program, spans = compiled[domain]
            results = Evaluator(*batch).run(program)
            if size < _BATCH:
                size *= 2
            at, width = 0, len(program.slots)
            for q in batch:
                full = (1 << len(q.states)) - 1
                # per formula, its first error or failing valuation, else
                # full
                masks = []
                for start, end in spans:
                    for out in results[at + start:at + end]:
                        if out != full:
                            break
                    else:
                        out = full
                    masks.append(out)
                at += width
                yield q, masks
            batch = []
        if m is not None:
            batch.append(m)


def _shares_run(first: Model, m: Model) -> bool:
    """Whether m may join the batch that starts with first: both have
    states and no name past them, and they agree on domain, agents and
    groups, against which the program and its group tokens resolve."""
    return (len(first.names) == len(first.states) > 0
            and len(m.names) == len(m.states) > 0 and m.domain == first.domain
            and m.agents == first.agents
            and (m.groups is first.groups or m.groups == first.groups))


def _witness(f, budget: SearchBudget) -> tuple:
    """The first enumerated model with a state where the sentence holds,
    that state, and how many labelled models were checked; (None, None,
    count) on a miss.  A model on which f raises is passed over: f is not
    measurable there, or mentions symbols beyond the model's signature.

    Only the coordinates that f reads are enumerated (its `_cone`), each
    other held at index 0, and the cap counts the labelled models that
    differ in them.  f's outcome is the same at two models that differ
    only elsewhere: the evaluator never reads there.  The labelled order
    is lexicographic in index tuples, so the first labelled witness W has
    every other coordinate at 0: setting them to 0 keeps a witness and
    makes no tuple greater.  And W's part in the cone, R, is the least
    member of its class under renamings of the cone's coordinates: were
    pi.R less, the model of pi.R with the others at 0 would have the
    outcome of pi.W, which holds somewhere as W does, and its tuple would
    come first.  So the first witness of the cone's classes (see
    `_all_models`) is W, with the same bytes, and the labelled models
    checked are those up to it: its `_position` plus 1.  On a miss, all
    of them (`enumeration_size`).  A count too long to print is a
    BudgetError."""
    cone = _cone(f, budget)
    _check_cap(budget, cone)
    for m, (mask,) in _scan(_all_models(budget, classes=True, cone=cone),
                            [f]):
        if isinstance(mask, int) and mask:
            s = m.states[(mask & -mask).bit_length() - 1]
            if not satisfies(m, s, f):
                raise EvalError(f"witness state {s!r} fails to re-verify")
            o = m.orbit
            return m, s, _reportable(_position(o.shape, o.rel, o.acc,
                                               o.sp) + 1)
    return None, None, _reportable(enumeration_size(budget))


def find_model(f, budget: SearchBudget) -> CheckReport:
    """Search the budget's models for a state satisfying the sentence.

    A miss is reported as not-found-within-budget; the logic is not compact,
    so this is never an unsatisfiability claim.
    """
    if not is_sentence(f):
        raise NonSentenceError(
            f"free variables {sorted(free_vars(f))} in search formula")
    funcs = {t.fn for t in subterms(f) if type(t) is App}
    if funcs:
        raise BudgetError(
            f"enumerated models interpret no function symbols; remove"
            f" {sorted(funcs)} or evaluate against a written model file")
    m, s, checked = _witness(f, budget)
    if m is not None:
        rep = CheckReport(SAT)
        rep.add(formula=print_formula(f), state=s, models_checked=checked)
        rep.artifacts["witness-model"] = model_to_doc(m)
        rep.artifacts["witness-state"] = s
        return rep
    rep = CheckReport(NOT_FOUND)
    rep.add(formula=print_formula(f), models_checked=checked,
            note="not an unsatisfiability verdict: the search budget is"
                 " finite and the logic is not compact")
    return rep


# ---------------------------------------------------------------------------
# random formulas and axiom instances


_FUZZ_BOUNDS = (Fraction(0), Fraction(1, 2), Fraction(1))
_FUZZ_ATOMS = (Atom("p"), Atom("q"))


def random_formula(rng, agents, depth=2, vars_allowed=(), build=True):
    """Small random formula over the default fuzz signature.

    A formula of depth d > 0 draws a roll, then its operator's agent, bound
    or group, then its operands left to right, each of depth d - 1; an
    atom is drawn at depth 0 and on a low roll.  The draws are made in that
    order from an explicit stack, and each node is built once its operands
    are.  Without `build`, the same numbers are drawn, nothing is built,
    and the result is None."""
    atoms = _FUZZ_ATOMS + tuple([Atom("R", (Var(v),)) for v in vars_allowed])
    choice, roll = rng.choice, rng.random
    # todo: the depths still to draw, and under them the nodes to build
    # from their operands: And or implies of two, or a constructor, its
    # parameters and then one operand.  done: the nodes built, on None,
    # which is the result when nothing is built.
    todo, done = [depth], [None]
    while todo:
        d = todo.pop()
        if type(d) is not int:
            make = d[0]
            if make is And or make is implies:
                right = done.pop()
                done[-1] = make(done[-1], right)
            else:
                done[-1] = make(*d[1:], done[-1])
            continue
        r = roll() if d > 0 else 0.0
        if r < 0.30:
            atom = choice(atoms)
            if build:
                done.append(atom)
            continue
        d -= 1
        if r < 0.45:
            node, operands = (Not,), (d,)
        elif r < 0.60:
            node, operands = (And,), (d, d)
        elif r < 0.70:
            node, operands = (implies,), (d, d)
        elif r < 0.80:
            node, operands = (Knows, choice(agents)), (d,)
        elif r < 0.90:
            node, operands = (ProbAtLeast, choice(agents),
                              choice(_FUZZ_BOUNDS)), (d,)
        else:
            node, operands = (EveryoneKnows, _random_group(rng, agents)), (d,)
        if build:
            todo.append(node)
        todo += operands
    return done[-1]


def _random_group(rng, agents) -> tuple:
    size = rng.randint(1, len(agents))
    return tuple(sorted(rng.sample(list(agents), size)))


_TAUT_TEMPLATES = (
    lambda a, b: implies(a, a),
    lambda a, b: implies(a, implies(b, a)),
    lambda a, b: implies(And(a, b), a),
    lambda a, b: disj(a, Not(a)),
    lambda a, b: implies(Not(Not(a)), a),
    lambda a, b: iff(And(a, b), And(b, a)),
    lambda a, b: implies(And(a, implies(a, b)), b),
)

#: Schemata exercised by the default soundness fuzz.
FUZZ_AXIOMS = (ax.PROP, ax.FO1, ax.FO2, ax.FO3, ax.AK, ax.AE, ax.AC,
               ax.P1, ax.P2, ax.P3, ax.P4, ax.P5, ax.APE, ax.APC)


def random_axiom_instance(name, rng, agents, grid) -> ax.AxiomInstance:
    """A random instance of the named schema with side conditions satisfied;
    `grid` holds Fractions, as `SearchBudget.weight_grid` does."""
    agent = rng.choice(agents)
    group = _random_group(rng, agents)
    member = rng.choice(group)
    # phi and psi are drawn for every schema, built only where used
    phi = random_formula(rng, agents, build=name not in (ax.FO2, ax.FO3))
    psi = random_formula(rng, agents,
                         build=name in (ax.PROP, ax.AK, ax.P4, ax.P5))

    if name == ax.PROP:
        params = {"formula": rng.choice(_TAUT_TEMPLATES)(phi, psi)}
    elif name == ax.FO1:
        open_psi = random_formula(rng, agents, vars_allowed=("x",))
        params = {"x": "x", "phi": phi, "psi": open_psi}
    elif name == ax.FO2:
        open_phi = random_formula(rng, agents, vars_allowed=("x",))
        term = Var(rng.choice(("x", "y")))
        if not is_free_for(term, "x", open_phi):
            term = Var("x")
        params = {"x": "x", "phi": open_phi, "term": term}
    elif name == ax.FO3:
        open_phi = random_formula(rng, agents, vars_allowed=("x",))
        params = {"x": "x", "i": agent, "phi": open_phi}
    elif name == ax.AK:
        params = {"i": agent, "phi": phi, "psi": psi}
    elif name == ax.AE:
        params = {"group": group, "i": member, "phi": phi}
    elif name == ax.AC:
        params = {"group": group, "m": rng.randint(1, 3), "phi": phi}
    elif name == ax.P1:
        params = {"i": agent, "phi": phi}
    elif name == ax.P2:
        while True:
            r, t = sorted(rng.sample(grid, 2))
            if r != t:
                break
        params = {"i": agent, "r": r, "t": t, "phi": phi}
    elif name == ax.P3:
        params = {"i": agent, "t": rng.choice(grid), "phi": phi}
    elif name == ax.P4:
        params = {"i": agent, "r": rng.choice(grid), "t": rng.choice(grid),
                  "phi": phi, "psi": psi}
    elif name == ax.P5:
        while True:
            r, t = rng.choice(grid), rng.choice(grid)
            if r + t <= 1:
                break
        params = {"i": agent, "r": r, "t": t, "phi": phi, "psi": psi}
    elif name == ax.APE:
        params = {"group": group, "i": member, "r": rng.choice(grid), "phi": phi}
    elif name == ax.APC:
        params = {"group": group, "r": rng.choice(grid),
                  "m": rng.randint(0, 3), "phi": phi}
    elif name == ax.CON:
        params = {"i": agent, "phi": phi}
    elif name == ax.OBJ:
        params = {"i": agent, "j": rng.choice(agents), "r": rng.choice(grid),
                  "phi": phi}
    elif name in (ax.SDP_A, ax.UNIF_A):
        params = {"i": agent, "r": rng.choice(grid), "phi": phi}
    else:
        raise BudgetError(f"no random generator for axiom {name!r}")
    return ax.AxiomInstance(name, ax.instantiate(name, params), params)


def holds_everywhere(m: Model, f) -> bool:
    """True iff f holds at every state under every valuation of its free
    variables (over the model's domain)."""
    (_, (out,)), = _scan([m], [f])
    return value_or_raise(out) == _full(m)


def fuzz_soundness(budget: SearchBudget, n: int, names=FUZZ_AXIOMS,
                   models=None) -> CheckReport:
    """n seeded random (schema, instance, model) triples; every instance must
    hold at every state of its model.  A failure would point at an evaluator
    or schema bug and ships a replayable counterexample.

    Each instance is fixed by its index ix alone, which makes the draws a
    contract that `tests/golden/fuzz_draws.txt` holds: instance ix is of
    schema `names[ix % len(names)]`, runs on pool model `ix % size`, and
    draws from its own `random.Random(f"{budget.seed}:fuzz:{ix}")`, first
    its agent, group, group member, phi and psi, then what its schema
    needs, in the order of `random_axiom_instance`, each formula in the
    order that `random_formula` states."""
    if n < 1:
        raise BudgetError("the number of fuzz instances must be at least 1")
    if n > budget.max_models:
        raise BudgetError(f"fuzz count {n} is over the cap of"
                          f" {budget.max_models}; ask for fewer instances")
    grid = budget.weight_grid
    if ax.P2 in names and len(set(grid)) < 2:
        raise BudgetError("fuzzing P2 needs two distinct weight grid values")
    if ax.P5 in names and not any(2 * w <= 1 for w in grid):
        raise BudgetError("fuzzing P5 needs weight grid values r, t with"
                          " r + t <= 1")
    if models is None:
        # The pool is the first 100 enumerated models, filled up to 200 with
        # random ones.  Only pool[:n] is built: the random models come from
        # one RNG in sequence, so a shorter fill is a prefix of the full one.
        size = 200
        wanted = min(n, size)
        pool = list(itertools.islice(_all_models(budget), min(wanted, 100)))
        pool += random_models(budget, wanted - len(pool), tag="fuzz-pool")
    else:
        pool = list(models)
        size = len(pool)
    if not size:
        raise BudgetError("the fuzz model pool is empty")
    # The instances that run on one pool model are scanned together; each
    # is kept only as its outcome: True, the printed formula it falsified,
    # or the error that making or checking it raised.
    outcomes = [None] * n
    agents = budget.agents
    for k, m in enumerate(pool[:n]):
        batch = []
        for ix in range(k, n, size):
            rng = _rng_for(budget, f"fuzz:{ix}")
            try:
                inst = random_axiom_instance(names[ix % len(names)], rng,
                                             agents, grid)
            except PckfoError as exc:
                outcomes[ix] = exc
                continue
            batch.append((ix, inst.formula))
        (_, masks), = _scan([m], [f for _, f in batch])
        full = _full(m)
        for (ix, f), out in zip(batch, masks):
            if out == full:
                out = True
            elif isinstance(out, int):
                out = print_formula(f)
            outcomes[ix] = out
    rep = CheckReport(VALID_IN_SUITE)
    failures = 0
    skipped = 0
    for ix, out in enumerate(outcomes):
        if isinstance(out, NotMeasurable):
            # Soundness is stated over measurable models; a coarse algebra
            # that cannot measure this instance's events is out of scope.
            skipped += 1
        elif value_or_raise(out) is not True:
            failures += 1
            rep.add(axiom=names[ix % len(names)], formula=out,
                    problem="instance falsified")
            rep.artifacts[f"counterexample-{failures}"] = model_to_doc(
                pool[ix % size])
    rep.add(instances=n, models=size, failures=failures,
            skipped_not_measurable=skipped, axioms=list(names))
    if failures:
        rep.verdict = REJECTED
    return rep


# ---------------------------------------------------------------------------
# non-compactness demonstrations


def chain_model(length: int) -> Model:
    """A one-agent chain s0 -> s1 -> ... with p true everywhere but the end."""
    chain = [f"s{i}" for i in range(length)]
    states = tuple(sorted(chain))
    at = {s: k for k, s in enumerate(states)}
    into = [0] * length
    for s, t in zip(chain, chain[1:]):
        into[at[t]] |= 1 << at[s]
    relations = {"p": (0, {s: (frozenset([()]) if i < length - 1 else frozenset())
                           for i, s in enumerate(chain)})}
    return Model.compiled(
        states, ("d0",), ("a",), {}, relations, {"G": ("a",)}, states,
        {"a": tuple(into)}, {"a": tuple(map(point_entry, range(length)))})


def near_certain_model(n: int) -> Model:
    """Two states with p carrying weight exactly 1 - 1/n (0 when n == 1)."""
    w = Fraction(1) - Fraction(1, n)
    states = ("s0", "s1")
    relations = {"p": (0, {"s0": frozenset([()]), "s1": frozenset()})}
    nums, den = over_common_denominator((w, 1 - w))
    space = (0b11, (0b01, 0b10), tuple(nums), den)
    return Model.compiled(
        states, ("d0",), ("a",), {}, relations, {"G": ("a",)}, states,
        {"a": (0, 0)}, {"a": (space, space)})


def noncompactness_demo(bound: int) -> CheckReport:
    """Finite fragments of the two classic unsatisfiable-set families, each
    fragment re-verified on an explicit witness.

    The full infinite sets are unsatisfiable (the demos only document this;
    no infinite check is claimed).
    """
    if not 1 <= bound <= 4:
        raise BudgetError(f"demo bound must lie in 1..4, got {bound}")
    rep = CheckReport(OK)
    group = ("a",)
    p = Atom("p")
    # family, its index's name, artifact prefix, witness model, fragment
    families = (
        ("group-knowledge-degrees", "m", "chain",
         lambda m: chain_model(m + 2),
         lambda m: [iterate_everyone(group, k, p) for k in range(1, m + 1)]
         + [Not(CommonKnows(group, p))]),
        ("near-certainty", "n", "near-certain", near_certain_model,
         lambda n: [ProbAtLeast("a", 1 - Fraction(1, k), p)
                    for k in range(1, n + 1)]
         + [Not(prob_eq("a", Fraction(1), p))]),
    )
    for family, index, prefix, witness, fragment_of in families:
        for k in range(1, bound + 1):
            model, fragment = witness(k), fragment_of(k)
            (_, masks), = _scan([model], fragment)
            head = model.states.index("s0")
            ok = all(value_or_raise(out) >> head & 1 for out in masks)
            rep.add(**{"family": family, index: k, "state": "s0",
                       "formulas": [print_formula(f) for f in fragment],
                       "satisfied": ok})
            rep.artifacts[f"{prefix}-{k}"] = model_to_doc(model)
            if not ok:
                rep.verdict = REJECTED
    rep.add(note="each finite fragment above is satisfiable; the full"
                 " infinite sets are unsatisfiable, which is documented"
                 " here, not machine-checked")
    return rep


# ---------------------------------------------------------------------------
# derived-theorem validity suites

VALIDITY_FAMILIES = ("epistemic-distribution", "fixed-point",
                     "finite-group-equivalence", "probabilistic-monotonicity")


def _family_formulas(family: str, agents) -> list:
    p, q = Atom("p"), Atom("q")
    pairs = [(p, q), (And(p, q), p)]
    groups = [agents[:1]]
    if len(agents) >= 2:
        groups.append(agents[:2])
    rates = (Fraction(0), Fraction(1, 2), Fraction(1))
    out = []

    if family == "epistemic-distribution":
        for phi, psi in pairs:
            for i in agents:
                out.append(("knowledge-distribution", implies(
                    Knows(i, implies(phi, psi)),
                    implies(Knows(i, phi), Knows(i, psi)))))
            for g in groups:
                out.append(("group-distribution", implies(
                    EveryoneKnows(g, implies(phi, psi)),
                    implies(EveryoneKnows(g, phi), EveryoneKnows(g, psi)))))
                out.append(("common-distribution", implies(
                    CommonKnows(g, implies(phi, psi)),
                    implies(CommonKnows(g, phi), CommonKnows(g, psi)))))
        for i in agents:
            out.append(("knowledge-conjunction", iff(
                Knows(i, And(p, q)), And(Knows(i, p), Knows(i, q)))))
        for g in groups:
            out.append(("group-conjunction", iff(
                EveryoneKnows(g, And(p, q)),
                And(EveryoneKnows(g, p), EveryoneKnows(g, q)))))
        return out

    if family == "fixed-point":
        for g in groups:
            for phi in (p, q, implies(p, q)):
                out.append(("fixed-point", implies(
                    CommonKnows(g, phi),
                    EveryoneKnows(g, And(phi, CommonKnows(g, phi))))))
        return out

    if family == "finite-group-equivalence":
        for g in groups:
            conj = Knows(g[0], p)
            for i in g[1:]:
                conj = And(conj, Knows(i, p))
            out.append(("group-equivalence", iff(EveryoneKnows(g, p), conj)))
            for r in rates:
                conj_r = knows_prob(g[0], r, p)
                for i in g[1:]:
                    conj_r = And(conj_r, knows_prob(i, r, p))
                out.append(("group-prob-equivalence",
                            iff(EveryoneProb(g, r, p), conj_r)))
        return out

    if family == "probabilistic-monotonicity":
        phi, psi = And(p, q), p  # phi -> psi is the tautology (p & q) -> p
        for r in rates:
            for i in agents:
                out.append(("knows-prob-monotone", implies(
                    knows_prob(i, r, phi), knows_prob(i, r, psi))))
            for g in groups:
                out.append(("group-prob-monotone", implies(
                    EveryoneProb(g, r, phi), EveryoneProb(g, r, psi))))
                out.append(("common-prob-monotone", implies(
                    CommonProb(g, r, phi), CommonProb(g, r, psi))))
        return out

    raise BudgetError(f"unknown validity family {family!r}")


def validity_suite(family: str, budget: SearchBudget, *,
                   models=None) -> CheckReport:
    """Check every family instance at every state of every budget model.

    With `models` given, that pool replaces the budget enumeration (the
    budget still fixes the agents the instances mention).  Non-measurable
    (model, instance) pairs are counted and skipped: the derived laws are
    stated over measurable models only.

    An enumerated model counts as its class: `models` and
    `skipped_not_measurable` add its class size, and each member of a
    class whose least member falsifies an instance is a counterexample of
    its own, built only then.  Counterexamples are numbered in the order
    of the models they stand for, and an enumeration's members in the
    labelled order, as though every labelled model had been scanned."""
    formulas = _family_formulas(family, budget.agents)
    rep = CheckReport(VALID_IN_SUITE)
    models_seen = 0
    skipped = 0
    # (order, model, the indices of the instances it falsifies); an
    # enumeration's members are ordered by their labelled positions, after
    # the stream position of its first falsified class
    falsified = []
    starts = {}   # enumeration call -> that stream position
    if models is None:
        models = enumerate_models(budget)
    for at, (m, masks) in enumerate(_scan(models, [f for _, f in formulas])):
        orbit = m.orbit
        weight = 1 if orbit is None else orbit.size
        models_seen += weight
        full = _full(m)
        bad = []
        for k, out in enumerate(masks):
            if out == full:
                continue
            if isinstance(out, NotMeasurable):
                skipped += weight
            else:
                value_or_raise(out)   # any other error is raised
                bad.append(k)
        if not bad:
            continue
        if orbit is None:
            falsified.append(((at,), m, bad))
        else:
            start = starts.setdefault(orbit.shape.call, at)
            falsified += [((start, position), member, bad)
                          for position, member in _members(orbit)]
    falsified.sort(key=operator.itemgetter(0))
    failures = 0
    for _, m, bad in falsified:
        for k in bad:
            failures += 1
            label, f = formulas[k]
            rep.add(family=family, instance=label, formula=print_formula(f),
                    problem="falsified")
            rep.artifacts[f"counterexample-{failures}"] = model_to_doc(m)
    rep.add(family=family, instances=len(formulas), models=models_seen,
            failures=failures, skipped_not_measurable=skipped)
    if failures:
        rep.verdict = REJECTED
    return rep


def expected_invalid_counterexample(budget=None) -> CheckReport:
    """The group-probability distribution schema is NOT valid; find the
    counterexample.  Failing to find one within the default budget would mean
    the evaluator went trivial, so a miss is an error verdict."""
    if budget is None:
        budget = SearchBudget(
            max_states=3, max_domain=1, max_agents=1,
            weight_grid=(Fraction(1, 3),), sample_mode="full",
            atom_mode="singleton", max_models=50_000)
    g = budget.agents[:1]
    r = Fraction(1, 2)
    p, q = Atom("p"), Atom("q")
    schema = implies(
        EveryoneProb(g, r, implies(p, q)),
        implies(EveryoneProb(g, r, p), EveryoneProb(g, r, q)))
    # A model on which the schema raises is passed over; only
    # NotMeasurable can arise, since its agent is the budget's own and p
    # and q read false where undeclared.
    m, s, checked = _witness(Not(schema), budget)
    rep = CheckReport(REJECTED)
    if m is not None:
        rep.verdict = VALID_IN_SUITE
        rep.add(expected_invalid=print_formula(schema),
                state=s, models_checked=checked,
                note="counterexample found, as required")
        rep.artifacts["counterexample-model"] = model_to_doc(m)
        rep.artifacts["counterexample-state"] = s
        return rep
    rep.add(expected_invalid=print_formula(schema), models_checked=checked,
            problem="no counterexample found within the default budget")
    return rep
