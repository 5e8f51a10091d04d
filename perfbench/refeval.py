"""Independent reference semantics for the benchmark.

This module shares no code with `pckfo`. It reads model documents as plain
JSON (docs/model_schema.md), validates them, and evaluates formulas given as
nested tuples by following the satisfaction clauses directly on Python sets:

    ("atom", p)                  0-ary relation p
    ("not", f), ("and", f, g), ("or", f, g), ("imp", f, g)
    ("K", i, f)                  every i-successor satisfies f
    ("E", G, f), ("C", G, f)     everyone / common knowledge of group G
    ("P", i, r, f)               the (i, s) space gives f measure >= r
    ("Es", G, r, f)              every member i: every i-successor t has
                                 mu_{i,t}(f) >= r
    ("Cs", G, r, f)              greatest fixed point of X -> Es(f & X)

Measurability is strict: every probability space that an operator consults
must measure the event, otherwise `NotMeasurable` is raised. `to_text`
prints a formula in the concrete syntax of docs/grammar.md.
"""

from __future__ import annotations

from fractions import Fraction


class NotMeasurable(Exception):
    pass


class InvalidModel(Exception):
    pass


# ---------------------------------------------------------------------------
# printing

_BINARY = {"and": " & ", "or": " | ", "imp": " -> "}


def to_text(f) -> str:
    """Concrete syntax; prefix chains are printed iteratively so depth is
    unbounded."""
    prefix = []
    while f[0] in ("not", "K", "E", "C", "P", "Es", "Cs"):
        tag = f[0]
        if tag == "not":
            prefix.append("!")
        elif tag == "K":
            prefix.append(f"K[{f[1]}] ")
        elif tag in ("E", "C"):
            prefix.append(f"{tag}{{{','.join(f[1])}}} ")
        elif tag == "P":
            prefix.append(f"P[{f[1]}]>={f[2]} ")
        else:
            prefix.append(f"{tag}{{{','.join(f[1])},{f[2]}}} ")
        f = f[-1]
    if f[0] == "atom":
        core = f[1]
    else:
        core = "(" + to_text(f[1]) + _BINARY[f[0]] + to_text(f[2]) + ")"
    return "".join(prefix) + core


# ---------------------------------------------------------------------------
# models


class RefModel:
    """A validated model document with successor sets and spaces indexed."""

    def __init__(self, doc: dict):
        problems = validate_doc(doc)
        if problems:
            raise InvalidModel("; ".join(problems[:5]))
        self.states = frozenset(doc["states"])
        self.agents = frozenset(doc["agents"])
        self.groups = {g: frozenset(ms) for g, ms in doc.get("groups", {}).items()}
        self.true_at = {}
        for rel in doc.get("relations", []):
            if rel["arity"] == 0:
                self.true_at[rel["symbol"]] = frozenset(
                    s for s, tuples in rel["table"].items() if [] in tuples)
        self.succ = {(i, s): set() for i in self.agents for s in self.states}
        for i, edges in doc.get("access", {}).items():
            for s, t in edges:
                self.succ[(i, s)].add(t)
        self.space = {}
        prob = doc.get("prob", {})
        for i in self.agents:
            for s in self.states:
                entry = prob.get(i, {}).get(s)
                if entry is None:
                    self.space[(i, s)] = ((frozenset([s]), Fraction(1)),)
                else:
                    self.space[(i, s)] = _space(entry)

    def members(self, group) -> frozenset:
        out = set()
        for tok in group:
            out |= self.groups.get(tok, {tok})
        return frozenset(out)

    def measure(self, i, t, event) -> Fraction:
        total = Fraction(0)
        for atom, w in self.space[(i, t)]:
            inside = atom & event
            if inside == atom:
                total += w
            elif inside:
                raise NotMeasurable((i, t, sorted(atom)))
        return total


def _space(entry) -> tuple:
    atoms = entry.get("atoms") or [[s] for s in entry["sample"]]
    return tuple((frozenset(a), Fraction(entry["weights"][str(k)]))
                 for k, a in enumerate(atoms))


def validate_doc(doc: dict) -> list:
    """Every violated invariant of docs/model_schema.md, as messages."""
    bad = []
    states, domain, agents = (set(doc.get(k, ())) for k in ("states", "domain", "agents"))
    if not states or not domain or not agents:
        bad.append("states, domain and agents must be nonempty")
    for g, members in doc.get("groups", {}).items():
        if g in agents or not members or not set(members) <= agents:
            bad.append(f"bad group {g}")
    for fn in doc.get("functions", []):
        rows = {tuple(r["args"]) for r in fn["table"]}
        if len(rows) != len(domain) ** fn["arity"]:
            bad.append(f"function {fn['symbol']} not total")
    for rel in doc.get("relations", []):
        for s, tuples in rel["table"].items():
            if s not in states:
                bad.append(f"relation {rel['symbol']} keyed by unknown state {s}")
            for tup in tuples:
                if len(tup) != rel["arity"] or not set(tup) <= domain:
                    bad.append(f"relation {rel['symbol']} has a bad tuple at {s}")
    for i, edges in doc.get("access", {}).items():
        if i not in agents:
            bad.append(f"access for undeclared agent {i}")
        for s, t in edges:
            if s not in states or t not in states:
                bad.append(f"edge {s}->{t} outside the states")
    for i, per_state in doc.get("prob", {}).items():
        for s, entry in per_state.items():
            if i not in agents or s not in states:
                bad.append(f"space for unknown agent or state {i}@{s}")
                continue
            sample = entry["sample"]
            atoms = entry.get("atoms") or [[x] for x in sample]
            flat = [x for a in atoms for x in a]
            if not sample or not set(sample) <= states:
                bad.append(f"bad sample at {i}@{s}")
            if any(not a for a in atoms) or len(flat) != len(set(flat)) \
                    or set(flat) != set(sample):
                bad.append(f"atoms do not partition the sample at {i}@{s}")
            weights = [Fraction(entry["weights"].get(str(k), "-1"))
                       for k in range(len(atoms))]
            if len(entry["weights"]) != len(atoms) \
                    or any(w < 0 or w > 1 for w in weights) or sum(weights) != 1:
                bad.append(f"weights at {i}@{s} are not a distribution")
    return bad


# ---------------------------------------------------------------------------
# evaluation


def extension(m: RefModel, f) -> frozenset:
    """States satisfying f. Subformulas are evaluated bottom-up from an
    explicit stack, so formula depth is unbounded."""
    done = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in done:
            stack.pop()
            continue
        kids = [k for k in _children(g) if id(k) not in done]
        if kids:
            stack.extend(kids)
            continue
        stack.pop()
        done[id(g)] = _apply(m, g, [done[id(k)] for k in _children(g)])
    return done[id(f)]


def _children(g) -> tuple:
    tag = g[0]
    if tag == "atom":
        return ()
    if tag in ("and", "or", "imp"):
        return (g[1], g[2])
    return (g[-1],)


def _apply(m: RefModel, g, args) -> frozenset:
    tag, S = g[0], m.states
    if tag == "atom":
        return m.true_at.get(g[1], frozenset())
    if tag == "not":
        return S - args[0]
    if tag == "and":
        return args[0] & args[1]
    if tag == "or":
        return args[0] | args[1]
    if tag == "imp":
        return (S - args[0]) | args[1]
    body = args[0]
    if tag == "K":
        return frozenset(s for s in S if m.succ[(g[1], s)] <= body)
    if tag == "E":
        members = m.members(g[1])
        return frozenset(s for s in S
                         if all(m.succ[(i, s)] <= body for i in members))
    if tag == "C":
        return _common(m, m.members(g[1]), body)
    if tag == "P":
        i, r = g[1], g[2]
        return frozenset(s for s in S if m.measure(i, s, body) >= r)
    if tag == "Es":
        return _everyone_prob(m, m.members(g[1]), g[2], body)
    if tag == "Cs":
        members, r = m.members(g[1]), g[2]
        stage = S
        while True:
            nxt = _everyone_prob(m, members, r, body & stage)
            if nxt == stage:
                return stage
            stage = nxt
    raise ValueError(f"unknown operator {tag!r}")


def _everyone_prob(m: RefModel, members, r, event) -> frozenset:
    # Strict: every space that some state's member-successor owns is measured.
    owners = {(i, t) for i in members for s in m.states for t in m.succ[(i, s)]}
    good = {(i, t): m.measure(i, t, event) >= r for (i, t) in owners}
    return frozenset(s for s in m.states
                     if all(good[(i, t)] for i in members for t in m.succ[(i, s)]))


def _common(m: RefModel, members, event) -> frozenset:
    """States all of whose one-or-more-step successors lie in the event."""
    preds = {t: set() for t in m.states}
    for i in members:
        for s in m.states:
            for t in m.succ[(i, s)]:
                preds[t].add(s)
    bad, frontier = set(), set(m.states - event)
    while frontier:
        new = {s for t in frontier for s in preds[t]} - bad
        bad |= new
        frontier = new
    return m.states - bad

