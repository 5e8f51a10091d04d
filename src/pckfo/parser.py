"""Concrete syntax: formula text, model documents, proof documents.

Formula grammar (see docs/grammar.md for the EBNF).  Operators are spelled
K[i], E{G}, C{G}, P[i]>=r, Es{G,r}, Cs{G,r}, Ks[i,r]; connectives are
! & | -> <-> with precedence ! > & > | > -> > <->; quantifiers and modal
operators bind tighter than binary connectives.  Identifiers starting with
one of u v w x y z are variables; all other identifiers are constants,
function or relation symbols depending on position.  Derived connectives are
expanded while parsing, so the printer only ever emits ! & forall and the six
modal/probability operators.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from . import proofcheck as pc
from .errors import ParseError, SchemaError
from .model import Model, ProbSpace, point_space, validate
from .syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Guard, Knows, NestedImplicationSpec, Not, ProbAtLeast, Var,
    disj, exists, iff, implies, knows_prob, prob_eq, prob_gt, prob_le,
    prob_lt, top, bot,
)

MAX_DEPTH = 500

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+\.\d+|\d+)"
    r"|(?P<id>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op><->|->|>=|<=|[!&|()\[\]{},<>=/])"
)

_VAR_INITIALS = "uvwxyz"


def is_variable_name(name: str) -> bool:
    return bool(name) and name[0] in _VAR_INITIALS


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "id" or the operator text
    text: str
    start: int
    end: int

    @property
    def span(self):
        return (self.start, self.end)


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup if m.lastgroup in ("num", "id") else m.group()
        out.append(Token(kind, m.group(), m.start(), m.end()))
    return out


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing

    def _eof_span(self):
        return (len(self.text), len(self.text))

    def peek(self, ahead=0):
        ix = self.pos + ahead
        return self.toks[ix] if ix < len(self.toks) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_span())
        self.pos += 1
        return tok

    def expect(self, kind) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.span)
        return tok

    # -- grammar

    def parse(self):
        f = self._iff()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.span)
        return f

    def _iff(self):
        left = self._imp()
        while (tok := self.peek()) is not None and tok.kind == "<->":
            self.next()
            left = iff(left, self._imp())
        return left

    def _imp(self):
        left = self._or()
        tok = self.peek()
        if tok is not None and tok.kind == "->":
            self.next()
            return implies(left, self._imp())
        return left

    def _or(self):
        left = self._and()
        while (tok := self.peek()) is not None and tok.kind == "|":
            self.next()
            left = disj(left, self._and())
        return left

    def _and(self):
        left = self._unary()
        while (tok := self.peek()) is not None and tok.kind == "&":
            self.next()
            left = And(left, self._unary())
        return left

    def _unary(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            tok = self.peek()
            span = tok.span if tok else self._eof_span()
            raise ParseError(f"formula nested deeper than {MAX_DEPTH}", span)
        try:
            return self._unary_inner()
        finally:
            self.depth -= 1

    def _unary_inner(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_span())

        if tok.kind == "!":
            self.next()
            return Not(self._unary())

        if tok.kind == "(":
            self.next()
            f = self._iff()
            closing = self.next()
            if closing.kind != ")":
                raise ParseError(f"expected ')', found {closing.text!r}",
                                 closing.span)
            return f

        if tok.kind == "id":
            nxt = self.peek(1)
            follows = nxt.kind if nxt is not None else None
            word = tok.text
            if word == "forall":
                self.next()
                return Forall(self._bound_var(), self._unary())
            if word == "exists":
                self.next()
                return exists(self._bound_var(), self._unary())
            if word == "top" and follows not in ("(",):
                self.next()
                return top()
            if word == "bot" and follows not in ("(",):
                self.next()
                return bot()
            if word == "K" and follows == "[":
                self.next()
                agent = self._bracketed_agent()
                return Knows(agent, self._unary())
            if word == "Ks" and follows == "[":
                self.next()
                self.expect("[")
                agent = self.expect("id").text
                self.expect(",")
                r = self._rational()
                self.expect("]")
                return knows_prob(agent, r, self._unary())
            if word == "P" and follows == "[":
                self.next()
                agent = self._bracketed_agent()
                return self._prob_operator(agent)
            if word in ("E", "C") and follows == "{":
                self.next()
                members = self._group(with_bound=False)
                cls = EveryoneKnows if word == "E" else CommonKnows
                return cls(members, self._unary())
            if word in ("Es", "Cs") and follows == "{":
                self.next()
                members, r = self._group(with_bound=True)
                cls = EveryoneProb if word == "Es" else CommonProb
                return cls(members, r, self._unary())
            return self._atom()

        raise ParseError(f"unexpected {tok.text!r}", tok.span)

    def _bound_var(self) -> str:
        tok = self.expect("id")
        if not is_variable_name(tok.text):
            raise ParseError(
                f"quantified name {tok.text!r} must start with one of"
                f" {_VAR_INITIALS!r}", tok.span)
        return tok.text

    def _bracketed_agent(self) -> str:
        self.expect("[")
        agent = self.expect("id").text
        self.expect("]")
        return agent

    def _prob_operator(self, agent):
        tok = self.next()
        builders = {
            ">=": lambda r, f: ProbAtLeast(agent, r, f),
            "<": lambda r, f: prob_lt(agent, r, f),
            "<=": lambda r, f: prob_le(agent, r, f),
            ">": lambda r, f: prob_gt(agent, r, f),
            "=": lambda r, f: prob_eq(agent, r, f),
        }
        build = builders.get(tok.kind)
        if build is None:
            raise ParseError(
                f"expected a probability comparison, found {tok.text!r}",
                tok.span)
        r = self._rational()
        return build(r, self._unary())

    def _group(self, with_bound: bool):
        self.expect("{")
        members = []
        bound = None
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("unterminated group", self._eof_span())
            if tok.kind == "num":
                bound = self._rational()
            elif tok.kind == "id":
                if bound is not None:
                    raise ParseError("threshold must be the last group entry",
                                     tok.span)
                members.append(self.next().text)
            else:
                raise ParseError(f"unexpected {tok.text!r} in group", tok.span)
            tok = self.next()
            if tok.kind == "}":
                break
            if tok.kind != ",":
                raise ParseError(f"expected ',' or '}}', found {tok.text!r}",
                                 tok.span)
        if with_bound and bound is None:
            raise ParseError("this operator needs a trailing threshold",
                             self.toks[self.pos - 1].span)
        if not with_bound and bound is not None:
            raise ParseError("this operator takes no threshold",
                             self.toks[self.pos - 1].span)
        if not members:
            raise ParseError("group must list at least one member",
                             self.toks[self.pos - 1].span)
        return (tuple(members), bound) if with_bound else tuple(members)

    def _rational(self) -> Fraction:
        tok = self.expect("num")
        try:
            if "." in tok.text:
                value = Fraction(tok.text)
            else:
                value = Fraction(int(tok.text))
                nxt = self.peek()
                if nxt is not None and nxt.kind == "/":
                    self.next()
                    den = self.expect("num")
                    if "." in den.text:
                        raise ParseError("denominator must be an integer",
                                         den.span)
                    value = Fraction(int(tok.text), int(den.text))
        except ZeroDivisionError:
            raise ParseError("zero denominator", tok.span) from None
        if value < 0 or value > 1:
            raise ParseError(f"rational {value} outside [0, 1]", tok.span)
        return value

    def _atom(self):
        name = self.expect("id")
        nxt = self.peek()
        if nxt is not None and nxt.kind == "(":
            if is_variable_name(name.text):
                raise ParseError(
                    f"variable {name.text!r} cannot be used as a relation",
                    name.span)
            self.next()
            args = [self._term()]
            while (tok := self.peek()) is not None and tok.kind == ",":
                self.next()
                args.append(self._term())
            self.expect(")")
            return Atom(name.text, tuple(args))
        if is_variable_name(name.text):
            raise ParseError(
                f"variable {name.text!r} cannot stand alone as a formula",
                name.span)
        return Atom(name.text, ())

    def _term(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"term nested deeper than {MAX_DEPTH}",
                             self.peek().span if self.peek() else self._eof_span())
        try:
            name = self.expect("id")
            nxt = self.peek()
            if nxt is not None and nxt.kind == "(":
                if is_variable_name(name.text):
                    raise ParseError(
                        f"variable {name.text!r} cannot be applied as a"
                        " function", name.span)
                self.next()
                args = [self._term()]
                while (tok := self.peek()) is not None and tok.kind == ",":
                    self.next()
                    args.append(self._term())
                self.expect(")")
                return App(name.text, tuple(args))
            if is_variable_name(name.text):
                return Var(name.text)
            return App(name.text, ())
        finally:
            self.depth -= 1


def parse_formula(text: str):
    """Parse concrete syntax into a core formula (abbreviations expanded)."""
    return _FormulaParser(text).parse()


def parse_term(text: str):
    """Parse a bare term (used for axiom parameters in proof documents)."""
    p = _FormulaParser(text)
    t = p._term()
    tok = p.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing {tok.text!r}", tok.span)
    return t


# ---------------------------------------------------------------------------
# printing


def print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.fn
    return f"{t.fn}({','.join(print_term(a) for a in t.args)})"


def _wrap(f) -> str:
    body = print_formula(f)
    return f"({body})" if isinstance(f, And) else body


def print_formula(f) -> str:
    """Canonical text; parse_formula(print_formula(f)) == f."""
    if isinstance(f, Atom):
        if not f.args:
            return f.rel
        return f"{f.rel}({','.join(print_term(a) for a in f.args)})"
    if isinstance(f, Not):
        return f"!{_wrap(f.body)}"
    if isinstance(f, And):
        left = print_formula(f.left) if isinstance(f.left, And) else _wrap(f.left)
        return f"{left} & {_wrap(f.right)}"
    if isinstance(f, Forall):
        return f"forall {f.var} {_wrap(f.body)}"
    if isinstance(f, Knows):
        return f"K[{f.agent}] {_wrap(f.body)}"
    if isinstance(f, EveryoneKnows):
        return f"E{{{','.join(f.group)}}} {_wrap(f.body)}"
    if isinstance(f, CommonKnows):
        return f"C{{{','.join(f.group)}}} {_wrap(f.body)}"
    if isinstance(f, ProbAtLeast):
        return f"P[{f.agent}]>={f.bound} {_wrap(f.body)}"
    if isinstance(f, EveryoneProb):
        return f"Es{{{','.join(f.group)},{f.bound}}} {_wrap(f.body)}"
    if isinstance(f, CommonProb):
        return f"Cs{{{','.join(f.group)},{f.bound}}} {_wrap(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# model documents


def _need(doc, key, cls, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing {key!r}")
    value = doc[key]
    if not isinstance(value, cls):
        raise SchemaError(f"{where}: {key!r} must be {cls.__name__}")
    return value


def _int(raw, where) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: bad integer {raw!r}") from None


def _fraction(text, where) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: bad rational {text!r}") from None


def load_model(doc: dict) -> Model:
    """Build a Model from a decoded model document (schema checks only)."""
    if not isinstance(doc, dict):
        raise SchemaError("model document must be an object")
    states = _need(doc, "states", list, "model")
    domain = _need(doc, "domain", list, "model")
    agents = _need(doc, "agents", list, "model")

    groups = {}
    for name, members in _need_opt(doc, "groups", dict, "model").items():
        if not isinstance(members, list):
            raise SchemaError(f"groups.{name}: members must be a list")
        groups[name] = tuple(sorted(set(members)))

    functions = {}
    for entry in _need_opt(doc, "functions", list, "model"):
        sym = _need(entry, "symbol", str, "functions[]")
        arity = _need(entry, "arity", int, f"functions.{sym}")
        table = {}
        for row in _need(entry, "table", list, f"functions.{sym}"):
            args = tuple(_need(row, "args", list, f"functions.{sym}"))
            table[args] = _need(row, "value", str, f"functions.{sym}")
        if sym in functions:
            raise SchemaError(f"functions.{sym}: duplicate symbol")
        functions[sym] = (arity, table)

    relations = {}
    for entry in _need_opt(doc, "relations", list, "model"):
        sym = _need(entry, "symbol", str, "relations[]")
        arity = _need(entry, "arity", int, f"relations.{sym}")
        table = {}
        for state, rows in _need(entry, "table", dict, f"relations.{sym}").items():
            if not isinstance(rows, list):
                raise SchemaError(f"relations.{sym}.{state}: rows must be a list")
            table[state] = frozenset(tuple(row) for row in rows)
        if sym in relations:
            raise SchemaError(f"relations.{sym}: duplicate symbol")
        relations[sym] = (arity, table)

    access = {}
    for agent, pairs in _need_opt(doc, "access", dict, "model").items():
        if not isinstance(pairs, list):
            raise SchemaError(f"access.{agent}: must be a list of [s, t] pairs")
        edges = set()
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"access.{agent}: bad edge {pair!r}")
            edges.add((pair[0], pair[1]))
        access[agent] = frozenset(edges)
    for agent in agents:
        access.setdefault(agent, frozenset())

    prob = {}
    weights = {}   # weight text -> Fraction, so each distinct text parses once
    prob_doc = _need_opt(doc, "prob", dict, "model")
    for agent, per_state in prob_doc.items():
        if not isinstance(per_state, dict):
            raise SchemaError(f"prob.{agent}: must map states to spaces")
        for state, space_doc in per_state.items():
            prob[(agent, state)] = _load_space(
                space_doc, f"prob.{agent}.{state}", weights)
    for agent in agents:
        for state in states:
            if (agent, state) not in prob:
                prob[(agent, state)] = point_space(state)

    return Model(
        states=tuple(states), domain=tuple(domain), agents=tuple(agents),
        functions=functions, relations=relations, access=access, prob=prob,
        groups=groups,
    )


def _need_opt(doc, key, cls, where):
    if key not in doc:
        return cls()
    return _need(doc, key, cls, where)


def _load_space(doc, where, parsed) -> ProbSpace:
    sample = _need(doc, "sample", list, where)
    if "atoms" in doc:
        atoms = [frozenset(a) for a in _need(doc, "atoms", list, where)]
    else:
        atoms = [frozenset([s]) for s in sorted(sample)]
    weights_doc = _need(doc, "weights", dict, where)
    weights = []
    for ix in range(len(atoms)):
        key = str(ix)
        if key not in weights_doc:
            raise SchemaError(f"{where}: missing weight for atom {ix}")
        raw = weights_doc[key]
        text = str(raw)
        w = parsed.get(text)
        if w is None:
            w = parsed[text] = _fraction(raw, where)
        weights.append(w)
    if len(weights_doc) != len(atoms):
        raise SchemaError(f"{where}: one weight per atom required")
    return ProbSpace(frozenset(sample), tuple(atoms), tuple(weights))


def parse_model(text: str) -> Model:
    """Decode, build and fully validate a model document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model document is not valid JSON: {exc}") from None
    m = load_model(doc)
    rep = validate(m)
    if not rep.passed:
        raise SchemaError("model invalid: " + "; ".join(
            f"{d.get('where')}: {d.get('problem')}" for d in rep.details))
    return m


def model_to_doc(m: Model) -> dict:
    """Canonical document form (sorted, schema field order)."""
    doc = {
        "states": list(m.states),
        "domain": list(m.domain),
        "agents": list(m.agents),
        "groups": {name: sorted(members)
                   for name, members in sorted(m.groups.items())},
        "functions": [
            {"symbol": sym, "arity": arity,
             "table": [{"args": list(args), "value": value}
                       for args, value in sorted(table.items())]}
            for sym, (arity, table) in sorted(m.functions.items())],
        "relations": [
            {"symbol": sym, "arity": arity,
             "table": {state: sorted(list(t) for t in tuples)
                       for state, tuples in sorted(table.items())}}
            for sym, (arity, table) in sorted(m.relations.items())],
        "access": {agent: sorted([s, t] for (s, t) in pairs)
                   for agent, pairs in sorted(m.access.items())},
        "prob": {},
    }
    for agent in m.agents:
        per_state = {}
        for state in m.states:
            sp = m.prob[(agent, state)]
            per_state[state] = {
                "sample": sorted(sp.sample),
                "atoms": [sorted(a) for a in sp.atoms],
                "weights": {str(ix): str(w) for ix, w in enumerate(sp.weights)},
            }
        doc["prob"][agent] = per_state
    return doc


def model_to_json(m: Model) -> str:
    return json.dumps(model_to_doc(m), indent=2) + "\n"


# ---------------------------------------------------------------------------
# proof documents

_PARAM_FORMULAS = ("phi", "psi", "formula")


def _load_params(doc, where) -> dict:
    out = {}
    for key, raw in doc.items():
        if key in _PARAM_FORMULAS:
            out[key] = parse_formula(raw)
        elif key == "term":
            out[key] = parse_term(raw)
        elif key in ("r", "t"):
            out[key] = _fraction(raw, where)
        elif key == "m":
            out[key] = _int(raw, where)
        elif key == "group":
            out[key] = tuple(raw)
        elif key in ("i", "j", "x"):
            out[key] = str(raw)
        else:
            raise SchemaError(f"{where}: unknown axiom parameter {key!r}")
    return out


def _dump_params(params) -> dict:
    out = {}
    for key, value in params:
        if key in _PARAM_FORMULAS:
            out[key] = print_formula(value)
        elif key == "term":
            out[key] = print_term(value)
        elif key in ("r", "t"):
            out[key] = str(value)
        elif key == "group":
            out[key] = list(value)
        else:
            out[key] = value
    return out


def _load_spec(doc, where) -> NestedImplicationSpec:
    k = _need(doc, "k", int, where)
    thetas = tuple(parse_formula(t) for t in _need(doc, "thetas", list, where))
    guards = []
    for g in _need(doc, "guards", list, where):
        op = _need(g, "op", str, where)
        if op not in ("K", "P1"):
            raise SchemaError(f"{where}: guard op must be K or P1")
        guards.append(Guard(op, _need(g, "agent", str, where)))
    try:
        return NestedImplicationSpec(k, thetas, tuple(guards))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _dump_spec(spec) -> dict:
    return {
        "k": spec.k,
        "thetas": [print_formula(t) for t in spec.thetas],
        "guards": [{"op": g.kind, "agent": g.agent} for g in spec.guards],
    }


def _load_premise_map(doc, where) -> tuple:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: premises must map members to steps")
    return tuple(sorted((str(k), _int(v, where)) for k, v in doc.items()))


def _load_certificate(doc, where) -> pc.Certificate:
    bound = _need(doc, "bound", int, where)
    premises = _need(doc, "premises", dict, where)
    return pc.Certificate(bound, tuple(sorted(
        (_int(k, where), _int(v, where)) for k, v in premises.items())))


def _dump_certificate(cert) -> dict:
    return {"bound": cert.bound,
            "premises": {str(k): v for k, v in cert.premises}}


def _load_just(doc, where):
    kind = _need(doc, "kind", str, where)
    if kind == "CON-axiom":
        return pc.AxiomJust("CON", tuple(sorted(
            _load_params(doc.get("params", {}), where).items())))
    if kind == "axiom":
        name = _need(doc, "name", str, where)
        params = _load_params(doc.get("params", {}), where)
        return pc.AxiomJust(name, tuple(sorted(params.items())))
    if kind == "hyp":
        return pc.HypJust(_need(doc, "index", int, where))
    if kind == "MP":
        return pc.MPJust(_need(doc, "premise", int, where),
                         _need(doc, "implication", int, where))
    if kind == "FOR":
        return pc.FORJust(_need(doc, "premise", int, where),
                          _need(doc, "var", str, where))
    if kind == "RK":
        return pc.RKJust(_need(doc, "premise", int, where),
                         _need(doc, "agent", str, where))
    if kind == "RP":
        return pc.RPJust(_need(doc, "premise", int, where),
                         _need(doc, "agent", str, where))
    if kind == "RE":
        return pc.REJust(_load_spec(_need(doc, "spec", dict, where), where),
                         _load_premise_map(_need(doc, "premises", dict, where), where))
    if kind == "RPE":
        return pc.RPEJust(_load_spec(_need(doc, "spec", dict, where), where),
                          _fraction(_need(doc, "r", str, where), where),
                          _load_premise_map(_need(doc, "premises", dict, where), where))
    if kind == "RC":
        return pc.RCJust(_load_spec(_need(doc, "spec", dict, where), where),
                         _load_certificate(_need(doc, "certificate", dict, where), where))
    if kind == "RPC":
        return pc.RPCJust(_load_spec(_need(doc, "spec", dict, where), where),
                          _fraction(_need(doc, "r", str, where), where),
                          _load_certificate(_need(doc, "certificate", dict, where), where))
    if kind == "RA":
        return pc.RAJust(_load_spec(_need(doc, "spec", dict, where), where),
                         _need(doc, "agent", str, where),
                         _fraction(_need(doc, "r", str, where), where),
                         _load_certificate(_need(doc, "certificate", dict, where), where))
    raise SchemaError(f"{where}: unknown rule name {kind!r}")


def _dump_just(just) -> dict:
    if isinstance(just, pc.AxiomJust):
        out = {"kind": "axiom", "name": just.name}
        if just.params:
            out["params"] = _dump_params(just.params)
        return out
    if isinstance(just, pc.HypJust):
        return {"kind": "hyp", "index": just.index}
    if isinstance(just, pc.MPJust):
        return {"kind": "MP", "premise": just.premise,
                "implication": just.implication}
    if isinstance(just, pc.FORJust):
        return {"kind": "FOR", "premise": just.premise, "var": just.var}
    if isinstance(just, pc.RKJust):
        return {"kind": "RK", "premise": just.premise, "agent": just.agent}
    if isinstance(just, pc.RPJust):
        return {"kind": "RP", "premise": just.premise, "agent": just.agent}
    if isinstance(just, pc.REJust):
        return {"kind": "RE", "spec": _dump_spec(just.spec),
                "premises": {a: s for a, s in just.premises}}
    if isinstance(just, pc.RPEJust):
        return {"kind": "RPE", "spec": _dump_spec(just.spec),
                "r": str(just.bound),
                "premises": {a: s for a, s in just.premises}}
    if isinstance(just, pc.RCJust):
        return {"kind": "RC", "spec": _dump_spec(just.spec),
                "certificate": _dump_certificate(just.certificate)}
    if isinstance(just, pc.RPCJust):
        return {"kind": "RPC", "spec": _dump_spec(just.spec),
                "r": str(just.bound),
                "certificate": _dump_certificate(just.certificate)}
    if isinstance(just, pc.RAJust):
        return {"kind": "RA", "spec": _dump_spec(just.spec),
                "agent": just.agent, "r": str(just.bound),
                "certificate": _dump_certificate(just.certificate)}
    raise TypeError(f"not a justification: {just!r}")


def load_proof(doc: dict) -> pc.Proof:
    if not isinstance(doc, dict):
        raise SchemaError("proof document must be an object")
    mode = doc.get("mode", pc.MODE_PLAIN)
    if mode not in (pc.MODE_PLAIN, pc.MODE_CON):
        raise SchemaError(f"mode must be plain or con, got {mode!r}")
    hypotheses = tuple(parse_formula(h)
                       for h in _need_opt(doc, "hypotheses", list, "proof"))
    steps = []
    for ix, entry in enumerate(_need(doc, "steps", list, "proof")):
        where = f"steps[{ix}]"
        formula = parse_formula(_need(entry, "formula", str, where))
        just = _load_just(_need(entry, "just", dict, where), where)
        for ref in pc._refs(just):
            if not (0 <= ref < ix):
                raise SchemaError(
                    f"{where}: reference to step {ref} is not an earlier step")
        steps.append(pc.Step(formula, just))
    return pc.Proof(hypotheses, tuple(steps), mode)


def parse_proof(text: str) -> pc.Proof:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"proof document is not valid JSON: {exc}") from None
    return load_proof(doc)


def proof_to_doc(p: pc.Proof) -> dict:
    return {
        "mode": p.mode,
        "hypotheses": [print_formula(h) for h in p.hypotheses],
        "steps": [{"formula": print_formula(s.formula),
                   "just": _dump_just(s.just)} for s in p.steps],
    }


def proof_to_json(p: pc.Proof) -> str:
    return json.dumps(proof_to_doc(p), indent=2) + "\n"
