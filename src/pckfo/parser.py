"""Concrete syntax: formula text, model documents, proof documents.

Formula grammar (see docs/grammar.md for the EBNF).  Operators are spelled
K[i], E{G}, C{G}, P[i]>=r, Es{G,r}, Cs{G,r}, Ks[i,r]; connectives are
! & | -> <-> with precedence ! > & > | > -> > <->; quantifiers and modal
operators bind tighter than binary connectives.  Identifiers starting with
one of u v w x y z are variables; all other identifiers are constants,
function or relation symbols depending on position.  Derived connectives are
expanded while parsing, so the printer only ever emits ! & forall and the six
modal/probability operators.

Every formula text is read against one table (`_Groups`): `load_proof`
makes one for all the formula texts of a document, and `parse_formula` one
per call, so a proof costs what its distinct parts cost.  Each distinct run
of text between parentheses (a chunk) is tokenized once per table, and a
group is keyed by the ids of the chunks and inner groups directly inside
it, so whitespace does not matter and keys are linear in the text; a group
read as a formula once is taken as that one object at every later copy,
and not read again.  Every node is built once per table (hash-consing), so
equal subformulas are one object.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import operator
import re
import string
from fractions import Fraction

from . import proofcheck as pc
from .errors import ParseError, SchemaError
from .model import (
    Model, Positions, over_common_denominator, point_entry, positions,
    space_entry, validate,
)
from .report import json_text
from .syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Guard, Knows, NestedImplicationSpec, Not, ProbAtLeast, Var,
    _as_group, disj, exists, iff, implies, knows_prob, prob_eq, prob_gt,
    prob_le, prob_lt, top, bot,
)

# One token, after any whitespace.  A character no token can start with is
# skipped by findall, so it shows as fewer token characters than non-space
# characters in the text.
_TOKEN_RE = re.compile(
    r"\s*(\d+\.\d+|\d+|[A-Za-z_][A-Za-z0-9_']*"
    r"|<->|->|>=|<=|[!&|()\[\]{},<>=/])"
)
_ID_START = frozenset(string.ascii_letters + "_")
_PARENS = re.compile(r"([()])")     # splits a text into chunks and parentheses

_VAR_INITIALS = "uvwxyz"

# Words that can start a prefix operator; all but forall and exists only
# when their opening bracket follows.
_PREFIX_WORDS = frozenset(
    ("forall", "exists", "K", "Ks", "P", "E", "C", "Es", "Cs"))

# Binary connective -> (precedence, constructor); higher binds tighter.
_BINARY = {"&": (4, And), "|": (3, disj), "->": (2, implies), "<->": (1, iff)}
_END = (0, None)    # any other token ends the run and closes every connective
_UNMATCHED = (None, None)   # the entry of a "(" with no ")"

_PROB_COMPARISONS = {
    ">=": ProbAtLeast, "<": prob_lt, "<=": prob_le, ">": prob_gt,
    "=": prob_eq,
}


def is_variable_name(name: str) -> bool:
    return bool(name) and name[0] in _VAR_INITIALS


def _tokenize(text: str, offset: int = 0) -> list:
    """The tokens of text, which starts at offset in the formula text whose
    spans an error reports."""
    toks = _TOKEN_RE.findall(text)
    if sum(map(len, toks)) != sum(map(len, text.split())):
        pos = 0
        while (m := _TOKEN_RE.match(text, pos)) is not None:
            pos = m.end()
        rest = text[pos:]
        pos += len(rest) - len(rest.lstrip())
        raise ParseError(f"unexpected character {text[pos]!r}",
                         (offset + pos, offset + pos + 1))
    return toks


class _Groups:
    """The formula texts of one document, or of one text, as read so far.
    A chunk is a run of text between two parentheses or an end of the text.
    `chunks` maps the text of each chunk met to its tokens and the id of
    their tuple in `ids` (None when it has none), so each distinct chunk is
    tokenized once.  `ids` interns keys to integer ids from one counter: a
    chunk's key is its token tuple, so whitespace does not matter, and a
    group's key is the tuple of the ids of the chunks with tokens and of
    the inner groups directly inside it, so keys are linear in the text.
    `formulas` maps the id of each group read as a formula to that formula.
    The parse of a group depends on its tokens alone, and a group is stored
    only once it was read without error, so a stored formula stands for
    every copy of its group.

    `nodes` makes equal subformulas one object (hash-consing): it maps how
    each node was built to the node, an atom by (Atom, name, arguments), a
    prefix operator by (constructor, (its leading arguments), id(operand))
    and a connective by (constructor, id(left), id(right)).  Operands are
    nodes of the table, which holds them, so their ids stay theirs.  The
    node an abbreviation builds is shared node by node (`_share`), and a
    node of the core classes is keyed the same either way."""

    def __init__(self):
        self.chunks = {"": ([], None)}
        self.ids = {}
        self.formulas = {}
        self.nodes = {}

    def node(self, key, build, *args):
        """build(*args), whose node arguments are nodes of the table, as a
        node of the table, stored under key; the caller found none there."""
        f = build(*args)
        if type(build) is not type:     # an abbreviation, not a node class
            f = self._share(f, args)
        self.nodes[key] = f
        return f

    def _share(self, f, operands):
        """f, which an abbreviation built over `operands`, with each node
        it made replaced by the table's equal node; a node the table lacks
        is added under its key (see `_Groups`), and rebuilt first if one of
        its operands was replaced.  Post-order over an explicit stack."""
        nodes = self.nodes
        shared = {id(g): g for g in operands}   # id -> the table's node
        todo = [f]
        while todo:
            g = todo[-1]
            if id(g) in shared:
                todo.pop()
                continue
            cls = type(g)
            kids = () if cls is Atom else (g.left, g.right) if cls is And \
                else (g.body,)
            new = [k for k in kids if id(k) not in shared]
            if new:
                todo += new
                continue
            todo.pop()
            same = [shared[id(k)] for k in kids]
            if cls is Atom:
                key, data = (Atom, g.rel, g.args), ()
            elif cls is And:
                key, data = (And, *map(id, same)), ()
            else:
                data = g.__reduce__()[1][:-1]   # the fields but the body
                key = (cls, data, id(same[0]))
            h = nodes.get(key)
            if h is None:
                h = nodes[key] = g if all(map(operator.is_, same, kids)) \
                    else cls(*data, *same)
            shared[id(g)] = h
        return shared[id(f)]


class _FormulaParser:
    """A reader over the token strings of one text.  Formulas and terms
    are read in loops that keep their open levels on lists, so nesting has
    no limit.

    `toks` ends with "", so the parser indexes it without bounds checks.
    Spans are found again from the text only when an error is raised.
    `groups` maps the position of each matched "(" to its id in `table`
    and the position of its ")".  Only `_formula` stores and looks up
    formulas by id, so a group read as the arguments of a term or an atom
    never stands in for a formula.  Every node is made through the
    table's `nodes`.
    """

    def __init__(self, text: str, table: _Groups):
        """Tokenize the chunks of text not yet in `table` and key each
        matched group, innermost first, in one pass over the chunks and
        parentheses with a stack of the enclosing keys.  Every chunk is
        tokenized before reading starts, so the first bad character is
        reported before any parse error."""
        self.text = text
        self.pos = 0
        self.table = table
        chunks, ids = table.chunks, table.ids
        self.toks = toks = []
        self.groups = groups = {}
        stack = []      # (position of "(", enclosing key)
        key = []        # the key so far of the innermost open group
        offset = 0      # where the part starts in the text
        parts = iter(_PARENS.split(text))
        # a chunk and the parenthesis after it, None after the last chunk
        for part, paren in itertools.zip_longest(parts, parts):
            entry = chunks.get(part)
            if entry is None:
                run = _tokenize(part, offset)
                entry = chunks[part] = (
                    run, ids.setdefault(tuple(run), len(ids)) if run
                    else None)
            run, cid = entry
            if run:
                toks += run
                key.append(cid)
            offset += len(part) + 1
            if paren == "(":
                stack.append((len(toks), key))
                toks.append("(")
                key = []
            elif paren == ")":
                if stack:
                    start, outer = stack.pop()
                    gid = ids.setdefault(tuple(key), len(ids))
                    groups[start] = (gid, len(toks))
                    outer.append(gid)
                    key = outer
                toks.append(")")
        toks.append("")

    # -- token plumbing

    def _span(self, ix):
        if ix == len(self.toks) - 1:
            return (len(self.text), len(self.text))
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), ix, None))
        return m.span(1)

    def _take(self) -> str:
        tok = self.toks[self.pos]
        if not tok:
            raise ParseError("unexpected end of input", self._span(self.pos))
        self.pos += 1
        return tok

    def expect(self, kind) -> str:
        """The next token, which must be of `kind`: "id", "num" or the
        operator text itself."""
        tok = self._take()
        if kind != ("id" if tok[0] in _ID_START else
                    "num" if tok[0].isdigit() else tok):
            raise ParseError(f"expected {kind!r}, found {tok!r}",
                             self._span(self.pos - 1))
        return tok

    # -- grammar

    def parse(self, rule):
        result = rule()
        tok = self.toks[self.pos]
        if tok:
            raise ParseError(f"unexpected trailing {tok!r}",
                             self._span(self.pos))
        return result

    def _formula(self):
        """A formula, read in one loop.  A level is the prefix run before
        the current operand and the operands and open connectives around
        it; "(" saves the open level on `levels` and starts a new one, and
        the matching ")" restores it and applies its prefixes.  A group
        whose formula is in the table is taken from there as the operand,
        and the reader jumps past its ")"."""
        toks, table = self.toks, self.table
        groups, formulas, nodes = self.groups, table.formulas, table.nodes
        levels = []     # the enclosing levels, innermost last
        prefixes = []   # (constructor, leading arguments), outermost first
        operands = []
        pending = []    # (precedence, constructor) of the open connectives
        start = None    # the position of the "(" of the level
        while True:
            tok = toks[self.pos]
            if tok == "!":
                self.pos += 1
                prefixes.append((Not, ()))
                continue
            if tok == "(":
                # an unmatched "(" has no id, and its level never closes
                inner, end = groups.get(self.pos, _UNMATCHED)
                f = formulas.get(inner)
                if f is None:
                    levels.append((prefixes, operands, pending, start))
                    prefixes, operands, pending = [], [], []
                    start = self.pos
                    self.pos += 1
                    continue
                self.pos = end + 1
            elif not tok:
                raise ParseError("unexpected end of input",
                                 self._span(self.pos))
            elif tok[0] not in _ID_START:
                raise ParseError(f"unexpected {tok!r}", self._span(self.pos))
            elif tok in _PREFIX_WORDS and (
                    prefix := self._prefix(tok, toks[self.pos + 1])):
                prefixes.append(prefix)
                continue
            else:
                f = self._atom()
            while True:
                for build, args in reversed(prefixes):
                    key = (build, args, id(f))
                    f = nodes.get(key) or table.node(key, build, *args, f)
                operands.append(f)
                op = _BINARY.get(toks[self.pos], _END)
                # Close the connectives that bind at least as tightly; "->"
                # is right-associative, so an open "->" stays open for
                # another.
                while pending and (pending[-1][0] > op[0] or (
                        pending[-1][0] == op[0] and op[1] is not implies)):
                    right = operands.pop()
                    left, build = operands[-1], pending.pop()[1]
                    key = (build, id(left), id(right))
                    operands[-1] = nodes.get(key) or table.node(
                        key, build, left, right)
                if op is not _END:
                    self.pos += 1
                    pending.append(op)
                    prefixes = []
                    break
                f = operands[0]
                if not levels:
                    return f
                closing = self._take()
                if closing != ")":
                    raise ParseError(f"expected ')', found {closing!r}",
                                     self._span(self.pos - 1))
                formulas[groups[start][0]] = f
                prefixes, operands, pending, start = levels.pop()

    def _prefix(self, word, follows):
        """Read the prefix operator `word` starts, up to its body; None
        when `word` starts an atom instead."""
        if word == "forall" or word == "exists":
            self.pos += 1
            return (Forall if word == "forall" else exists), \
                (self._bound_var(),)
        if follows == "[":
            if word == "K":
                self.pos += 2
                return Knows, (self._agent(),)
            if word == "Ks":
                self.pos += 2
                agent = self.expect("id")
                self.expect(",")
                r = self._rational()
                self.expect("]")
                return knows_prob, (agent, r)
            if word == "P":
                self.pos += 2
                agent = self._agent()
                tok = self._take()
                build = _PROB_COMPARISONS.get(tok)
                if build is None:
                    raise ParseError(
                        f"expected a probability comparison, found {tok!r}",
                        self._span(self.pos - 1))
                return build, (agent, self._rational())
        elif follows == "{":
            if word == "E" or word == "C":
                self.pos += 2
                return (EveryoneKnows if word == "E" else CommonKnows), \
                    (self._group(with_bound=False),)
            if word == "Es" or word == "Cs":
                self.pos += 2
                return (EveryoneProb if word == "Es" else CommonProb), \
                    self._group(with_bound=True)
        return None

    def _bound_var(self) -> str:
        name = self.expect("id")
        if not is_variable_name(name):
            raise ParseError(
                f"quantified name {name!r} must start with one of"
                f" {_VAR_INITIALS!r}", self._span(self.pos - 1))
        return name

    def _agent(self) -> str:
        """The agent and closing bracket after K[ or P[."""
        agent = self.expect("id")
        self.expect("]")
        return agent

    def _group(self, with_bound: bool):
        """The members (and threshold) after an opening brace, the members
        sorted and without repeats, so that equal groups key one node."""
        toks = self.toks
        members = []
        bound = None
        while True:
            tok = toks[self.pos]
            if tok[:1] in _ID_START:
                if bound is not None:
                    raise ParseError("threshold must be the last group entry",
                                     self._span(self.pos))
                members.append(tok)
                self.pos += 1
            elif tok[:1].isdigit():
                bound = self._rational()
            elif not tok:
                raise ParseError("unterminated group", self._span(self.pos))
            else:
                raise ParseError(f"unexpected {tok!r} in group",
                                 self._span(self.pos))
            tok = self._take()
            if tok == "}":
                break
            if tok != ",":
                raise ParseError(f"expected ',' or '}}', found {tok!r}",
                                 self._span(self.pos - 1))
        if with_bound and bound is None:
            raise ParseError("this operator needs a trailing threshold",
                             self._span(self.pos - 1))
        if not with_bound and bound is not None:
            raise ParseError("this operator takes no threshold",
                             self._span(self.pos - 1))
        if not members:
            raise ParseError("group must list at least one member",
                             self._span(self.pos - 1))
        members = _as_group(tuple(members))
        return (members, bound) if with_bound else members

    def _rational(self) -> Fraction:
        ix = self.pos
        text = self.expect("num")
        try:
            if "." in text:
                value = Fraction(text)
                str(value)   # its denominator may be too long to print
            else:
                value = Fraction(int(text))
                if self.toks[self.pos] == "/":
                    self.pos += 1
                    den = self.expect("num")
                    if "." in den:
                        raise ParseError("denominator must be an integer",
                                         self._span(self.pos - 1))
                    value = Fraction(int(text), int(den))
        except ZeroDivisionError:
            raise ParseError("zero denominator", self._span(ix)) from None
        except ValueError:   # more digits than Python converts
            raise ParseError("numeral too long",
                             self._span(self.pos - 1)) from None
        if value < 0 or value > 1:
            raise ParseError(f"rational {value} outside [0, 1]",
                             self._span(ix))
        return value

    def _atom(self):
        """An atom, top or bot, as a node of the table."""
        ix = self.pos
        name = self.toks[ix]
        self.pos += 1
        args = ()
        if self.toks[self.pos] == "(":
            if is_variable_name(name):
                raise ParseError(
                    f"variable {name!r} cannot be used as a relation",
                    self._span(ix))
            self.pos += 1
            args = [self._term()]
            while self.toks[self.pos] == ",":
                self.pos += 1
                args.append(self._term())
            self.expect(")")
            args = tuple(args)
        elif name == "top" or name == "bot":
            build = top if name == "top" else bot
            return self.table.nodes.get((build,)) or self.table.node(
                (build,), build)
        elif is_variable_name(name):
            raise ParseError(
                f"variable {name!r} cannot stand alone as a formula",
                self._span(ix))
        key = (Atom, name, args)
        return self.table.nodes.get(key) or self.table.node(
            key, Atom, name, args)

    def _term(self):
        """One term; nested applications are kept on a list, not the
        stack."""
        toks = self.toks
        open_apps = []   # (function, arguments so far), outermost first
        while True:
            name = self.expect("id")
            if toks[self.pos] == "(":
                if is_variable_name(name):
                    raise ParseError(
                        f"variable {name!r} cannot be applied as a"
                        " function", self._span(self.pos - 1))
                self.pos += 1
                open_apps.append((name, []))
                continue
            term = Var(name) if is_variable_name(name) else App(name, ())
            while open_apps:
                fn, args = open_apps[-1]
                args.append(term)
                if toks[self.pos] == ",":
                    self.pos += 1
                    break
                self.expect(")")
                open_apps.pop()
                term = App(fn, tuple(args))
            else:
                return term


def _read_formula(text: str, table: _Groups):
    """Parse formula text, sharing the groups of `table`."""
    p = _FormulaParser(text, table)
    return p.parse(p._formula)


def parse_formula(text: str):
    """Parse concrete syntax into a core formula (abbreviations expanded)."""
    return _read_formula(text, _Groups())


def parse_term(text: str):
    """Parse a bare term (used for axiom parameters in proof documents)."""
    p = _FormulaParser(text, _Groups())
    return p.parse(p._term)


# ---------------------------------------------------------------------------
# printing


# Prefix operator -> its text before the body.
_PREFIX_TEXT = {
    Not: lambda f: "!",
    Forall: lambda f: f"forall {f.var} ",
    Knows: lambda f: f"K[{f.agent}] ",
    EveryoneKnows: lambda f: f"E{{{','.join(f.group)}}} ",
    CommonKnows: lambda f: f"C{{{','.join(f.group)}}} ",
    ProbAtLeast: lambda f: f"P[{f.agent}]>={f.bound} ",
    EveryoneProb: lambda f: f"Es{{{','.join(f.group)},{f.bound}}} ",
    CommonProb: lambda f: f"Cs{{{','.join(f.group)},{f.bound}}} ",
}


def print_formula(f) -> str:
    """Canonical text of a formula or term, which the parser reads back as
    f.  `todo` holds the nodes and text pieces to write."""
    out = []
    todo = [f]
    while todo:
        f = todo.pop()
        cls = type(f)
        if cls is str:
            out.append(f)
        elif cls in _PREFIX_TEXT:
            out.append(_PREFIX_TEXT[cls](f))
            todo += (")", f.body, "(") if type(f.body) is And else (f.body,)
        elif cls is And:
            todo += (")", f.right, "(") if type(f.right) is And \
                else (f.right,)
            todo += (" & ", f.left)
        elif cls is Var:
            out.append(f.name)
        elif cls is Atom or cls is App:
            out.append(f.rel if cls is Atom else f.fn)
            if f.args:
                todo.append(")")
                for a in f.args[:0:-1]:
                    todo += (a, ",")
                todo += (f.args[0], "(")
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)


print_term = print_formula    # a term prints through the same loop


# ---------------------------------------------------------------------------
# model documents


def _need(doc, key, cls, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: must be an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing {key!r}")
    value = doc[key]
    # a JSON true or false is a bool, which Python counts as an int
    if not isinstance(value, cls) or (cls is int and type(value) is bool):
        raise SchemaError(f"{where}: {key!r} must be {cls.__name__}")
    return value


def _int(raw, where) -> int:
    """raw as an integer: a JSON integer, or a string that spells one as
    `str` does (an object key), so that an integer has one spelling; a
    float or a bool is no integer."""
    if type(raw) is int:
        return raw
    if type(raw) is str:
        try:
            if raw == str(value := int(raw)):
                return value
        except ValueError:
            pass
    raise SchemaError(f"{where}: bad integer {raw!r}")


def _is_names(raw) -> bool:
    """Whether raw is a list of strings (state, agent or element names)."""
    return isinstance(raw, list) and all(map(str.__instancecheck__, raw))


def _strings(raw, where) -> list:
    """raw, checked to be a list of strings (state, agent or element names)."""
    if not _is_names(raw):
        raise SchemaError(f"{where}: expected a list of names, got {raw!r}")
    return raw


def _fraction(text, where) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{where}: bad rational {text!r}") from None


def load_model(doc: dict) -> Model:
    """Build a Model from a decoded model document, compiling it into its
    rows in the same pass (schema checks only; `validate` checks the model
    invariants)."""
    if not isinstance(doc, dict):
        raise SchemaError("model document must be an object")
    states = _strings(_need(doc, "states", list, "model"), "model.states")
    domain = _strings(_need(doc, "domain", list, "model"), "model.domain")
    agents = _strings(_need(doc, "agents", list, "model"), "model.agents")

    groups = {}
    for name, members in _need_opt(doc, "groups", dict, "model").items():
        groups[name] = tuple(sorted(set(_strings(members, f"groups.{name}"))))

    functions = {}
    for entry in _need_opt(doc, "functions", list, "model"):
        sym = _need(entry, "symbol", str, "functions[]")
        arity = _need(entry, "arity", int, f"functions.{sym}")
        table = {}
        for row in _need(entry, "table", list, f"functions.{sym}"):
            args = tuple(_strings(_need(row, "args", list, f"functions.{sym}"),
                                  f"functions.{sym}"))
            table[args] = _need(row, "value", str, f"functions.{sym}")
        if sym in functions:
            raise SchemaError(f"functions.{sym}: duplicate symbol")
        functions[sym] = (arity, table)

    relations = {}
    sets = {}   # each distinct row set of the document, kept once
    flat = itertools.chain.from_iterable
    for entry in _need_opt(doc, "relations", list, "model"):
        sym = _need(entry, "symbol", str, "relations[]")
        arity = _need(entry, "arity", int, f"relations.{sym}")
        table = _need(entry, "table", dict, f"relations.{sym}")
        rows = table.values()
        # every state's rows, every row and every name, each in one pass
        if not (all(map(list.__instancecheck__, rows))
                and all(map(list.__instancecheck__, flat(rows)))
                and all(map(str.__instancecheck__, flat(flat(rows))))):
            for state, given in table.items():  # the first fault is raised
                where = f"relations.{sym}.{state}"
                if not isinstance(given, list):
                    raise SchemaError(f"{where}: rows must be a list")
                for row in given:
                    _strings(row, where)
        found = list(map(frozenset, map(map, itertools.repeat(tuple), rows)))
        table = dict(zip(table, map(sets.setdefault, found, found)))
        if sym in relations:
            raise SchemaError(f"relations.{sym}: duplicate symbol")
        relations[sym] = (arity, table)

    states = sorted(set(states))
    n = len(states)
    index = Positions(states)
    bit = index.bit
    pred = {}
    for agent, pairs in _need_opt(doc, "access", dict, "model").items():
        if not isinstance(pairs, list):
            raise SchemaError(f"access.{agent}: must be a list of [s, t] pairs")
        row = [0] * n
        try:    # every pair [s, t] of states, read in one loop
            if not all(map(list.__instancecheck__, pairs)):
                raise TypeError
            for s, t in pairs:
                row[index[t]] |= bit[s]
            pred[agent] = tuple(row)
            continue
        except (KeyError, IndexError, TypeError, ValueError):
            # a fault, or a name past the states: the row is read again
            # pair by pair, so the first error and the positions are kept
            row = [0] * n
        for pair in pairs:
            if isinstance(pair, list) and len(pair) == 2:
                s, t = pair
                try:
                    row[index[t]] |= bit[s]
                    continue
                except (KeyError, IndexError, TypeError):
                    # an end that is not a state, or not a name at all
                    if isinstance(s, str) and isinstance(t, str):
                        k = index.add(t)
                        row += [0] * (k + 1 - len(row))
                        row[k] |= 1 << index.add(s)
                        continue
            raise SchemaError(f"access.{agent}: bad edge {pair!r}")
        pred[agent] = tuple(row)
    for agent in agents:
        pred.setdefault(agent, (0,) * n)

    spaces = {agent: [None] * n for agent in agents}
    strays = []
    weights = {}   # weight texts -> (numerators, denominator)
    for agent, per_state in _need_opt(doc, "prob", dict, "model").items():
        if not isinstance(per_state, dict):
            raise SchemaError(f"prob.{agent}: must map states to spaces")
        row = spaces.get(agent)
        for state, space_doc in per_state.items():
            entry = _load_space(space_doc, agent, state, index, n, weights)
            k = index.get(state, n)
            if row is None or k >= n:
                strays.append(((agent, state), entry))
            else:
                row[k] = entry
    for row in spaces.values():
        for k, entry in enumerate(row):
            if entry is None:
                row[k] = point_entry(k)

    return Model.compiled(
        tuple(states), tuple(sorted(set(domain))), tuple(sorted(set(agents))),
        functions, relations, groups, tuple(index.names), pred,
        {agent: tuple(row) for agent, row in spaces.items()}, tuple(strays))


def _need_opt(doc, key, cls, where):
    if key not in doc:
        return cls()
    return _need(doc, key, cls, where)


def _load_space(doc, agent, state, index, n, parsed) -> tuple:
    """The space entry (see `Model`) of agent's space document at state.
    index gives the bit positions of names, the n states first, and parsed
    maps each run of weight texts met so far to its numerators and
    denominator.  The checks run in the order of docs/model_schema.md, and
    each asks for the error location only when it fails."""
    sample = doc.get("sample") if type(doc) is dict else None
    if type(sample) is not list:
        sample = _need(doc, "sample", list, f"prob.{agent}.{state}")
    bit = index.bit
    mask = 0
    try:
        for s in sample:
            mask |= bit[s]
    except (KeyError, TypeError):
        # a name that is not a state, or no name: every name with a bit is
        # a string, so only such a sample needs checking
        mask = index.mask(_strings(sample, f"prob.{agent}.{state}"))
    if "atoms" in doc:
        atoms_doc = doc["atoms"]
        if type(atoms_doc) is not list:
            atoms_doc = _need(doc, "atoms", list, f"prob.{agent}.{state}")
    else:
        atoms_doc = [[s] for s in sorted(sample)]
    atoms = []
    low = 0
    canonical = True    # while each atom's lowest bit is above the last's
    for names in atoms_doc:
        try:
            if type(names) is not list:
                raise TypeError
            if len(names) == 1:
                m = bit[names[0]]
            else:
                m = 0
                for s in names:
                    m |= bit[s]
        except (KeyError, TypeError):
            # not a list, or a member that is no state
            if not _is_names(names):
                raise SchemaError(f"prob.{agent}.{state}: atoms must be"
                                  f" lists of state names") from None
            m = index.mask(names)
        if m & -m <= low:
            canonical = False
        low = m & -m
        atoms.append(m)
    weights_doc = doc.get("weights")
    if type(weights_doc) is not dict:
        weights_doc = _need(doc, "weights", dict, f"prob.{agent}.{state}")
    # A run is keyed by its items, so a hit has the same keys in the same
    # order and the same weights.  It is kept once its keys proved to be
    # "0" .. k - 1 and only if its weights are strings: as 1 == 1.0 == True,
    # a kept run of numbers would also stand for runs that must fail.
    run = tuple(weights_doc.items())
    try:
        nums, den = parsed[run]
    except (KeyError, TypeError):   # not met, or a weight that is unhashable
        nums = None
    if nums is None or len(nums) != len(atoms):
        where = f"prob.{agent}.{state}"
        nums, den = _weights(weights_doc, len(atoms), where)
        if len(weights_doc) != len(atoms):
            raise SchemaError(f"{where}: one weight per atom required")
        if all(map(str.__instancecheck__, weights_doc.values())):
            parsed[run] = nums, den
    if canonical and len(index.names) == n:
        return (mask, tuple(atoms), nums, den)
    return space_entry(mask, atoms, nums, den, index.names, n)


def _weights(weights_doc, count, where) -> tuple:
    """The weights "0" .. count - 1, each checked in turn, as a tuple of
    integer numerators over their common denominator."""
    weights = []
    for ix in range(count):
        key = str(ix)
        if key not in weights_doc:
            raise SchemaError(f"{where}: missing weight for atom {ix}")
        raw = weights_doc[key]
        if type(raw) is float:
            raise SchemaError(f"{where}: weight {raw!r} is a JSON float,"
                              f" which is not exact; write it as a string")
        weights.append(_fraction(raw, where))
    nums, den = over_common_denominator(weights)
    return tuple(nums), den


def decode_json(text: str, not_valid: str):
    """The decoded JSON text.  Text that is not JSON, that nests deeper
    than the decoder can follow, or that writes an integer too long to
    convert, is a SchemaError led by not_valid."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{not_valid}: {exc}") from None
    except ValueError:   # an integer of more digits than Python converts
        raise SchemaError(f"{not_valid}: integer too long") from None
    except RecursionError:
        raise SchemaError(f"{not_valid}: nested too deeply to decode"
                          ) from None


def load_document(text: str, load, not_valid: str):
    """load(the decoded JSON text), with Python's cyclic garbage collector
    paused throughout; text that is not JSON is a SchemaError led by
    not_valid (see `decode_json`).

    Decoding and loading build many containers, and each young collection
    started meanwhile walks them all, though it can free none of them: a
    decoded document is a tree of fresh dicts and lists, the loaders build
    acyclic values from it, and reference counting frees whatever is
    dropped.  The pause lasts until the document is released, as a
    collection started while it lives would walk it again.  The collector
    is process-wide, so the pause holds for every thread meanwhile.  On
    every exit, errors included, the collector is switched back on if it
    was on at entry, and left off if it was off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return load(decode_json(text, not_valid))
    finally:
        if enabled:
            gc.enable()


def parse_model(text: str) -> Model:
    """Decode, build and fully validate a model document."""
    m = load_document(text, load_model, "model document is not valid JSON")
    rep = validate(m)
    if not rep.passed:
        raise SchemaError("model invalid: " + "; ".join(
            f"{d.get('where')}: {d.get('problem')}" for d in rep.details))
    return m


def model_to_doc(m: Model) -> dict:
    """Canonical document form (sorted, schema field order), written from
    the model's rows.  A missing space is an EvalError.  The spaces keyed
    outside agents x states (`Model.strays`, only in an invalid model) are
    written under `prob` in their order, after the others: the agents with
    such spaces come after the other declared agents, in the order of
    their first stray space, so that the document loads them in the
    model's order."""
    names = m.names
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
        "access": {agent: sorted([names[s], names[t]]
                                 for t, into in enumerate(row)
                                 for s in positions(into))
                   for agent, row in sorted(m.pred.items())},
        "prob": {},
    }
    # Spaces share atoms and weights: each mask's sorted names and each
    # run's weight texts are made once, and copied into every space.
    listed, texts = {}, {}

    def space_doc(entry) -> dict:
        sample, atoms, nums, den = entry
        for mask in (sample, *atoms):
            if mask not in listed:
                listed[mask] = sorted(m.names_of(mask))
        if (nums, den) not in texts:
            texts[nums, den] = {str(ix): str(Fraction(x, den))
                                for ix, x in enumerate(nums)}
        return {"sample": list(listed[sample]),
                "atoms": [list(listed[a]) for a in atoms],
                "weights": dict(texts[nums, den])}

    prob = doc["prob"]
    strayed = dict.fromkeys(agent for (agent, _), _ in m.strays)
    for agent in [a for a in m.agents if a not in strayed] + list(strayed):
        prob[agent] = {state: space_doc(entry) for state, entry
                       in zip(m.states, m.space_row(agent))} \
            if agent in m.spaces else {}
    for (agent, state), entry in m.strays:
        prob[agent][state] = space_doc(entry)
    return doc


def model_to_json(m: Model) -> str:
    return json_text(model_to_doc(m)) + "\n"


# ---------------------------------------------------------------------------
# proof documents

def _as_is(value, where=None):
    return value


# Axiom parameter -> (JSON type, load, dump).  Rationals and integers are
# read from the text of any JSON value.
_FORMULA = (str, lambda text, where: parse_formula(text), print_formula)
_NAME = (str, _as_is, _as_is)
_RATIONAL = (object, _fraction, str)
_PARAMS = {
    "phi": _FORMULA, "psi": _FORMULA, "formula": _FORMULA,
    "term": (str, lambda text, where: parse_term(text), print_term),
    "r": _RATIONAL, "t": _RATIONAL, "m": (object, _int, _as_is),
    "group": (list, lambda names, where: tuple(_strings(names, where)), list),
    "i": _NAME, "j": _NAME, "x": _NAME,
}


def _load_params(doc, where) -> tuple:
    params = []
    for key in doc:
        if key not in _PARAMS:
            raise SchemaError(f"{where}: unknown axiom parameter {key!r}")
        cls, load, _ = _PARAMS[key]
        params.append((key, load(_need(doc, key, cls, where), where)))
    return tuple(sorted(params))


def _dump_params(params) -> dict:
    return {key: _PARAMS[key][2](value) for key, value in params}


def _formulas(texts, where, table) -> tuple:
    """Each entry of the list texts, parsed as formula text."""
    out = []
    for ix, text in enumerate(texts):
        if not isinstance(text, str):
            raise SchemaError(
                f"{where}[{ix}]: expected formula text, got {text!r}")
        out.append(_read_formula(text, table))
    return tuple(out)


def _load_spec(doc, where, table) -> NestedImplicationSpec:
    k = _need(doc, "k", int, where)
    thetas = _formulas(_need(doc, "thetas", list, where), f"{where}.thetas",
                       table)
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


def _load_certificate(doc, where) -> pc.Certificate:
    bound = _need(doc, "bound", int, where)
    premises = _need(doc, "premises", dict, where)
    return pc.Certificate(bound, tuple(sorted(
        (_int(k, where), _int(v, where)) for k, v in premises.items())))


def _dump_certificate(cert) -> dict:
    return {"bound": cert.bound,
            "premises": {str(k): v for k, v in cert.premises}}


# The proof-document format.  A step's "just" names its kind; its other keys
# are the fields of that kind's justification class, checked in field order.
# A field with a default (an axiom's params) may be left out, and is written
# only when it is not empty.  "CON-axiom" is read as an axiom step named CON.
_KINDS = {
    "axiom": pc.AxiomJust, "hyp": pc.HypJust, "MP": pc.MPJust,
    "FOR": pc.FORJust, "RK": pc.RKJust, "RP": pc.RPJust, "RE": pc.REJust,
    "RPE": pc.RPEJust, "RC": pc.RCJust, "RPC": pc.RPCJust, "RA": pc.RAJust,
}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}

# Justification field -> (document key, JSON type, load, dump).  A spec's
# load also takes the document's group table; the formulas of an axiom's
# params are read each with a table of its own.
_INT = (int, _as_is, _as_is)
_FIELDS = {
    "name": ("name", *_NAME),
    "params": ("params", dict, _load_params, _dump_params),
    "index": ("index", *_INT),
    "premise": ("premise", *_INT),
    "implication": ("implication", *_INT),
    "var": ("var", *_NAME),
    "agent": ("agent", *_NAME),
    "spec": ("spec", dict, _load_spec, _dump_spec),
    "bound": ("r", str, _fraction, str),
    "premises": ("premises", dict, lambda doc, where: tuple(sorted(
        (str(k), _int(v, where)) for k, v in doc.items())), dict),
    "certificate": ("certificate", dict, _load_certificate, _dump_certificate),
}


def _load_just(doc, where, table):
    kind = _need(doc, "kind", str, where)
    if kind == "CON-axiom":
        kind, doc = "axiom", {**doc, "name": "CON"}
    if kind not in _KINDS:
        raise SchemaError(f"{where}: unknown rule name {kind!r}")
    cls = _KINDS[kind]
    values = {}
    for f in dataclasses.fields(cls):
        key, json_type, load, _ = _FIELDS[f.name]
        if f.default is dataclasses.MISSING or key in doc:
            value = _need(doc, key, json_type, where)
            values[f.name] = _load_spec(value, where, table) \
                if load is _load_spec else load(value, where)
    return cls(**values)


def _dump_just(just) -> dict:
    kind = _KIND_OF.get(type(just))
    if kind is None:
        raise TypeError(f"not a justification: {just!r}")
    out = {"kind": kind}
    for f in dataclasses.fields(just):
        value = getattr(just, f.name)
        if f.default is dataclasses.MISSING or value:
            key, _, _, dump = _FIELDS[f.name]
            out[key] = dump(value)
    return out


def load_proof(doc: dict) -> pc.Proof:
    if not isinstance(doc, dict):
        raise SchemaError("proof document must be an object")
    mode = doc.get("mode", pc.MODE_PLAIN)
    if mode not in (pc.MODE_PLAIN, pc.MODE_CON):
        raise SchemaError(f"mode must be plain or con, got {mode!r}")
    table = _Groups()
    hypotheses = _formulas(_need_opt(doc, "hypotheses", list, "proof"),
                           "proof.hypotheses", table)
    steps = []
    for ix, entry in enumerate(_need(doc, "steps", list, "proof")):
        where = f"steps[{ix}]"
        formula = _read_formula(_need(entry, "formula", str, where), table)
        just = _load_just(_need(entry, "just", dict, where), where, table)
        for ref in pc._refs(just):
            if not (0 <= ref < ix):
                raise SchemaError(
                    f"{where}: reference to step {ref} is not an earlier step")
        steps.append(pc.Step(formula, just))
    return pc.Proof(hypotheses, tuple(steps), mode)


def parse_proof(text: str) -> pc.Proof:
    return load_document(text, load_proof, "proof document is not valid JSON")


def proof_to_doc(p: pc.Proof) -> dict:
    return {
        "mode": p.mode,
        "hypotheses": [print_formula(h) for h in p.hypotheses],
        "steps": [{"formula": print_formula(s.formula),
                   "just": _dump_just(s.just)} for s in p.steps],
    }


def proof_to_json(p: pc.Proof) -> str:
    return json_text(proof_to_doc(p)) + "\n"
