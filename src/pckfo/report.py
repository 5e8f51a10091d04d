"""Structured verdicts shared by validation, proof checking and the oracle."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

# Verdict vocabulary.  Reports always carry one of these strings.
SAT = "sat"
UNSAT_AT_STATE = "unsat-at-state"
VALID_IN_SUITE = "valid-in-suite"
ACCEPTED = "accepted"
ACCEPTED_BOUNDED = "accepted-with-bounded-certificates"
REJECTED = "rejected"
NOT_FOUND = "not-found-within-budget"
OK = "ok"
INVALID = "invalid"

# The exact types the C encoder writes as JSON scalars.  A subclass (of
# dict too) and any other type go through json.dumps.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_DICT = frozenset((dict,))
_ARRAYS = frozenset((list, tuple))


def _encoder(sep, sort_keys):
    """The C encoder with item separator sep and json.dumps's other
    defaults, less the cycle check: what it is given holds no container."""
    return c_make_encoder(None, None, encode_basestring_ascii, None, ": ",
                          sep, sort_keys, False, True)


_SCALAR = c_make_encoder and _encoder(", ", False)


def json_text(value, sort_keys=False) -> str:
    """`json.dumps(value, indent=2, sort_keys=sort_keys)`, byte for byte.

    The walk keeps its own stack.  A container whose children are all
    scalars, and a list of non-empty objects whose values are all scalars,
    is written by one call of the C encoder, whose item separator holds the
    newline and the children's indent; the walk adds the newlines inside
    the brackets and, in a list of objects, between two objects.  That
    boundary is the only `}` + separator + `{` in the encoder's text: with
    `ensure_ascii` a raw newline comes only from a separator, a separator
    inside an object is followed by a key's quote, and no scalar's text
    ends in `}`.

    A value of another type, a key that is not a string, a value nested
    past the recursion limit (a cycle among them) and a platform without
    the C encoder hand the whole value to json.dumps, which writes it or
    raises what it raises."""
    if c_make_encoder is not None:
        encoders = {}   # depth -> the encoder of items at that depth
        out = []
        todo = [(value, 0)]     # texts, and values to write with their depth
        limit = sys.getrecursionlimit()
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            node, depth = item
            cls = type(node)
            if cls is dict:
                if not _STR.issuperset(map(type, node)):
                    break
                children = node.values()
            elif cls in _ARRAYS:
                children = node
            else:
                break
            if depth >= limit:
                break
            if not node:
                out.append("{}" if cls is dict else "[]")
                continue
            outer = "\n" + "  " * depth
            inner = outer + "  "
            sep = "," + inner
            if _SCALARS.issuperset(map(type, children)):
                encode = encoders.get(depth + 1) or encoders.setdefault(
                    depth + 1, _encoder(sep, sort_keys))
                text = "".join(encode(node, 0))
                out += (text[0], inner, text[1:-1], outer, text[-1])
                continue
            if cls is not dict and _DICT.issuperset(map(type, node)) \
                    and all(node) \
                    and _STR.issuperset(map(type, chain.from_iterable(node))) \
                    and _SCALARS.issuperset(map(type, chain.from_iterable(
                        map(dict.values, node)))):
                deeper = sep + "  "
                encode = encoders.get(depth + 2) or encoders.setdefault(
                    depth + 2, _encoder(deeper, sort_keys))
                text = "".join(encode(node, 0)).replace(
                    "}" + deeper + "{", inner + "}" + sep + "{" + deeper[1:])
                out += ("[", inner, "{", deeper[1:], text[2:-2], inner, "}",
                        outer, "]")
                continue
            if cls is dict:
                pairs = [(encode_basestring_ascii(key) + ": ", node[key])
                         for key in (sorted(node) if sort_keys else node)]
                text = "{" + inner
            else:
                pairs = zip(repeat(""), node)
                text = "[" + inner
            pieces = []     # texts and the nested values between them
            for prefix, child in pairs:
                if type(child) is str:
                    text += prefix + encode_basestring_ascii(child) + sep
                elif type(child) in _SCALARS:
                    text += prefix + "".join(_SCALAR(child, 0)) + sep
                else:
                    pieces += (text + prefix, (child, depth + 1))
                    text = sep
            pieces.append(text[:-len(sep)] + outer
                          + ("}" if cls is dict else "]"))
            todo += reversed(pieces)
        else:
            return "".join(out)
    return json.dumps(value, indent=2, sort_keys=sort_keys)


@dataclass
class CheckReport:
    """A verdict plus structured diagnostics and optional witness artifacts.

    `details` is a list of JSON-compatible dicts (one per finding or check);
    `artifacts` maps names to serialized witnesses that can be fed back in.
    """

    verdict: str
    details: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in (SAT, VALID_IN_SUITE, ACCEPTED, ACCEPTED_BOUNDED, OK)

    def add(self, **kv) -> None:
        self.details.append(kv)

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict,
            "details": self.details,
            "artifacts": self.artifacts,
        }
        return json_text(payload, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        for d in self.details:
            parts = [f"{k}={v}" for k, v in d.items()]
            lines.append("  " + " ".join(parts))
        for name in sorted(self.artifacts):
            lines.append(f"  artifact: {name}")
        return "\n".join(lines) + "\n"
