"""Spans and counters around the public functions of each pckfo layer.

`install()` replaces each traced function with a wrapper, in every pckfo
module that binds it (methods on their class), and returns the Tracer.
Every `cli.main` call is a root span. A span's self time is its duration
minus the time its child spans cover. Formula hashes, formula equality
tests and Fraction hashes are counted without timing. Spans stay in memory
(up to SPAN_CAP of them; the aggregates always cover all) and are written
out at the end.
"""

from __future__ import annotations

import fractions
import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import is_dataclass

SPAN_CAP = 200_000

# (module, attribute, span name); a dotted attribute names a method.
TRACED = (
    ("pckfo.cli", "main", "cli.request"),
    ("pckfo.parser", "parse_formula", "parser.parse_formula"),
    ("pckfo.parser", "print_formula", "parser.print_formula"),
    ("pckfo.parser", "model_to_doc", "parser.model_to_doc"),
    ("pckfo.parser", "load_model", "parser.load_model"),
    ("pckfo.parser", "parse_proof", "parser.parse_proof"),
    ("pckfo.model", "Model.successors", "model.successors"),
    ("pckfo.model", "ProbSpace.measure", "model.measure"),
    ("pckfo.model", "validate", "model.validate"),
    ("pckfo.evaluator", "Evaluator.extension", "evaluator.extension"),
    ("pckfo.evaluator", "Evaluator.common_knowledge", "evaluator.common_knowledge"),
    ("pckfo.evaluator", "Evaluator.prob_common_stages",
     "evaluator.prob_common_stages"),
    ("pckfo.syntax", "free_vars", "syntax.free_vars"),
    ("pckfo.axioms", "tautology_check", "axioms.tautology_check"),
    ("pckfo.axioms", "match_axiom", "axioms.match_axiom"),
    ("pckfo.axioms", "instantiate", "axioms.instantiate"),
    ("pckfo.proofcheck", "check", "proofcheck.check"),
    ("pckfo.oracle", "random_axiom_instance", "oracle.random_axiom_instance"),
    ("pckfo.oracle", "holds_everywhere", "oracle.holds_everywhere"),
    ("pckfo.oracle", "random_models", "oracle.random_models"),
)
COUNTERS = ("model.not_measurable", "evaluator.built", "evaluator.fixed_point_rounds",
            "syntax.hash_calls", "syntax.eq_calls", "syntax.fraction_hash_calls",
            "axioms.tautology_check.raised", "oracle.models_enumerated",
            "parser.proof_bytes", "proofcheck.steps", "oracle.attempts",
            "oracle.skipped_not_measurable")


class Tracer:
    def __init__(self):
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.count = dict.fromkeys(COUNTERS, 0)
        self.stack = []          # [span id, child seconds] of open spans
        self.spans = []          # (id, parent, request, name, start, seconds)
        self.dropped = 0
        self.next_id = 0
        self.request = None      # id of the request being traced
        self._request_start = 0.0
        self._enumerated_before = 0
        self.enumerating = 0.0   # duration of requests that enumerated models
        self._undo = []

    # -- spans

    def _open(self):
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        self.stack.append([self.next_id, 0.0])
        return parent

    def _close(self, name, parent, start, seconds):
        sid, child = self.stack.pop()
        rec = self.agg[name]
        rec[0] += 1
        rec[1] += seconds
        rec[2] += seconds - child
        if self.stack:
            self.stack[-1][1] += seconds
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self.request, name, start, seconds))
        else:
            self.dropped += 1

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, parent, start, time.perf_counter() - start)
                if after:
                    after(args, None, exc)
                raise
            self._close(name, parent, start, time.perf_counter() - start)
            if after:
                after(args, out, None)
            return out
        return traced

    def wrap_generator(self, name, fn):
        """Time each step of the generator as a span and count its items."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            step = tracer.wrap(name, inner.__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                tracer.count["oracle.models_enumerated"] += 1
                yield item
        return traced

    # -- per-function extras

    def _after(self, name):
        count = self.count
        if name == "model.measure":
            def after(args, out, exc):
                if exc is not None:
                    count["model.not_measurable"] += 1
        elif name == "evaluator.prob_common_stages":
            def after(args, out, exc):
                if out is not None:
                    count["evaluator.fixed_point_rounds"] += len(out) - 1
        elif name == "axioms.tautology_check":
            def after(args, out, exc):
                if exc is not None:
                    count["axioms.tautology_check.raised"] += 1
        elif name == "parser.parse_proof":
            def after(args, out, exc):
                count["parser.proof_bytes"] += len(args[0].encode())
        elif name == "proofcheck.check":
            def after(args, out, exc):
                count["proofcheck.steps"] += len(args[0].steps)
        else:
            after = None
        return after

    # -- installation

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname == "pckfo" or modname.startswith("pckfo."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, replacement)

    def install(self):
        for modname, attr, name in TRACED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth],
                                                self._after(name)))
            else:
                original = getattr(mod, attr)
                self._patch_everywhere(original, self.wrap(name, original,
                                                           self._after(name)))
        oracle = sys.modules["pckfo.oracle"]
        self._patch_everywhere(oracle.enumerate_models, self.wrap_generator(
            "oracle.enumerate", oracle.enumerate_models))

        evaluator_cls = sys.modules["pckfo.evaluator"].Evaluator
        self._set(evaluator_cls, "__init__",
                  self._counting(evaluator_cls.__init__, "evaluator.built"))
        syntax = sys.modules["pckfo.syntax"]
        for value in list(vars(syntax).values()):
            if isinstance(value, type) and is_dataclass(value) \
                    and value.__module__ == syntax.__name__:
                if "__hash__" in value.__dict__ and value.__hash__ is not None:
                    self._set(value, "__hash__",
                              self._counting(value.__hash__, "syntax.hash_calls"))
                self._set(value, "__eq__",
                          self._counting(value.__eq__, "syntax.eq_calls"))
        frac = fractions.Fraction
        self._set(frac, "__hash__",
                  self._counting(frac.__hash__, "syntax.fraction_hash_calls"))
        return self

    def _counting(self, fn, key):
        count = self.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return counted

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- requests

    def begin_request(self, rid):
        self.request = rid
        self._enumerated_before = self.count["oracle.models_enumerated"]
        self._request_start = time.perf_counter()

    def end_request(self, stdout):
        if self.count["oracle.models_enumerated"] > self._enumerated_before:
            self.enumerating += time.perf_counter() - self._request_start
        try:
            details = json.loads(stdout).get("details", [])
        except ValueError:
            return
        for d in details:
            if "skipped_not_measurable" not in d:
                continue
            # A validity suite tries every instance on every model; a fuzz
            # report's instances are its attempts.
            attempts = d["instances"]
            if "family" in d:
                attempts *= d["models"]
            self.count["oracle.attempts"] += attempts
            self.count["oracle.skipped_not_measurable"] += d["skipped_not_measurable"]

    # -- output

    def summary(self) -> dict:
        out = {}
        for _, _, name in TRACED + ((None, None, "oracle.enumerate"),):
            calls, total, own = self.agg[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
        out.update(self.count)
        out["enumerating_s"] = self.enumerating
        out["spans"] = self.next_id
        out["spans_dropped"] = self.dropped
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\trequest\tname\tstart_s\tseconds\n")
            for row in self.spans:
                fh.write("\t".join(str(x) for x in row) + "\n")


def install() -> Tracer:
    return Tracer().install()
