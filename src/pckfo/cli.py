"""Command-line front end.

Exit codes are part of the interface:

  0  true / accepted / suite passed / witness found
  1  false / rejected / suite failed / not found within budget
  2  usage error
  3  parse or document-schema error
  4  model failed validation
  5  an event was not measurable
  6  accepted, but only with bounded certificates

Reports are plain text by default, canonical JSON with --json; identical
inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import oracle
from .errors import (
    BudgetError, EvalError, NonSentenceError, NotMeasurable, ParseError,
    PckfoError, SchemaError,
)
from .evaluator import Evaluator
from .model import classify, validate
from .parser import (
    load_model, parse_formula, parse_proof, model_to_doc,
)
from .proofcheck import Proof, check
from .report import (
    ACCEPTED, ACCEPTED_BOUNDED, CheckReport, INVALID, NOT_FOUND, OK, REJECTED,
    SAT, UNSAT_AT_STATE,
)
from .syntax import free_vars

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_MODEL_INVALID = 4
EXIT_NOT_MEASURABLE = 5
EXIT_ACCEPTED_BOUNDED = 6


class _UsageError(PckfoError):
    pass


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _load_validated_model(path):
    doc_text = _read(path)
    try:
        doc = json.loads(doc_text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    m = load_model(doc)
    rep = validate(m)
    return m, rep


def _parse_valuation(text):
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise _UsageError(f"bad valuation entry {piece!r}; use var=value")
        var, value = piece.split("=", 1)
        out[var.strip()] = value.strip()
    return out


def _budget_from(args) -> oracle.SearchBudget:
    grid = oracle.DEFAULT_GRID
    if args.grid:
        try:
            grid = tuple(Fraction(g) for g in args.grid.split(","))
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad grid {args.grid!r}") from None
    return oracle.SearchBudget(
        max_states=args.budget_states,
        max_domain=args.budget_domain,
        max_agents=args.budget_agents,
        weight_grid=grid,
        seed=args.seed,
        sample_mode=args.sample_mode,
        atom_mode=args.atom_mode,
    )


def _emit(report: CheckReport, args) -> None:
    sys.stdout.write(report.to_json() if args.json else report.to_text())


def _write_artifacts(report: CheckReport, out_path) -> None:
    """Write document-valued artifacts (witness models) as replayable files."""
    if not out_path:
        return
    docs = {name: payload for name, payload in report.artifacts.items()
            if isinstance(payload, dict)}
    if not docs:
        return
    out = Path(out_path)
    if len(docs) == 1:
        (_, payload), = docs.items()
        out.write_text(json.dumps(payload, indent=2) + "\n")
        return
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in sorted(docs.items()):
        (out / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    m, rep = _load_validated_model(args.model)
    if not rep.passed:
        _emit(rep, args)
        return EXIT_MODEL_INVALID
    f = parse_formula(args.formula)
    valuation = _parse_valuation(args.valuation)
    missing = sorted(free_vars(f) - set(valuation))
    if missing:
        raise _UsageError(
            f"formula has free variables {missing}; pass --valuation")
    strays = sorted(v for v in valuation.values() if v not in m.domain)
    if strays:
        raise _UsageError(f"valuation values {strays} are not in the domain")
    ev = Evaluator(m)
    if args.state is not None:
        if args.state not in m.states:
            raise _UsageError(f"unknown state {args.state!r}")
        truth = ev.satisfies(args.state, f, valuation)
        report = CheckReport(SAT if truth else UNSAT_AT_STATE)
        report.add(state=args.state, holds=truth, formula=args.formula)
        _emit(report, args)
        return EXIT_TRUE if truth else EXIT_FALSE
    ext = ev.extension(f, valuation)
    all_true = ext.issuperset(m.states)
    report = CheckReport(SAT if all_true else UNSAT_AT_STATE)
    for s in m.states:
        report.add(state=s, holds=s in ext)
    _emit(report, args)
    return EXIT_TRUE if all_true else EXIT_FALSE


def cmd_check_proof(args) -> int:
    proof = parse_proof(_read(args.proof))
    if args.mode is not None:
        proof = Proof(proof.hypotheses, proof.steps, args.mode)
    report = check(proof)
    _emit(report, args)
    if report.verdict == ACCEPTED:
        return EXIT_TRUE
    if report.verdict == ACCEPTED_BOUNDED:
        return EXIT_ACCEPTED_BOUNDED
    return EXIT_FALSE


def cmd_validate(args) -> int:
    _, rep = _load_validated_model(args.model)
    _emit(rep, args)
    return EXIT_TRUE if rep.passed else EXIT_MODEL_INVALID


def cmd_classify(args) -> int:
    m, rep = _load_validated_model(args.model)
    if not rep.passed:
        _emit(rep, args)
        return EXIT_MODEL_INVALID
    flags = classify(m)
    report = CheckReport(OK)
    report.add(flags=sorted(flags),
               note="measurability is checked per probability operator"
                    " during evaluation, not as a class flag")
    _emit(report, args)
    return EXIT_TRUE


def cmd_find(args) -> int:
    f = parse_formula(args.formula)
    budget = _budget_from(args)
    report = oracle.find_model(f, budget)
    _emit(report, args)
    _write_artifacts(report, args.out)
    return EXIT_TRUE if report.verdict == SAT else EXIT_FALSE


_CLASS_AXIOM = {"CON": ("CON",), "OBJ": ("OBJ",),
                "SDP": ("SDP-A",), "UNIF": ("UNIF-A",)}


def cmd_fuzz(args) -> int:
    budget = _budget_from(args)
    if args.klass:
        # the class axiom is fuzzed on targeted models of its own class only
        models = oracle.targeted_class_models(budget, args.klass,
                                              args.class_models)
        report = oracle.fuzz_soundness(budget, args.n,
                                       names=_CLASS_AXIOM[args.klass],
                                       models=models)
    else:
        report = oracle.fuzz_soundness(budget, args.n)
    _emit(report, args)
    _write_artifacts(report, args.out)
    return EXIT_TRUE if report.passed else EXIT_FALSE


def cmd_demo(args) -> int:
    if args.which == "noncompactness":
        report = oracle.noncompactness_demo(args.m)
    else:
        if args.family == "invalid-distribution":
            report = oracle.expected_invalid_counterexample()
        elif args.family in oracle.VALIDITY_FAMILIES:
            budget = oracle.SearchBudget(
                max_states=2, max_domain=1, max_agents=2,
                weight_grid=(Fraction(0), Fraction(1, 2), Fraction(1)),
                sample_mode="full", atom_mode="merged", seed=args.seed)
            extras = oracle.random_models(
                oracle.SearchBudget(
                    max_states=3, max_domain=1, max_agents=2, seed=args.seed,
                    atom_mode="singleton"),
                50, tag="demo-validity")
            report = oracle.validity_suite(args.family, budget, extras)
        else:
            raise _UsageError(f"unknown family {args.family!r}")
    _emit(report, args)
    _write_artifacts(report, args.out)
    return EXIT_TRUE if report.passed else EXIT_FALSE


# ---------------------------------------------------------------------------
# argument plumbing


def _add_budget_flags(p):
    p.add_argument("--budget-states", type=int, default=2)
    p.add_argument("--budget-domain", type=int, default=1)
    p.add_argument("--budget-agents", type=int, default=1)
    p.add_argument("--grid", default=None,
                   help="comma-separated rationals, e.g. 0,1/2,1")
    p.add_argument("--sample-mode", choices=("any", "full"), default="any")
    p.add_argument("--atom-mode", choices=("any", "singleton", "merged"),
                   default="any")
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pckfo",
        description="Evaluate formulas over finite knowledge-probability"
                    " models, verify proofs, and brute-force check validity.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state")
    p.add_argument("--valuation", default="",
                   help="free-variable assignment, e.g. x=d0,y=d1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("check-proof", help="verify a proof document")
    p.add_argument("--proof", required=True)
    p.add_argument("--mode", choices=("plain", "con"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_check_proof)

    p = sub.add_parser("validate", help="check model invariants")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_validate)

    p = sub.add_parser("classify", help="report model class flags")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("find", help="search for a satisfying model")
    p.add_argument("--formula", required=True)
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the witness model here")
    p.set_defaults(run=cmd_find)

    p = sub.add_parser("fuzz", help="soundness-fuzz the axiom schemata")
    p.add_argument("--n", type=int, default=1000)
    _add_budget_flags(p)
    p.add_argument("--class", dest="klass",
                   choices=("CON", "OBJ", "SDP", "UNIF"),
                   help="fuzz one class axiom on targeted models")
    p.add_argument("--class-models", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write counterexample artifacts here")
    p.set_defaults(run=cmd_fuzz)

    p = sub.add_parser("demo", help="run the shipped demonstrations")
    p.add_argument("which", choices=("noncompactness", "validity"))
    p.add_argument("--m", type=int, default=3,
                   help="fragment bound for the noncompactness demo")
    p.add_argument("--family", default="fixed-point",
                   help="validity family, or invalid-distribution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write witness artifacts here")
    p.set_defaults(run=cmd_demo)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotMeasurable as exc:
        print(f"not measurable: {exc}", file=sys.stderr)
        return EXIT_NOT_MEASURABLE
    except NonSentenceError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
