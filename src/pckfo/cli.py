"""Command-line front end.

Exit codes are part of the interface:

  0  true / accepted / suite passed / witness found
  1  false / rejected / suite failed / not found within budget
  2  usage error
  3  parse or document-schema error
  4  model failed validation
  5  an event was not measurable
  6  accepted, but only with bounded certificates

Each subcommand returns its `CheckReport`.  `main` alone ends a run: it
writes any `--out` artifacts, prints the report and decides every exit
code from two tables, `EXIT_OF_VERDICT` for a report and `EXIT_OF_ERROR`
for an error; argparse's own usage errors exit 2.

Reports are plain text by default, canonical JSON with --json; identical
inputs and seeds produce byte-identical output.

`COMMANDS` is the one description of the subcommands and their flags.
`main` reads an ordinary argv against it in one loop.  The argparse parser
is built from the same table only for help and for the argv the table does
not take (errors, abbreviations, values starting with -), so usage text,
messages and exit 2 are argparse's own.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import oracle
from .errors import (
    BudgetError, EvalError, NonSentenceError, NotMeasurable, ParseError,
    PckfoError, SchemaError,
)
from .evaluator import Evaluator
from .model import classify, validate
from .parser import load_document, load_model, parse_formula, parse_proof
from .proofcheck import Proof, check
from .report import (
    ACCEPTED, ACCEPTED_BOUNDED, CheckReport, INVALID, NOT_FOUND, OK, REJECTED,
    SAT, UNSAT_AT_STATE, VALID_IN_SUITE, json_text,
)
from .syntax import free_vars


class _UsageError(PckfoError):
    pass


EXIT_OF_VERDICT = {
    SAT: 0, VALID_IN_SUITE: 0, ACCEPTED: 0, OK: 0,
    UNSAT_AT_STATE: 1, REJECTED: 1, NOT_FOUND: 1,
    INVALID: 4,
    ACCEPTED_BOUNDED: 6,
}

# (error class, stderr label, exit code); the first matching row wins.
EXIT_OF_ERROR = (
    ((_UsageError, NonSentenceError), "usage error", 2),
    ((ParseError, SchemaError), "parse error", 3),
    (NotMeasurable, "not measurable", 5),
    (BudgetError, "budget error", 2),
    (EvalError, "evaluation error", 2),
)


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def _load_validated_model(path):
    m = load_document(_read(path), load_model, f"{path}: not valid JSON")
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


def _write_artifacts(report: CheckReport, out_path) -> None:
    """Write document-valued artifacts (witness models) as replayable files."""
    if not out_path:
        return
    docs = {name: payload for name, payload in report.artifacts.items()
            if isinstance(payload, dict)}
    if not docs:
        return
    out = Path(out_path)
    try:
        if len(docs) == 1:
            (_, payload), = docs.items()
            out.write_text(json_text(payload) + "\n")
            return
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in sorted(docs.items()):
            (out / f"{name}.json").write_text(
                json_text(payload) + "\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {out_path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> CheckReport:
    m, rep = _load_validated_model(args.model)
    if not rep.passed:
        return rep
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
        return report
    ext = ev.extension(f, valuation)
    report = CheckReport(SAT if ext.issuperset(m.states) else UNSAT_AT_STATE)
    for s in m.states:
        report.add(state=s, holds=s in ext)
    return report


def cmd_check_proof(args) -> CheckReport:
    proof = parse_proof(_read(args.proof))
    if args.mode is not None:
        proof = Proof(proof.hypotheses, proof.steps, args.mode)
    return check(proof)


def cmd_validate(args) -> CheckReport:
    return _load_validated_model(args.model)[1]


def cmd_classify(args) -> CheckReport:
    m, rep = _load_validated_model(args.model)
    if not rep.passed:
        return rep
    report = CheckReport(OK)
    report.add(flags=sorted(classify(m)),
               note="measurability is checked per probability operator"
                    " during evaluation, not as a class flag")
    return report


def cmd_find(args) -> CheckReport:
    return oracle.find_model(parse_formula(args.formula), _budget_from(args))


_CLASS_AXIOM = {"CON": ("CON",), "OBJ": ("OBJ",),
                "SDP": ("SDP-A",), "UNIF": ("UNIF-A",)}


def cmd_fuzz(args) -> CheckReport:
    budget = _budget_from(args)
    if not args.klass:
        return oracle.fuzz_soundness(budget, args.n)
    # the class axiom is fuzzed on targeted models of its own class only
    models = oracle.targeted_class_models(budget, args.klass,
                                          args.class_models)
    return oracle.fuzz_soundness(budget, args.n,
                                 names=_CLASS_AXIOM[args.klass],
                                 models=models)


def cmd_demo(args) -> CheckReport:
    if args.which == "noncompactness":
        return oracle.noncompactness_demo(args.m)
    if args.family == "invalid-distribution":
        return oracle.expected_invalid_counterexample()
    if args.family not in oracle.VALIDITY_FAMILIES:
        raise _UsageError(f"unknown family {args.family!r}")
    budget = oracle.SearchBudget(
        max_states=2, max_domain=1, max_agents=2,
        weight_grid=(Fraction(0), Fraction(1, 2), Fraction(1)),
        sample_mode="full", atom_mode="merged", seed=args.seed)
    extras = oracle.random_models(
        oracle.SearchBudget(
            max_states=3, max_domain=1, max_agents=2, seed=args.seed,
            atom_mode="singleton"),
        50, tag="demo-validity")
    return oracle.validity_suite(
        args.family, budget,
        models=itertools.chain(oracle.enumerate_models(budget), extras))


# ---------------------------------------------------------------------------
# argument plumbing


@dataclass(frozen=True)
class Flag:
    """One flag of a subcommand; a name without dashes is a positional.
    A `bool` flag takes no value and is set by its presence."""
    name: str
    type: type = str
    default: object = None
    choices: tuple = None
    required: bool = False
    help: str = None
    dest: str = None

    def __post_init__(self):
        if self.dest is None:
            object.__setattr__(self, "dest",
                               self.name.lstrip("-").replace("-", "_"))


@dataclass(frozen=True)
class Command:
    run: object
    help: str
    flags: tuple


_JSON = Flag("--json", bool, False)
_BUDGET = (
    Flag("--budget-states", int, 2),
    Flag("--budget-domain", int, 1),
    Flag("--budget-agents", int, 1),
    Flag("--grid", help="comma-separated rationals, e.g. 0,1/2,1"),
    Flag("--sample-mode", choices=("any", "full"), default="any"),
    Flag("--atom-mode", choices=("any", "singleton", "merged"),
         default="any"),
    Flag("--seed", int, 0),
)
_MODEL = Flag("--model", required=True)

COMMANDS = {
    "eval": Command(cmd_eval, "evaluate a formula on a model", (
        _MODEL,
        Flag("--formula", required=True),
        Flag("--state"),
        Flag("--valuation", default="",
             help="free-variable assignment, e.g. x=d0,y=d1"),
        _JSON)),
    "check-proof": Command(cmd_check_proof, "verify a proof document", (
        Flag("--proof", required=True),
        Flag("--mode", choices=("plain", "con")),
        _JSON)),
    "validate": Command(cmd_validate, "check model invariants",
                        (_MODEL, _JSON)),
    "classify": Command(cmd_classify, "report model class flags",
                        (_MODEL, _JSON)),
    "find": Command(cmd_find, "search for a satisfying model", (
        Flag("--formula", required=True),
        *_BUDGET,
        _JSON,
        Flag("--out", help="write the witness model here"))),
    "fuzz": Command(cmd_fuzz, "soundness-fuzz the axiom schemata", (
        Flag("--n", int, 1000),
        *_BUDGET,
        Flag("--class", dest="klass", choices=("CON", "OBJ", "SDP", "UNIF"),
             help="fuzz one class axiom on targeted models"),
        Flag("--class-models", int, 50),
        _JSON,
        Flag("--out", help="write counterexample artifacts here"))),
    "demo": Command(cmd_demo, "run the shipped demonstrations", (
        Flag("which", choices=("noncompactness", "validity"), required=True),
        Flag("--m", int, 3, help="fragment bound for the noncompactness demo"),
        Flag("--family", default="fixed-point",
             help="validity family, or invalid-distribution"),
        Flag("--seed", int, 0),
        _JSON,
        Flag("--out", help="write witness artifacts here"))),
}


def build_parser():
    """The argparse parser of `COMMANDS`, for help text and for every argv
    that `_from_table` leaves to it."""
    import argparse
    top = argparse.ArgumentParser(
        prog="pckfo",
        description="Evaluate formulas over finite knowledge-probability"
                    " models, verify proofs, and brute-force check validity.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for f in command.flags:
            if f.type is bool:
                p.add_argument(f.name, dest=f.dest, action="store_true",
                               help=f.help)
            elif f.name.startswith("-"):
                p.add_argument(f.name, dest=f.dest, type=f.type,
                               default=f.default, choices=f.choices,
                               required=f.required, help=f.help)
            else:
                p.add_argument(f.name, type=f.type, choices=f.choices,
                               help=f.help)
        p.set_defaults(run=command.run)
    return top


def _from_table(argv):
    """The namespace argparse would build for argv, or None where argv
    needs argparse: help, errors, and any spelling but `--flag value` and
    `--flag=value` with exact flag names and values not starting with -."""
    if not argv or "-h" in argv or "--help" in argv:
        return None
    command = COMMANDS.get(argv[0])
    if command is None:
        return None
    by_name = {f.name: f for f in command.flags}
    positional = [f for f in command.flags if not f.name.startswith("-")]
    values = {}
    i = 1
    while i < len(argv):
        arg = argv[i]
        i += 1
        if not arg.startswith("-"):
            if not positional:
                return None
            f, value = positional.pop(0), arg
        else:
            name, eq, value = arg.partition("=")
            f = by_name.get(name)
            if f is None or (f.type is bool and eq):
                return None
            if f.type is bool:
                values[f.dest] = True
                continue
            if not eq:
                if i == len(argv):
                    return None
                value = argv[i]
                i += 1
            if value.startswith("-"):
                return None
        try:
            value = f.type(value)
        except (TypeError, ValueError):
            return None
        if f.choices is not None and value not in f.choices:
            return None
        values[f.dest] = value
    args = {"command": argv[0]}
    for f in command.flags:
        if f.dest not in values and f.required:
            return None
        args[f.dest] = values.get(f.dest, f.default)
    args["run"] = command.run
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _from_table(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        report = args.run(args)
        _write_artifacts(report, getattr(args, "out", None))
    except PckfoError as exc:
        for cls, label, code in EXIT_OF_ERROR:
            if isinstance(exc, cls):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OF_VERDICT[report.verdict]


if __name__ == "__main__":
    sys.exit(main())
