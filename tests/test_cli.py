import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pckfo
from pckfo import axioms as ax, cli, report
from pckfo.cli import main
from pckfo.errors import (
    BudgetError, EvalError, NonSentenceError, NotMeasurable, ParseError,
    SchemaError,
)
from pckfo.evaluator import satisfies
from pckfo.model import validate
from pckfo.parser import load_model, parse_formula, proof_to_doc, proof_to_json
from pckfo.proofcheck import ProofBuilder
from pckfo.prooflib import fixed_point_proof
from pckfo.report import CheckReport, OK
from pckfo.syntax import Atom


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _parity(names):
    """Exclusive or of the atoms, as a chain of negated biconditionals."""
    text = names[0]
    for name in names[1:]:
        text = f"!({text} <-> {name})"
    return text


@pytest.fixture()
def chain(fixtures_dir):
    return str(fixtures_dir / "models" / "chain3.json")


@pytest.fixture()
def tiny(fixtures_dir):
    return str(fixtures_dir / "models" / "tiny.json")


class TestEval:
    def test_always_probable(self, tiny):
        code, out = run("eval", "--model", tiny, "--formula", "P[a]>=0 p")
        assert code == 0
        assert "verdict: sat" in out

    def test_common_knowledge_fails_at_chain_head(self, chain):
        code, out = run("eval", "--model", chain, "--formula", "C{G} p",
                        "--state", "s0")
        assert code == 1
        assert "unsat-at-state" in out

    def test_per_state_rows(self, chain):
        code, out = run("eval", "--model", chain, "--formula", "p")
        assert code == 1  # false at the last chain state
        assert out.count("state=") == 3

    def test_unknown_state_is_usage_error(self, chain):
        code, _ = run("eval", "--model", chain, "--formula", "p",
                      "--state", "zz")
        assert code == 2

    def test_free_variable_needs_valuation(self, fixtures_dir):
        model = str(fixtures_dir / "models" / "functions.json")
        code, _ = run("eval", "--model", model, "--formula", "R(x)")
        assert code == 2
        code, out = run("eval", "--model", model, "--formula", "R(x)",
                        "--valuation", "x=d1", "--state", "s0")
        assert code == 0

    def test_parse_error_exit(self, tiny):
        code, _ = run("eval", "--model", tiny, "--formula", "p &")
        assert code == 3

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_prefix_chain_answers(self, chain):
        code, out = run("eval", "--model", chain, "--formula",
                        "K[a] " * 499 + "p", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "sat"
        # ten times past the depth of 500 the parser once stopped at
        assert run("eval", "--model", chain, "--formula",
                   "K[a] " * 5000 + "p", "--json") == (code, out)

    def test_find_prints_deep_prefix_chain(self):
        text = "K[a] " * 499 + "p"
        code, out = run("find", "--formula", text, "--budget-states", "1")
        assert code == 0
        assert f"formula={text} state=" in out

    # Formulas far deeper than the interpreter's recursion limit answer as
    # a shallow formula of the same meaning does on the same model.  On
    # functions.json every f(...(c)...) denotes d1.
    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("model, text, shallow, code", [
        ("chain3", " & ".join(["p"] * 2000), "p", 1),
        ("chain3", "(" + "K[a] " * 450 + "p) & (" + "K[a] " * 450 + "p)",
         "K[a] K[a] K[a] p", 0),
        ("functions", " & ".join(["R(" + "f(" * 300 + "c" + ")" * 301] * 2),
         "R(f(c))", 1),
        ("functions", "R(" + "f(" * 498 + "c" + ")" * 499, "R(f(c))", 1),
        ("functions", "R(" + "f(" * 5000 + "c" + ")" * 5001, "R(f(c))", 1),
    ], ids=["conjuncts", "knows-chains", "terms", "deepest-term",
            "term-5000"])
    def test_eval_deep_formula(self, fixtures_dir, model, text, shallow,
                               code):
        model = str(fixtures_dir / "models" / f"{model}.json")
        got = run("eval", "--model", model, "--formula", text)
        assert got == run("eval", "--model", model, "--formula", shallow)
        assert got[0] == code

    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("text, printed", [
        (" & ".join(["p"] * 1200), " & ".join(["p"] * 1200)),
        (" -> ".join(["p"] * 601), "!(p & !" * 600 + "p" + ")" * 600)],
        ids=["conjuncts", "implications"])
    def test_find_deep_formula(self, text, printed):
        code, out = run("find", "--formula", text, "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] == "sat"
        assert rep["details"][0]["formula"] == printed
        assert parse_formula(printed) == parse_formula(text)

    def test_check_proof_deep_fo2_step(self, tmp_path):
        phi = " & ".join(["R(x)"] * 1500)
        path = tmp_path / "fo2.json"
        path.write_text(json.dumps({"hypotheses": [], "steps": [
            {"formula": f"(forall x ({phi})) -> ({phi.replace('x', 'c')})",
             "just": {"kind": "axiom", "name": "FO2"}}]}))
        code, out = run("check-proof", "--proof", str(path))
        assert code == 0
        assert out.startswith("verdict: accepted")

    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("params", [False, True],
                             ids=["guessed", "params"])
    def test_check_proof_deep_fo2_term_rejected(self, tmp_path, params):
        # y is captured, so FO2 does not apply; the side-condition message
        # prints the 450-deep term while the step is matched
        t = "f(" * 450 + "y" + ")" * 450
        just = {"kind": "axiom", "name": "FO2"}
        if params:
            just["params"] = {"x": "x", "phi": "forall y R(x,y)", "term": t}
        path = tmp_path / "fo2.json"
        path.write_text(json.dumps({"hypotheses": [], "steps": [
            {"formula": f"(forall x (forall y R(x,y))) -> (forall y R({t},y))",
             "just": just}]}))
        assert run("check-proof", "--proof", str(path)) == (
            1, "verdict: rejected\n  step=0 problem=formula is not an"
               " instance of FO2\n  theorem_steps=[False]\n")

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_check_proof_apc_stage_199(self, tmp_path):
        # the stage formula nests one Es{G,r} layer per stage
        out = ProofBuilder()
        out.axiom(ax.APC, {"group": ("a", "b"), "r": Fraction(1, 2),
                           "m": 199, "phi": Atom("p")})
        path = tmp_path / "apc.json"
        path.write_text(proof_to_json(out.build()))
        assert run("check-proof", "--proof", str(path)) == \
            (0, "verdict: accepted\n  theorem_steps=[True]\n")

    def test_check_proof_deep_prop_term(self, tmp_path):
        t = "f(" * 450 + "c" + ")" * 450
        path = tmp_path / "prop.json"
        path.write_text(json.dumps({"hypotheses": [], "steps": [
            {"formula": f"(R({t})) -> (R({t}))",
             "just": {"kind": "axiom", "name": "Prop"}}]}))
        assert run("check-proof", "--proof", str(path)) == \
            (0, "verdict: accepted\n  theorem_steps=[True]\n")

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_parentheses_exit(self, chain):
        code, out = run("eval", "--model", chain, "--formula",
                        "!(" * 200 + "p" + ")" * 200, "--json")
        assert code == 1
        assert json.loads(out)["verdict"] == "unsat-at-state"
        # ten times past the 200 levels the parser once stopped at
        assert run("eval", "--model", chain, "--formula",
                   "!(" * 5000 + "p" + ")" * 5000, "--json") == (code, out)

    def test_not_measurable_exit(self, tmp_path, tiny):
        doc = json.loads(open(tiny).read())
        doc["states"] = ["s0", "s1"]
        doc["relations"] = [{"symbol": "p", "arity": 0,
                             "table": {"s0": [[]], "s1": []}}]
        doc["prob"] = {"a": {"s0": {"sample": ["s0", "s1"],
                                    "atoms": [["s0", "s1"]],
                                    "weights": {"0": "1"}}}}
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(doc))
        code, _ = run("eval", "--model", str(path),
                      "--formula", "P[a]>=1/2 p", "--state", "s0")
        assert code == 5


class TestValidateClassify:
    def test_validate_ok(self, tiny):
        code, out = run("validate", "--model", tiny)
        assert code == 0 and "verdict: ok" in out

    def test_validate_broken_weights(self, tmp_path, tiny):
        doc = json.loads(open(tiny).read())
        doc["prob"]["a"]["s0"]["weights"] = {"0": "3/4"}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out = run("validate", "--model", str(path))
        assert code == 4
        assert "not normalized" in out

    @pytest.mark.parametrize("arity, problem", [
        (30_000_000, "table not total: 2 of 2**30000000 rows"),
        (-1, "negative arity -1"),
    ], ids=["huge", "negative"])
    def test_bad_function_arity_exits_4(self, tmp_path, fixtures_dir,
                                        arity, problem):
        doc = json.loads((fixtures_dir / "models" / "functions.json")
                         .read_text())
        doc["functions"][1]["arity"] = arity
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["eval", "--formula", "p"]):
            code, out = run(*argv, "--model", str(path))
            assert code == 4
            assert "verdict: invalid" in out and problem in out

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["states"].append(["s1"]),
        lambda doc: doc["access"]["a"].append([["x"], "s0"]),
        lambda doc: doc["prob"]["a"]["s0"].update(atoms=[[["s0"]]]),
        lambda doc: doc["agents"].append(["b"]),
        lambda doc: doc["domain"].append(["d1"]),
        lambda doc: doc["relations"].append(
            {"symbol": "R", "arity": 1, "table": {"s0": [[["d0"]]]}}),
    ], ids=["state", "edge-endpoint", "atom-member", "agent", "element",
            "relation-row"])
    def test_non_string_name_is_schema_error(self, tmp_path, tiny, edit):
        doc = json.loads(open(tiny).read())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("validate", "--model", str(path))[0] == 3

    @pytest.mark.parametrize("edit, message", [
        ('"atoms": [["s0", 5], ["s1"]]', "atoms must be lists of state names"),
        ('"atoms": [["s0"], [null]]', "atoms must be lists of state names"),
        ('"atoms": ["s0", "s1"]', "atoms must be lists of state names"),
        ('"weights": {"0": 0.50000000000000001, "1": "1/2"}',
         "weight 0.5 is a JSON float, which is not exact; write it as a"
         " string"),
    ], ids=["int-member", "null-member", "string-atoms", "float-weight"])
    def test_malformed_space_is_schema_error(self, tmp_path, edit, message):
        space = {"sample": '"sample": ["s0", "s1"]',
                 "atoms": '"atoms": [["s0"], ["s1"]]',
                 "weights": '"weights": {"0": "1/2", "1": "1/2"}'}
        space[edit[1:edit.index('"', 1)]] = edit
        path = tmp_path / "bad.json"
        path.write_text(
            '{"states": ["s0", "s1"], "domain": ["d0"], "agents": ["a"],'
            ' "prob": {"a": {"s0": {%s}}}}' % ", ".join(space.values()))
        for argv in (["validate"], ["eval", "--formula", "P[a]>=1/2 p"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main([*argv, "--model", str(path)])
            assert code == 3
            assert err.getvalue() == f"parse error: prob.a.s0: {message}\n"

    def test_classify_con_model(self, fixtures_dir):
        code, out = run("classify", "--model",
                        str(fixtures_dir / "models" / "con.json"))
        assert code == 0
        assert "CON" in out

    def test_classify_noncon(self, fixtures_dir):
        code, out = run("classify", "--model",
                        str(fixtures_dir / "models" / "noncon.json"), "--json")
        assert code == 0
        flags = json.loads(out)["details"][0]["flags"]
        assert "CON" not in flags


class TestCheckProof:
    def test_shipped_artifacts(self, fixtures_dir):
        proofs = fixtures_dir / "proofs"
        code, out = run("check-proof", "--proof",
                        str(proofs / "k_distribution.json"))
        assert code == 0 and "verdict: accepted" in out
        code, out = run("check-proof", "--proof",
                        str(proofs / "group_pair.json"))
        assert code == 0
        code, out = run("check-proof", "--proof",
                        str(proofs / "fixed_point.json"))
        assert code == 6
        assert "accepted-with-bounded-certificates" in out

    @pytest.mark.parametrize("doc", [
        {"steps": [1]},
        {"steps": [{"formula": "p", "just": {
            "kind": "axiom", "name": "AC", "params": {"m": "x"}}}]},
        {"steps": [{"formula": "p", "just": {
            "kind": "RE", "spec": {"k": 0, "thetas": ["p"], "guards": []},
            "premises": {"a": "zz"}}}]},
        {"steps": [{"formula": "p", "just": {
            "kind": "axiom", "name": "AE", "params": {"group": 3}}}]},
        {"steps": [{"formula": "p", "just": {
            "kind": "axiom", "name": "P1", "params": {"phi": 3}}}]},
        # a certificate index spelled otherwise than `str` spells it
        *[{"steps": [
            {"formula": "p -> p", "just": {"kind": "axiom", "name": "Prop"}},
            {"formula": "p", "just": {
                "kind": "RC", "spec": {"k": 0, "thetas": ["p"], "guards": []},
                "certificate": {"bound": 1, "premises": {key: 0}}}}]}
          for key in (" 1", "+1", "1_0", "0010", "\uff11")],
    ], ids=["step-not-object", "axiom-param-m", "premise-step",
            "axiom-param-group", "axiom-param-phi", "index-space",
            "index-plus", "index-underscore", "index-zeros",
            "index-fullwidth"])
    def test_malformed_document_is_schema_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("check-proof", "--proof", str(path))[0] == 3

    def test_float_m_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"steps": [{"formula": "p", "just": {
            "kind": "axiom", "name": "AC",
            "params": {"group": ["a"], "m": 2.7, "phi": "p"}}}]}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["check-proof", "--proof", str(path)])
        assert code == 3
        assert err.getvalue() == "parse error: steps[0]: bad integer 2.7\n"

    @pytest.mark.parametrize("doc, message", [
        ({"hypotheses": [1], "steps": []},
         "proof.hypotheses[0]: expected formula text, got 1"),
        ({"steps": [{"formula": "p", "just": {
            "kind": "RE", "spec": {"k": 1, "thetas": ["p", ["q"]],
                                   "guards": []},
            "premises": {}}}]},
         "steps[0].thetas[1]: expected formula text, got ['q']"),
    ], ids=["hypothesis", "theta"])
    def test_non_string_formula_is_schema_error(self, tmp_path, doc,
                                                message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["check-proof", "--proof", str(path)])
        assert (code, err.getvalue()) == (3, f"parse error: {message}\n")

    @pytest.mark.usefixtures("default_recursion_limit")
    @pytest.mark.parametrize("argv, lead", [
        (["check-proof", "--proof"], "proof document is not valid JSON"),
        (["validate", "--model"], "{path}: not valid JSON"),
    ], ids=["proof", "model"])
    def test_json_too_deep_to_decode_is_schema_error(self, tmp_path, argv,
                                                     lead):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        lead = lead.format(path=path)
        assert (code, err.getvalue()) == \
            (3, f"parse error: {lead}: nested too deeply to decode\n")

    def test_rp_rejected_in_con_mode(self, tmp_path):
        doc = {
            "hypotheses": [],
            "steps": [
                {"formula": "p -> p", "just": {"kind": "axiom", "name": "Prop"}},
                {"formula": "P[a]>=1 (p -> p)",
                 "just": {"kind": "RP", "premise": 0, "agent": "a"}},
            ],
        }
        path = tmp_path / "rp.json"
        path.write_text(json.dumps(doc))
        assert run("check-proof", "--proof", str(path))[0] == 0
        code, out = run("check-proof", "--proof", str(path), "--mode", "con")
        assert code == 1 and "rejected" in out


class TestFindFuzzDemo:
    def test_find_writes_replayable_witness(self, tmp_path):
        out_path = tmp_path / "witness.json"
        code, _ = run("find", "--formula", "p & !K[a] p",
                      "--budget-states", "2", "--grid", "1",
                      "--out", str(out_path))
        assert code == 0
        m = load_model(json.loads(out_path.read_text()))
        assert validate(m).passed
        assert any(satisfies(m, s, parse_formula("p & !K[a] p"))
                   for s in m.states)

    def test_find_miss_exit(self):
        code, out = run("find", "--formula", "p & !p",
                        "--budget-states", "1", "--grid", "1")
        assert code == 1
        assert "not-found-within-budget" in out

    def test_fuzz_deterministic_output(self):
        args = ("fuzz", "--n", "40", "--seed", "7", "--budget-states", "2",
                "--atom-mode", "singleton", "--json")
        code1, out1 = run(*args)
        code2, out2 = run(*args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_fuzz_bytes_independent_of_hash_seed(self, tmp_path):
        src = str(Path(pckfo.__file__).resolve().parents[1])
        atoms = [("K[a] r{}", "P[b]>=1/2 r{}", "r{}")[k % 3].format(k)
                 for k in range(20)]
        names = [f"r{k}" for k in range(10)]
        prop_steps = [
            f"({' & '.join(atoms)}) -> {atoms[6]}",
            f"{_parity(names)} <-> {_parity(names[::-1])}",
            f"({' & '.join(atoms[:12])}) -> ({atoms[12]} | {atoms[13]})",
        ]
        proof = tmp_path / "prop.json"
        proof.write_text(json.dumps({"steps": [
            {"formula": f, "just": {"kind": "axiom", "name": "Prop"}}
            for f in prop_steps]}))
        commands = (
            (["fuzz", "--n", "200", "--seed", "7", "--json"], 0),
            (["demo", "validity", "--family", "fixed-point", "--json"], 0),
            (["demo", "validity", "--family", "probabilistic-monotonicity",
              "--json"], 0),
            (["find", "--formula", "P[a]>=1/2 p & !P[a]>=1 p & !K[a] q",
              "--json"], 0),
            (["check-proof", "--proof", str(proof), "--json"], 1),
        )
        for argv, code in commands:
            outs = set()
            for seed in ("0", "1", "3", "5"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                proc = subprocess.run(
                    [sys.executable, "-m", "pckfo.cli", *argv],
                    env=env, capture_output=True, timeout=120)
                assert proc.returncode == code, proc.stderr
                outs.add(proc.stdout)
            assert len(outs) == 1, argv

    def test_fuzz_at_criterion_1_shape(self):
        code, out = run("fuzz", "--budget-states", "3", "--budget-domain", "2",
                        "--budget-agents", "2", "--atom-mode", "singleton",
                        "--grid", "0,1/2,1", "--n", "200", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "valid-in-suite"

    def test_find_miss_outside_signature(self):
        code, out = run("find", "--formula", "K[b] p", "--json")
        assert code == 1
        rep = json.loads(out)
        assert rep["verdict"] == "not-found-within-budget"
        assert rep["details"][0]["models_checked"] == 25608

    @pytest.mark.parametrize("grid", ["0,1/2,1", "0,1/2,1/2,1"])
    def test_find_counts_each_grid_value_once(self, grid):
        code, out = run("find", "--formula", "p & !p", "--grid", grid,
                        "--json")
        assert code == 1
        assert json.loads(out)["details"][0]["models_checked"] == 9224

    @pytest.mark.parametrize("grid", ["1/2", "1,1", "3/4,1"])
    def test_fuzz_grid_too_small_is_budget_error(self, grid):
        # P2 needs r < t on the grid and P5 needs r + t <= 1.
        assert run("fuzz", "--n", "20", "--grid", grid) == (2, "")

    @pytest.mark.parametrize("argv, what", [
        (["--n", "1" + "0" * 30], "fuzz count 1" + "0" * 30),
        (["--n", "200001"], "fuzz count 200001"),
        (["--class", "CON", "--class-models", "1" + "0" * 30],
         "class model count 1" + "0" * 30),
        (["--class", "UNIF", "--n", "10", "--class-models", "200001"],
         "class model count 200001"),
    ], ids=["n-overflow", "n", "class-models-overflow", "class-models"])
    def test_fuzz_count_over_model_cap_is_budget_error(self, argv, what):
        # rejected before any instance or model is made
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fuzz", *argv])
        assert (code, out.getvalue()) == (2, "")
        ask = "instances" if what.startswith("fuzz") else "models"
        assert err.getvalue() == (f"budget error: {what} is over the cap of"
                                  f" 200000; ask for fewer {ask}\n")

    _CAP = "enumeration space has more than the cap of 200000 models"
    # bot reads no coordinate, so every shape is one model, but the labelled
    # models before 57 states have 4 300 digits or more
    _COUNT = ("the models of fewer than 57 states are too many to count in a"
              " report (10^4300 or more)")

    @pytest.mark.parametrize("states, argv, what", [
        ("80", ["p"], _CAP), ("300", ["p"], _CAP),
        ("80", ["bot"], _COUNT), ("300", ["bot"], _COUNT),
        # a space only over all 300 states, each its own atom of weight
        # 1/300: one model, found without listing the others' spaces
        ("300", ["bot", "--grid", "1/300", "--sample-mode", "full"],
         "the count of models checked has more than 4300 digits"),
    ], ids=["cap-80", "cap-300", "count-80", "count-300", "one-space-300"])
    def test_find_many_states_is_budget_error(self, states, argv, what):
        # refused from counts: no count past the cap or too long to print
        # is made, and no shape that large is built
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["find", "--budget-states", states, "--formula",
                         *argv])
        assert time.perf_counter() - start < 1.0
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == f"budget error: {what}; shrink the budget\n"

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_fuzz_empty_class_pool_is_budget_error(self, count):
        assert run("fuzz", "--n", "5", "--class", "CON",
                   "--class-models", count) == (2, "")

    def test_fuzz_class_restricted(self):
        code, out = run("fuzz", "--n", "30", "--class", "CON",
                        "--class-models", "10", "--budget-states", "2",
                        "--atom-mode", "singleton")
        assert code == 0

    def test_demo_noncompactness(self, tmp_path):
        code, out = run("demo", "noncompactness", "--m", "2",
                        "--out", str(tmp_path / "wit"))
        assert code == 0
        written = sorted((tmp_path / "wit").glob("*.json"))
        assert written
        for path in written:
            assert validate(load_model(json.loads(path.read_text()))).passed

    def test_demo_invalid_distribution(self):
        code, out = run("demo", "validity", "--family", "invalid-distribution")
        assert code == 0
        assert "counterexample found" in out

    @pytest.mark.parametrize("argv, target", [
        (["find", "--formula", "p", "--budget-states", "1"],
         "missing/w.json"),
        (["demo", "noncompactness", "--m", "1"], "file"),
    ], ids=["missing-directory", "existing-file"])
    def test_unwritable_out_is_usage_error(self, tmp_path, argv, target):
        (tmp_path / "file").write_text("")
        path = tmp_path / target
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(path)])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith(f"usage error: cannot write {path}: ")
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--n", "-5"], ["fuzz", "--n", "0", "--json"],
        ["demo", "noncompactness", "--m", "-2"]])
    def test_counts_below_one_are_budget_errors(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("budget error: ")

    def test_usage_errors(self):
        assert run("eval", "--formula", "p")[0] == 2      # missing --model
        assert run("demo", "validity", "--family", "zzz")[0] == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "{chain}", "--formula", "{text}"],
        ["find", "--formula", "{text}"],
    ], ids=["eval", "find"])
    def test_long_numeral_exits_3(self, chain, argv):
        text = "P[a]>=1/" + "9" * 5000 + " p"
        argv = [a.format(chain=chain, text=text) for a in argv]
        assert run(*argv)[0] == 3

    def test_eval_on_invalid_model_exits_4(self, tmp_path, tiny):
        doc = json.loads(open(tiny).read())
        doc["prob"]["a"]["s0"]["weights"] = {"0": "1/2"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run("eval", "--model", str(path), "--formula", "p")
        assert code == 4
        assert "not normalized" in out


class TestArgvTable:
    """`cli.main` reads ordinary argv from `cli.COMMANDS` and leaves the rest
    to the argparse parser built from the same table."""

    @staticmethod
    def _values(flag):
        if flag.type is bool:
            return [None]
        if flag.choices:
            return list(flag.choices)
        if flag.type is int:
            return ["0", "3", "+2", " 4", "007", "12"]
        return ["p", "", "a=b", "K[a] p", "x y", "fixtures/m.json"]

    @staticmethod
    def _bad_values(flag):
        bad = ["-3", "-p", "--json", "-h", "--"]
        if flag.type is int:
            bad += ["x", "1.5", ""]
        if flag.choices:
            bad += ["zzz", flag.choices[0].upper() + "x"]
        return bad

    def _argv(self, name, command, rng):
        """A random argv for one subcommand: flags in any order, repeats,
        `--flag=value`, abbreviations, bad types and choices, values that
        start with -, missing values and required flags, strays."""
        words = []
        for flag in command.flags:
            if flag.required and rng.random() < 0.1:
                continue
            if not flag.required and rng.random() < 0.5:
                continue
            for _ in range(1 + (rng.random() < 0.15)):
                value = rng.choice(self._values(flag))
                roll = rng.random()
                if roll < 0.08:
                    value = rng.choice(self._bad_values(flag))
                spelled = flag.name
                if flag.name.startswith("-") and rng.random() < 0.06:
                    spelled = flag.name[:rng.randint(2, len(flag.name) - 1)]
                if not flag.name.startswith("-"):
                    words.append([value])
                elif flag.type is bool:
                    words.append([spelled + ("=1" if roll < 0.05 else "")])
                elif 0.08 <= roll < 0.35:
                    words.append([f"{spelled}={value}"])
                else:
                    words.append([spelled, value])
        if rng.random() < 0.05:
            words.append([rng.choice(["--nope", "extra", "-x", "--"])])
        rng.shuffle(words)
        argv = [name] + [w for group in words for w in group]
        if rng.random() < 0.04:
            argv.append(rng.choice([f.name for f in command.flags]))
        return argv

    def test_table_agrees_with_argparse(self, monkeypatch):
        seen = []

        def record(args):
            seen.append(vars(args))
            return CheckReport(OK)

        monkeypatch.setattr(cli, "COMMANDS", {
            name: dataclasses.replace(command, run=record)
            for name, command in cli.COMMANDS.items()})
        monkeypatch.setenv("COLUMNS", "80")

        def outcome(argv):
            seen.clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            return code, list(seen), out.getvalue(), err.getvalue()

        rng = random.Random(11)
        for name, command in cli.COMMANDS.items():
            by_table = 0
            for _ in range(150):
                argv = self._argv(name, command, rng)
                by_table += cli._from_table(argv) is not None
                got = outcome(argv)
                with monkeypatch.context() as m:
                    m.setattr(cli, "_from_table", lambda argv: None)
                    assert got == outcome(argv), argv
            assert by_table >= 40, (name, by_table)

    def test_valid_argv_builds_no_argparse_parser(self, monkeypatch,
                                                  fixtures_dir, tiny):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse parser built")

        monkeypatch.setattr(argparse, "ArgumentParser", refuse)
        proof = str(fixtures_dir / "proofs" / "k_distribution.json")
        cases = [
            (["eval", "--model", tiny, "--formula", "p", "--json"], 1),
            (["check-proof", "--proof", proof, "--mode=plain"], 0),
            (["validate", "--model", tiny], 0),
            (["classify", "--json", "--model", tiny], 0),
            (["find", "--formula", "p", "--budget-states", "1",
              "--grid=1", "--seed", "3"], 0),
            (["fuzz", "--n", "5", "--atom-mode", "singleton"], 0),
            (["demo", "--m", "1", "noncompactness", "--json"], 0),
        ]
        for argv, code in cases:
            assert run(*argv)[0] == code, argv


def _prop(formula):
    return {"formula": formula, "just": {"kind": "axiom", "name": "Prop"}}


_FP_SPEC = {"k": 1, "thetas": ["!(ff & !ff)", "C{a,b} p"],
            "guards": [{"op": "K", "agent": "a"}]}
_TOP_SPEC = {"k": 0, "thetas": ["!(ff & !ff)"], "guards": []}


class TestCheckerRejections:
    """Each rejection of `proofcheck._check_step` and of the hypothesis
    check, through `cli.main`: the one problem reported, and exit 1."""

    @pytest.mark.parametrize("hypotheses, steps, step, problem", [
        ([], [{"formula": "p -> p", "just": {
            "kind": "axiom", "name": "Prop", "params": {"formula": "p"}}}],
         0, "axiom parameters rejected:"
            " formula is not a propositional tautology"),
        (["R(x)"], [_prop("p -> p")], None, "hypothesis 0 is not a sentence"),
        ([], [{"formula": "p", "just": {"kind": "hyp", "index": 0}}],
         0, "hypothesis index 0 out of range"),
        (["q"], [{"formula": "p", "just": {"kind": "hyp", "index": 0}}],
         0, "formula differs from the cited hypothesis"),
        ([], [_prop("p -> p"), {"formula": "forall x (q -> q)", "just": {
            "kind": "FOR", "premise": 0, "var": "x"}}],
         1, "formula is not the universal closure of the premise over the"
            " cited variable"),
        ([], [_prop("p -> p"), {"formula": "forall y (p -> p)", "just": {
            "kind": "FOR", "premise": 0, "var": "x"}}],
         1, "formula is not the universal closure of the premise over the"
            " cited variable"),
        ([], [_prop("p -> p"), {"formula": "K[a] (q -> q)", "just": {
            "kind": "RK", "premise": 0, "agent": "a"}}],
         1, "formula is not the knowledge-wrapped premise"),
        ([], [_prop("p -> p"), {"formula": "K[b] (p -> p)", "just": {
            "kind": "RK", "premise": 0, "agent": "a"}}],
         1, "formula is not the knowledge-wrapped premise"),
        ([], [_prop("p -> p"), {"formula": "P[a]>=1 (p -> p)", "just": {
            "kind": "RK", "premise": 0, "agent": "a"}}],
         1, "formula is not the knowledge-wrapped premise"),
        (["p"], [{"formula": "p", "just": {"kind": "hyp", "index": 0}},
                 {"formula": "P[a]>=1 p", "just": {
                     "kind": "RP", "premise": 0, "agent": "a"}}],
         1, "premise of probabilistic necessitation is not a theorem"),
        ([], [_prop("p -> p"), {"formula": "P[a]>=1 (q -> q)", "just": {
            "kind": "RP", "premise": 0, "agent": "a"}}],
         1, "formula is not the probability-one-wrapped premise"),
        ([], [_prop("p -> p"), {"formula": "P[a]>=1/2 (p -> p)", "just": {
            "kind": "RP", "premise": 0, "agent": "a"}}],
         1, "formula is not the probability-one-wrapped premise"),
        ([], [_prop("p -> p"), _prop("q -> q"), {
            "formula": "!(K[a] p & K[b] p & !E{a,b} p)", "just": {
                "kind": "RE", "spec": {"k": 0, "thetas": ["K[a] p & K[b] p"],
                                       "guards": []},
                "premises": {"a": 0, "b": 1}}}],
         2, "premise for member 'a' is not the required nested implication"),
        ([], [{"formula": "!(C{a,b} p & !K[a] !(!(ff & !ff) & !C{a,b} p))",
               "just": {"kind": "RC", "spec": _FP_SPEC,
                        "certificate": {"bound": 0, "premises": {}}}}],
         0, "certificate bound 0 is below the first premise index 1"),
        ([], [_prop("p -> p"), _prop("q -> q"), {
            "formula": "!(K[a] p & K[b] p & !E{a,b} p)", "just": {
                "kind": "RE", "spec": {"k": 0, "thetas": ["K[a] p & K[b] p"],
                                       "guards": []},
                "premises": {"a": 0, "c": 1}}}],
         2, "premise map must cover the group exactly (missing ['b'],"
            " extra ['c'])"),
        ([], [_prop("p -> p"), {
            "formula": "!(C{a,b} p & !K[a] !(!(ff & !ff) & !C{a,b} p))",
            "just": {"kind": "RC", "spec": _FP_SPEC,
                     "certificate": {"bound": 2, "premises": {"1": 0}}}}],
         1, "certificate must cover indices 1..2 exactly"),
        ([], [_prop("p -> p"), {
            "formula": "!(C{a,b} p & !K[a] !(!(ff & !ff) & !C{a,b} p))",
            "just": {"kind": "RC", "spec": _FP_SPEC,
                     "certificate": {"bound": 1, "premises": {"1": 0}}}}],
         1, "certificate premise for index 1 has the wrong formula"),
        ([], [{"formula": "!(!(ff & !ff) & !P[a]>=0 p)", "just": {
            "kind": "RA", "spec": _TOP_SPEC, "agent": "a", "r": "0",
            "certificate": {"bound": 1, "premises": {}}}}],
         0, "the Archimedean rule requires a strictly positive threshold"),
        ([], [{"formula": "!(!(ff & !ff) & !Es{a,b,1/2} p)", "just": {
            "kind": "RPE", "spec": _TOP_SPEC, "r": "1/3", "premises": {}}}],
         0, "cited threshold differs from the conclusion's"),
        ([], [{"formula": "!(!(ff & !ff) & !Cs{a,b,1/2} p)", "just": {
            "kind": "RPC", "spec": _TOP_SPEC, "r": "1/3",
            "certificate": {"bound": 1, "premises": {}}}}],
         0, "cited threshold differs from the conclusion's"),
        ([], [{"formula": "!(!(ff & !ff) & !P[a]>=1/2 p)", "just": {
            "kind": "RA", "spec": _TOP_SPEC, "agent": "b", "r": "1/2",
            "certificate": {"bound": 2, "premises": {}}}}],
         0, "cited agent/threshold differ from the conclusion's"),
        ([], [{"formula": "!(!(ff & !ff) & !P[a]>=1/2 p)", "just": {
            "kind": "RA", "spec": _TOP_SPEC, "agent": "a", "r": "1/3",
            "certificate": {"bound": 2, "premises": {}}}}],
         0, "cited agent/threshold differ from the conclusion's"),
        ([], [{"formula": "!(Cs{a,1/2} p & !Es{a,1/2} (p & !(ff & !ff)))",
               "just": {"kind": "axiom", "name": "APC", "params": {
                   "group": ["a"], "r": "3/2", "m": "1000000000",
                   "phi": "p"}}}],
         0, "axiom parameters rejected: r=3/2 outside [0, 1]"),
        # Rows whose bound or depth the checker must never build: each is
        # rejected at the size of the document.
        ([], [{"formula": "!(C{a,b} p & !K[a] !(!(ff & !ff) & !C{a,b} p))",
               "just": {"kind": "RC", "spec": _FP_SPEC, "certificate": {
                   "bound": 10**12, "premises": {}}}}],
         0, "certificate must cover indices 1..1000000000000 exactly"),
        ([], [{"formula": "!(C{a} p & !E{a} p)", "just": {
            "kind": "axiom", "name": "AC", "params": {
                "group": ["a"], "m": "1000000000", "phi": "p"}}}],
         0, "axiom parameters do not produce this formula"),
        ([], [{"formula": "!(Cs{a,1/2} p & !Es{a,1/2} (p & !(ff & !ff)))",
               "just": {"kind": "axiom", "name": "APC", "params": {
                   "group": ["a"], "r": "1/2", "m": "1000000000",
                   "phi": "p"}}}],
         0, "axiom parameters do not produce this formula"),
    ], ids=["axiom-params", "open-hypothesis", "hypothesis-index",
            "hypothesis-differs", "for-closure", "for-variable",
            "rk-wrapping", "rk-agent", "rk-operator", "rp-premise",
            "rp-wrapping", "rp-bound", "group-member", "certificate-bound",
            "group-cover", "certificate-cover", "certificate-premise",
            "archimedean-zero", "rpe-threshold", "rpc-threshold", "ra-agent",
            "ra-threshold", "apc-deep-side-condition", "certificate-huge-bound",
            "ac-huge-depth", "apc-huge-depth"])
    def test_rejection(self, tmp_path, hypotheses, steps, step, problem):
        path = tmp_path / "proof.json"
        path.write_text(json.dumps({"hypotheses": hypotheses,
                                    "steps": steps}))
        code, out = run("check-proof", "--proof", str(path), "--json")
        rep = json.loads(out)
        assert (code, rep["verdict"]) == (1, "rejected")
        assert [d for d in rep["details"] if "problem" in d] == \
            [{"step": step, "problem": problem}]

    def test_repeated_certificate_index(self, tmp_path):
        # " 1" is no spelling of index 1, so step 56 (RC, bound 4) cannot
        # cite index 1 twice this way: the document is malformed (exit 3).
        # tests/test_proofcheck.py pins the check of a repeated index.
        doc = proof_to_doc(fixed_point_proof(4))
        premises = doc["steps"][56]["just"]["certificate"]["premises"]
        assert premises == {"1": 13, "2": 27, "3": 41, "4": 55}
        premises[" 1"] = 0
        path = tmp_path / "proof.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["check-proof", "--proof", str(path), "--json"])
        assert code == 3
        assert err.getvalue() == "parse error: steps[56]: bad integer ' 1'\n"


class TestExitCodes:
    """The exit-code interface: `EXIT_OF_VERDICT` and `EXIT_OF_ERROR` in
    `cli.py`, argparse's 2, and the codes the docstring and README list."""

    def test_every_verdict_has_a_code(self):
        verdicts = {value for name, value in vars(report).items()
                    if name.isupper() and isinstance(value, str)}
        assert len(verdicts) == 9
        assert verdicts == set(cli.EXIT_OF_VERDICT)

    def test_codes_are_the_documented_ones(self):
        codes = {*cli.EXIT_OF_VERDICT.values(), 2,
                 *(code for _, _, code in cli.EXIT_OF_ERROR)}
        listed = {int(n) for n in re.findall(r"^  (\d)  ", cli.__doc__,
                                             re.M)}
        readme = (Path(pckfo.__file__).resolve().parents[2] / "README.md")
        text = readme.read_text()
        paragraph = text[text.index("Exit codes"):].split("\n\n")[0]
        documented = {int(n) for n in re.findall(r"`(\d)`", paragraph)}
        assert codes == listed == documented == set(range(7))

    def test_error_rows_keep_their_labels(self, tmp_path, tiny):
        coarse = json.loads(open(tiny).read())
        coarse["states"] = ["s0", "s1"]
        coarse["relations"] = [{"symbol": "p", "arity": 0,
                                "table": {"s0": [[]], "s1": []}}]
        coarse["prob"] = {"a": {"s0": {"sample": ["s0", "s1"],
                                       "atoms": [["s0", "s1"]],
                                       "weights": {"0": "1"}}}}
        path = tmp_path / "coarse.json"
        path.write_text(json.dumps(coarse))
        cases = [   # (argv, the error it raises, its label and exit code)
            (["eval", "--model", tiny, "--formula", "p", "--state", "zz"],
             cli._UsageError, "usage error", 2),
            (["find", "--formula", "R(x)"],
             NonSentenceError, "usage error", 2),
            (["eval", "--model", tiny, "--formula", "p &"],
             ParseError, "parse error", 3),
            (["check-proof", "--proof", tiny],
             SchemaError, "parse error", 3),
            (["eval", "--model", str(path), "--formula", "P[a]>=1/2 p"],
             NotMeasurable, "not measurable", 5),
            (["fuzz", "--n", "0"], BudgetError, "budget error", 2),
            (["eval", "--model", tiny, "--formula", "K[zz] p"],
             EvalError, "evaluation error", 2),
        ]
        assert [(label, code) for _, label, code in cli.EXIT_OF_ERROR] == [
            ("usage error", 2), ("parse error", 3), ("not measurable", 5),
            ("budget error", 2), ("evaluation error", 2)]
        rows = set()
        for argv, error, label, code in cases:
            row = next(row for row in cli.EXIT_OF_ERROR
                       if issubclass(error, row[0]))
            rows.add(row)
            assert row[1:] == (label, code), error
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                got = main(argv)
            assert (got, out.getvalue()) == (code, ""), argv
            assert err.getvalue().startswith(f"{label}: "), argv
        assert rows == set(cli.EXIT_OF_ERROR)
