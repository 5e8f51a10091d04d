import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pckfo
from pckfo.cli import main
from pckfo.evaluator import satisfies
from pckfo.model import validate
from pckfo.parser import load_model, parse_formula


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


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
    ], ids=["step-not-object", "axiom-param-m", "premise-step",
            "axiom-param-group", "axiom-param-phi"])
    def test_malformed_document_is_schema_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("check-proof", "--proof", str(path))[0] == 3

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

    def test_fuzz_bytes_independent_of_hash_seed(self):
        src = str(Path(pckfo.__file__).resolve().parents[1])
        outs = set()
        for seed in ("0", "1", "3", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "pckfo.cli", "fuzz", "--n", "200",
                 "--seed", "7", "--json"],
                env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1

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

    def test_usage_errors(self):
        assert run("eval", "--formula", "p")[0] == 2      # missing --model
        assert run("demo", "validity", "--family", "zzz")[0] == 2

    def test_eval_on_invalid_model_exits_4(self, tmp_path, tiny):
        doc = json.loads(open(tiny).read())
        doc["prob"]["a"]["s0"]["weights"] = {"0": "1/2"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run("eval", "--model", str(path), "--formula", "p")
        assert code == 4
        assert "not normalized" in out
