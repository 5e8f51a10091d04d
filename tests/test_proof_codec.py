"""The proof-document codec: dump bytes, reloads and schema errors, pinned
for one step of every justification kind and every axiom parameter."""

import json
from fractions import Fraction as F

import pytest

from pckfo import proofcheck as pc
from pckfo.errors import ParseError, SchemaError
from pckfo.parser import parse_formula, parse_proof, parse_term, proof_to_json
from pckfo.syntax import Guard, NestedImplicationSpec

_SPEC_DOC = {"k": 1, "thetas": ["p", "q"],
             "guards": [{"op": "P1", "agent": "a"}]}
_SPEC = NestedImplicationSpec(1, (parse_formula("p"), parse_formula("q")),
                              (Guard("P1", "a"),))
_CERT_DOC = {"bound": 2, "premises": {"2": 5, "1": 4}}
_CERT = pc.Certificate(2, ((1, 4), (2, 5)))

# (justification as written, as dumped, as loaded); the written forms use
# every non-canonical spelling the loader accepts.
_STEPS = [
    ({"kind": "axiom", "name": "Prop"},
     {"kind": "axiom", "name": "Prop"},
     pc.AxiomJust("Prop")),
    ({"kind": "axiom", "name": "P2", "params": {
        "phi": "p", "psi": "q", "formula": "p & q", "term": "f(c,x)",
        "r": "1/2", "t": 0.25, "m": "3", "group": ["b", "a"], "i": "a",
        "j": "b", "x": "x"}},
     {"kind": "axiom", "name": "P2", "params": {
         "formula": "p & q", "group": ["b", "a"], "i": "a", "j": "b", "m": 3,
         "phi": "p", "psi": "q", "r": "1/2", "t": "1/4", "term": "f(c,x)",
         "x": "x"}},
     pc.AxiomJust("P2", (
         ("formula", parse_formula("p & q")), ("group", ("b", "a")),
         ("i", "a"), ("j", "b"), ("m", 3), ("phi", parse_formula("p")),
         ("psi", parse_formula("q")), ("r", F(1, 2)), ("t", F(1, 4)),
         ("term", parse_term("f(c,x)")), ("x", "x")))),
    ({"kind": "CON-axiom", "name": "ignored",
      "params": {"i": "a", "phi": "p"}},
     {"kind": "axiom", "name": "CON", "params": {"i": "a", "phi": "p"}},
     pc.AxiomJust("CON", (("i", "a"), ("phi", parse_formula("p"))))),
    ({"kind": "CON-axiom"},
     {"kind": "axiom", "name": "CON"},
     pc.AxiomJust("CON")),
    ({"kind": "hyp", "index": 0},
     {"kind": "hyp", "index": 0},
     pc.HypJust(0)),
    ({"kind": "MP", "implication": 1, "premise": 0},
     {"kind": "MP", "premise": 0, "implication": 1},
     pc.MPJust(0, 1)),
    ({"kind": "FOR", "premise": 0, "var": "x"},
     {"kind": "FOR", "premise": 0, "var": "x"},
     pc.FORJust(0, "x")),
    ({"kind": "RK", "premise": 0, "agent": "a"},
     {"kind": "RK", "premise": 0, "agent": "a"},
     pc.RKJust(0, "a")),
    ({"kind": "RP", "premise": 0, "agent": "b"},
     {"kind": "RP", "premise": 0, "agent": "b"},
     pc.RPJust(0, "b")),
    ({"kind": "RE", "spec": _SPEC_DOC, "premises": {"b": "1", "a": 0}},
     {"kind": "RE", "spec": _SPEC_DOC, "premises": {"a": 0, "b": 1}},
     pc.REJust(_SPEC, (("a", 0), ("b", 1)))),
    ({"kind": "RPE", "premises": {"a": 0}, "r": "0.5", "spec": _SPEC_DOC},
     {"kind": "RPE", "spec": _SPEC_DOC, "r": "1/2", "premises": {"a": 0}},
     pc.RPEJust(_SPEC, F(1, 2), (("a", 0),))),
    ({"kind": "RC", "spec": _SPEC_DOC, "certificate": _CERT_DOC},
     {"kind": "RC", "spec": _SPEC_DOC,
      "certificate": {"bound": 2, "premises": {"1": 4, "2": 5}}},
     pc.RCJust(_SPEC, _CERT)),
    ({"kind": "RPC", "spec": _SPEC_DOC, "r": "1/3", "certificate": _CERT_DOC},
     {"kind": "RPC", "spec": _SPEC_DOC, "r": "1/3",
      "certificate": {"bound": 2, "premises": {"1": 4, "2": 5}}},
     pc.RPCJust(_SPEC, F(1, 3), _CERT)),
    ({"kind": "RA", "certificate": _CERT_DOC, "r": "1", "agent": "b",
      "spec": _SPEC_DOC},
     {"kind": "RA", "spec": _SPEC_DOC, "agent": "b", "r": "1",
      "certificate": {"bound": 2, "premises": {"1": 4, "2": 5}}},
     pc.RAJust(_SPEC, "b", F(1), _CERT)),
]


def _proof_doc(justs):
    return {"mode": "con", "hypotheses": ["K[a] p"],
            "steps": [{"formula": "p", "just": j} for j in justs]}


def test_every_kind_dumps_pinned_bytes():
    proof = parse_proof(json.dumps(_proof_doc([s[0] for s in _STEPS])))
    text = proof_to_json(proof)
    assert text == json.dumps(_proof_doc([s[1] for s in _STEPS]),
                              indent=2) + "\n"
    assert parse_proof(text) == proof
    assert proof_to_json(parse_proof(text)) == text


@pytest.mark.parametrize("written,loaded", [(s[0], s[2]) for s in _STEPS],
                         ids=[f"{ix}-{s[0]['kind']}"
                              for ix, s in enumerate(_STEPS)])
def test_every_kind_reloads(written, loaded):
    # Six steps come first, so every reference in the table is earlier.
    justs = [{"kind": "axiom", "name": "Prop"}] * 6 + [written]
    proof = parse_proof(json.dumps(_proof_doc(justs)))
    assert proof.steps[-1].just == loaded


_MALFORMED = [
    # (justification, SchemaError message after "steps[1]: ")
    ({}, "missing 'kind'"),
    ({"kind": 3}, "'kind' must be str"),
    ({"kind": "XX"}, "unknown rule name 'XX'"),
    ({"kind": "axiom"}, "missing 'name'"),
    ({"kind": "axiom", "name": 3}, "'name' must be str"),
    ({"kind": "axiom", "name": "P1", "params": []}, "'params' must be dict"),
    ({"kind": "axiom", "name": "P1", "params": None}, "'params' must be dict"),
    ({"kind": "axiom", "name": "P1", "params": {"q": "p"}},
     "unknown axiom parameter 'q'"),
    ({"kind": "axiom", "name": "P1", "params": {"i": "a", "q": 3}},
     "unknown axiom parameter 'q'"),
    ({"kind": "axiom", "name": "P1", "params": {"q": 3, "i": 3}},
     "unknown axiom parameter 'q'"),
    ({"kind": "axiom", "name": "P1", "params": {"phi": 3}},
     "'phi' must be str"),
    ({"kind": "axiom", "name": "P1", "params": {"psi": None}},
     "'psi' must be str"),
    ({"kind": "axiom", "name": "P1", "params": {"formula": ["p"]}},
     "'formula' must be str"),
    ({"kind": "axiom", "name": "P1", "params": {"term": {}}},
     "'term' must be str"),
    ({"kind": "axiom", "name": "P1", "params": {"r": "x"}},
     "bad rational 'x'"),
    ({"kind": "axiom", "name": "P1", "params": {"t": [1]}},
     "bad rational [1]"),
    ({"kind": "axiom", "name": "P1", "params": {"r": "1/0"}},
     "bad rational '1/0'"),
    ({"kind": "axiom", "name": "P1", "params": {"m": "x"}},
     "bad integer 'x'"),
    ({"kind": "axiom", "name": "P1", "params": {"m": None}},
     "bad integer None"),
    ({"kind": "axiom", "name": "P1", "params": {"group": "a"}},
     "'group' must be list"),
    ({"kind": "axiom", "name": "P1", "params": {"group": [1]}},
     "expected a list of names, got [1]"),
    ({"kind": "axiom", "name": "P1", "params": {"i": 3}}, "'i' must be str"),
    ({"kind": "axiom", "name": "P1", "params": {"j": None}},
     "'j' must be str"),
    ({"kind": "CON-axiom", "params": {"x": [1]}}, "'x' must be str"),
    ({"kind": "CON-axiom", "params": "x"}, "'params' must be dict"),
    ({"kind": "hyp"}, "missing 'index'"),
    ({"kind": "hyp", "index": "0"}, "'index' must be int"),
    ({"kind": "MP"}, "missing 'premise'"),
    ({"kind": "MP", "premise": 0}, "missing 'implication'"),
    ({"kind": "MP", "premise": 0, "implication": None},
     "'implication' must be int"),
    ({"kind": "MP", "premise": "x", "implication": "y"},
     "'premise' must be int"),
    ({"kind": "MP", "premise": 0, "implication": 1},
     "reference to step 1 is not an earlier step"),
    ({"kind": "FOR", "premise": 0}, "missing 'var'"),
    ({"kind": "FOR", "premise": 0, "var": 3}, "'var' must be str"),
    ({"kind": "RK", "premise": 0}, "missing 'agent'"),
    ({"kind": "RK", "premise": [1], "agent": "a"}, "'premise' must be int"),
    ({"kind": "RP", "premise": 0, "agent": [1]}, "'agent' must be str"),
    ({"kind": "RE"}, "missing 'spec'"),
    ({"kind": "RE", "spec": "x"}, "'spec' must be dict"),
    ({"kind": "RE", "spec": _SPEC_DOC}, "missing 'premises'"),
    ({"kind": "RE", "spec": _SPEC_DOC, "premises": [1]},
     "'premises' must be dict"),
    ({"kind": "RE", "spec": _SPEC_DOC, "premises": {"a": "x"}},
     "bad integer 'x'"),
    ({"kind": "RE", "spec": _SPEC_DOC, "premises": {"a": 5}},
     "reference to step 5 is not an earlier step"),
    ({"kind": "RE", "spec": {}}, "missing 'k'"),
    ({"kind": "RE", "spec": {"k": "1"}}, "'k' must be int"),
    ({"kind": "RE", "spec": {"k": 1, "thetas": ["p"], "guards": []}},
     "need 2 thetas for k=1, got 1"),
    ({"kind": "RE", "spec": {"k": 0, "thetas": ["p"], "guards": [3]}},
     "must be an object"),
    ({"kind": "RE", "spec": {"k": 1, "thetas": ["p", "q"],
                             "guards": [{"op": "Q", "agent": "a"}]}},
     "guard op must be K or P1"),
    ({"kind": "RPE"}, "missing 'spec'"),
    ({"kind": "RPE", "spec": _SPEC_DOC}, "missing 'r'"),
    ({"kind": "RPE", "spec": _SPEC_DOC, "r": 3}, "'r' must be str"),
    ({"kind": "RPE", "spec": _SPEC_DOC, "r": "x"}, "bad rational 'x'"),
    ({"kind": "RPE", "spec": _SPEC_DOC, "r": "1/2"}, "missing 'premises'"),
    ({"kind": "RC", "spec": _SPEC_DOC}, "missing 'certificate'"),
    ({"kind": "RC", "spec": _SPEC_DOC, "certificate": "x"},
     "'certificate' must be dict"),
    ({"kind": "RC", "spec": _SPEC_DOC, "certificate": {}}, "missing 'bound'"),
    ({"kind": "RC", "spec": _SPEC_DOC, "certificate": {"bound": "3"}},
     "'bound' must be int"),
    ({"kind": "RC", "spec": _SPEC_DOC, "certificate": {"bound": 3}},
     "missing 'premises'"),
    ({"kind": "RC", "spec": _SPEC_DOC,
      "certificate": {"bound": 3, "premises": {"a": 0}}}, "bad integer 'a'"),
    # an integer has one spelling, the one `str` gives it
    *[({"kind": "RC", "spec": _SPEC_DOC,
        "certificate": {"bound": 3, "premises": {key: 0}}},
       f"bad integer {key!r}")
      for key in (" 1", "+1", "1_0", "0010", "\uff11")],
    ({"kind": "RPC", "spec": _SPEC_DOC, "certificate": _CERT_DOC},
     "missing 'r'"),
    ({"kind": "RPC", "spec": _SPEC_DOC, "r": None}, "'r' must be str"),
    ({"kind": "RA"}, "missing 'spec'"),
    ({"kind": "RA", "spec": _SPEC_DOC, "r": "1/2"}, "missing 'agent'"),
    ({"kind": "RA", "spec": _SPEC_DOC, "agent": "a"}, "missing 'r'"),
    ({"kind": "RA", "spec": _SPEC_DOC, "agent": "a", "r": "1/2"},
     "missing 'certificate'"),
    ({"kind": "RA", "spec": _SPEC_DOC, "agent": "a", "r": "1/2",
      "certificate": _CERT_DOC},
     "reference to step 4 is not an earlier step"),
    # a JSON float or bool is no integer, even where int() would take it
    ({"kind": "axiom", "name": "P1", "params": {"m": 2.7}},
     "bad integer 2.7"),
    ({"kind": "axiom", "name": "P1", "params": {"m": True}},
     "bad integer True"),
    ({"kind": "hyp", "index": False}, "'index' must be int"),
    ({"kind": "MP", "premise": False, "implication": True},
     "'premise' must be int"),
    ({"kind": "MP", "premise": 0, "implication": True},
     "'implication' must be int"),
    ({"kind": "RE", "spec": {"k": True}}, "'k' must be int"),
    ({"kind": "RC", "spec": _SPEC_DOC,
      "certificate": {"bound": True, "premises": {}}}, "'bound' must be int"),
]


def _one_step_after_prop(just):
    return json.dumps({"hypotheses": [], "steps": [
        {"formula": "!(p & !p)", "just": {"kind": "axiom", "name": "Prop"}},
        {"formula": "p", "just": just}]})


@pytest.mark.parametrize("just,message", _MALFORMED,
                         ids=[str(ix) for ix in range(len(_MALFORMED))])
def test_malformed_justification_message(just, message):
    with pytest.raises(SchemaError) as exc:
        parse_proof(_one_step_after_prop(just))
    assert str(exc.value) == f"steps[1]: {message}"


@pytest.mark.parametrize("just", [[1], None, "MP", 3])
def test_justification_must_be_an_object(just):
    with pytest.raises(SchemaError) as exc:
        parse_proof(_one_step_after_prop(just))
    assert str(exc.value) == "steps[1]: 'just' must be dict"


@pytest.mark.parametrize("params,message", [
    ({"phi": "p &"}, "unexpected end of input (at 3..3)"),
    ({"term": "f("}, "unexpected end of input (at 2..2)"),
])
def test_malformed_parameter_text_is_a_parse_error(params, message):
    with pytest.raises(ParseError) as exc:
        parse_proof(_one_step_after_prop(
            {"kind": "axiom", "name": "P1", "params": params}))
    assert str(exc.value) == message
