import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pckfo.errors import ParseError, SchemaError
from pckfo.model import Model, ProbSpace, validate
from pckfo.parser import (
    load_model, model_to_json, parse_formula, parse_model, parse_proof,
    parse_term, print_formula, proof_to_json,
)
from pckfo.syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Knows, Not, ProbAtLeast, Var, exists, implies, knows_prob, top,
)


# Every raise site of the formula parser: input -> (message, span).  Spans
# are str indices, so the non-ASCII character below sits at 4..5.
_ERRORS = {
    "P[i]>=5/4 p": ("rational 5/4 outside [0, 1]", (6, 7)),
    "P[i]>=1/0 p": ("zero denominator", (6, 7)),
    "E{} p": ("unexpected '}' in group", (2, 3)),
    "Es{G} p": ("this operator needs a trailing threshold", (4, 5)),
    "E{G,1/2} p": ("this operator takes no threshold", (7, 8)),
    "p &": ("unexpected end of input", (3, 3)),
    "forall P p": ("quantified name 'P' must start with one of 'uvwxyz'",
                   (7, 8)),
    "x": ("variable 'x' cannot stand alone as a formula", (0, 1)),
    "x(y)": ("variable 'x' cannot be used as a relation", (0, 1)),
    "(p & q": ("unexpected end of input", (6, 6)),
    "p # q": ("unexpected character '#'", (2, 3)),
    "p & é": ("unexpected character 'é'", (4, 5)),
    "1.": ("unexpected character '.'", (1, 2)),
    "'p": ("unexpected character \"'\"", (0, 1)),
    "": ("unexpected end of input", (0, 0)),
    "p & ": ("unexpected end of input", (4, 4)),
    "P[a]>=": ("unexpected end of input", (6, 6)),
    "p(c,": ("unexpected end of input", (4, 4)),
    "p q": ("unexpected trailing 'q'", (2, 3)),
    "p)": ("unexpected trailing ')'", (1, 2)),
    "(p q": ("expected ')', found 'q'", (3, 4)),
    "K[a p": ("expected ']', found 'p'", (4, 5)),
    "forall 1 p": ("expected 'id', found '1'", (7, 8)),
    "Ks[1,1/2] p": ("expected 'id', found '1'", (3, 4)),
    "Ks[a,1/2 p": ("expected ']', found 'p'", (9, 10)),
    "p & )": ("unexpected ')'", (4, 5)),
    "&": ("unexpected '&'", (0, 1)),
    "P[a] p": ("expected a probability comparison, found 'p'", (5, 6)),
    "P[a]->1/2 p": ("expected a probability comparison, found '->'", (4, 6)),
    "E{": ("unterminated group", (2, 2)),
    "E{a,": ("unterminated group", (4, 4)),
    "Es{1/2,a} p": ("threshold must be the last group entry", (7, 8)),
    "E{[} p": ("unexpected '[' in group", (2, 3)),
    "E{a b} p": ("expected ',' or '}', found 'b'", (4, 5)),
    "Es{1/2} p": ("group must list at least one member", (6, 7)),
    "P[a]>=1/2.5 p": ("denominator must be an integer", (8, 11)),
    "P[a]>=1.5 p": ("rational 3/2 outside [0, 1]", (6, 9)),
    "p(x(c))": ("variable 'x' cannot be applied as a function", (2, 3)),
}


class TestParseFormula:
    def test_group_operators_example(self):
        got = parse_formula("E{G}(!K[i] phi -> C{G} psi)")
        want = EveryoneKnows(("G",), implies(
            Not(Knows("i", Atom("phi"))), CommonKnows(("G",), Atom("psi"))))
        assert got == want

    def test_single_probability_operator(self):
        assert parse_formula("P[i]>=0 phi") == \
            ProbAtLeast("i", Fraction(0), Atom("phi"))

    def test_probabilistic_group_example(self):
        got = parse_formula("Es{G,1/2}(K[i] exists x phi(x) & !Cs{G,1/3} psi)")
        want = EveryoneProb(("G",), Fraction(1, 2), And(
            Knows("i", exists("x", Atom("phi", (Var("x"),)))),
            Not(CommonProb(("G",), Fraction(1, 3), Atom("psi")))))
        assert got == want

    def test_knows_prob_sugar(self):
        assert parse_formula("Ks[i,1/4] p") == \
            parse_formula("K[i] P[i]>=1/4 p")

    def test_decimal_rational_exact(self):
        f = parse_formula("P[i]>=0.25 p")
        assert f.bound == Fraction(1, 4)

    def test_precedence(self):
        assert parse_formula("!p & q") == And(Not(Atom("p")), Atom("q"))
        assert parse_formula("K[i] p & q") == And(Knows("i", Atom("p")), Atom("q"))
        assert parse_formula("p -> q -> r") == \
            implies(Atom("p"), implies(Atom("q"), Atom("r")))

    def test_terms(self):
        assert parse_term("f(c,x)") == App("f", (App("c"), Var("x")))

    @pytest.mark.parametrize("bad", list(_ERRORS))
    def test_errors_carry_spans(self, bad):
        with pytest.raises(ParseError) as err:
            parse_formula(bad)
        message, span = _ERRORS[bad]
        assert str(err.value) == f"{message} (at {span[0]}..{span[1]})"
        assert err.value.span == span

    @pytest.mark.parametrize("bad, message, span", [
        ("c d", "unexpected trailing 'd'", (2, 3)),
        ("x(c)", "variable 'x' cannot be applied as a function", (0, 1)),
        ("f(", "unexpected end of input", (2, 2)),
        ("", "unexpected end of input", (0, 0)),
    ])
    def test_term_errors_carry_spans(self, bad, message, span):
        with pytest.raises(ParseError) as err:
            parse_term(bad)
        assert str(err.value) == f"{message} (at {span[0]}..{span[1]})"

    @pytest.mark.parametrize("bad, span", [
        ("P[a]>=1/" + "9" * 5000 + " p", (8, 5008)),
        ("P[a]>=" + "9" * 5000 + "/2 p", (6, 5006)),
        ("Es{a," + "9" * 5000 + "} p", (5, 5005)),
        # each part converts, but the denominator, 10**4300, has one
        # digit more than Python prints
        ("P[a]>=0." + "9" * 4300 + " p", (6, 4308)),
    ], ids=["denominator", "numerator", "group-bound", "decimal"])
    def test_long_numeral_is_parse_error(self, bad, span):
        with pytest.raises(ParseError) as err:
            parse_formula(bad)
        assert str(err.value) == f"numeral too long (at {span[0]}..{span[1]})"
        assert err.value.span == span

    # Nesting has no limit: these go ten times past the depth of 500 and
    # the 200 parenthesis levels the parser once stopped at.

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_term(self):
        text = "p(" + "f(" * 5000 + "c" + ")" * 5001
        f = parse_formula(text)
        t = f.args[0]
        for _ in range(5000):
            assert t.fn == "f"
            t = t.args[0]
        assert t == App("c")
        assert print_formula(f) == text

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_prefix_chain(self):
        text = "K[a] " * 5000 + "p"
        f = parse_formula(text)
        g = f
        for _ in range(5000):
            assert isinstance(g, Knows)
            g = g.body
        assert g == Atom("p")
        assert print_formula(f) == text

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_parentheses(self):
        f = parse_formula("!(" * 5000 + "p" + ")" * 5000)
        g = f
        for _ in range(5000):
            g = g.body
        assert g == Atom("p")
        assert print_formula(f) == "!" * 5000 + "p"
        # the printer keeps parentheses around a conjunction body
        text = "!(p & " * 5000 + "p" + ")" * 5000
        assert print_formula(parse_formula(text)) == text

    def test_long_implication_chain(self):
        # right-associative, read in a loop
        f = parse_formula("p -> " * 1000 + "q")
        for _ in range(1000):
            assert f.body.left == Atom("p")
            f = f.body.right.body
        assert f == Atom("q")


class TestPrintFormula:
    def test_probability(self):
        assert print_formula(ProbAtLeast("i", Fraction(0), Atom("phi"))) == \
            "P[i]>=0 phi"

    def test_knows_prob(self):
        f = knows_prob("i", Fraction(1, 4), Atom("phi"))
        assert print_formula(f) == "K[i] P[i]>=1/4 phi"

    def test_top_prints_expanded(self):
        assert print_formula(top()) == "!(ff & !ff)"
        assert parse_formula(print_formula(top())) == top()

    @pytest.mark.parametrize("text", [
        "K[a] " * 499 + "p", "!" * 499 + "p", "Cs{G,1/2} !" * 249 + "(p & q)"],
        ids=["K-499", "not-499", "Cs-not-249"])
    def test_deep_prefix_chain_round_trip(self, text):
        # compared as text: structural == still recurses per level
        assert print_formula(parse_formula(text)) == text

    def test_round_trip_golden_corpus(self, golden_dir):
        lines = (golden_dir / "formulas.txt").read_text().splitlines()
        assert len(lines) == 100
        for line in lines:
            f = parse_formula(line)
            assert parse_formula(print_formula(f)) == f, line

    def test_round_trip_generated(self):
        import random

        from pckfo.oracle import random_formula
        rng = random.Random("parser-roundtrip")
        for _ in range(300):
            f = random_formula(rng, ("a", "b"), depth=4, vars_allowed=("x", "y"))
            assert parse_formula(print_formula(f)) == f


class TestModelDocuments:
    def test_minimal_model(self, fixtures_dir):
        m = parse_model((fixtures_dir / "models" / "tiny.json").read_text())
        assert m.states == ("s0",)
        assert m.domain == ("d0",)
        assert m.space("a", "s0").weights == (Fraction(1),)

    def test_sample_outside_states_rejected(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "models" / "tiny.json").read_text())
        doc["prob"]["a"]["s0"]["sample"] = ["s0", "szz"]
        doc["prob"]["a"]["s0"]["atoms"] = [["s0"], ["szz"]]
        doc["prob"]["a"]["s0"]["weights"] = {"0": "1/2", "1": "1/2"}
        with pytest.raises(SchemaError, match="subset of the states"):
            parse_model(json.dumps(doc))

    def test_per_state_function_tables_rejected(self, fixtures_dir):
        # Function interpretations are state-independent; a document keying a
        # function table by states does not even fit the schema.
        doc = json.loads((fixtures_dir / "models" / "tiny.json").read_text())
        doc["functions"] = [{"symbol": "f", "arity": 1,
                             "table": {"s0": [{"args": ["d0"], "value": "d0"}]}}]
        with pytest.raises(SchemaError):
            parse_model(json.dumps(doc))

    def test_duplicate_function_symbol_rejected(self, fixtures_dir):
        doc = json.loads(
            (fixtures_dir / "models" / "functions.json").read_text())
        doc["functions"].append({"symbol": "c", "arity": 0, "table": [
            {"args": [], "value": "d1"}]})
        with pytest.raises(SchemaError) as exc:
            load_model(doc)
        assert str(exc.value) == "functions.c: duplicate symbol"

    @pytest.mark.parametrize("table", ["functions", "relations"])
    @pytest.mark.parametrize("arity", [True, False])
    def test_bool_arity_rejected(self, fixtures_dir, table, arity):
        doc = json.loads(
            (fixtures_dir / "models" / "functions.json").read_text())
        entry = doc[table][0]
        entry["arity"] = arity
        with pytest.raises(SchemaError) as exc:
            parse_model(json.dumps(doc))
        assert str(exc.value) == \
            f"{table}.{entry['symbol']}: 'arity' must be int"

    @pytest.mark.parametrize("atoms", [
        [["s0", 5], ["s1"]], [["s0"], [None]], ["s0", "s1"],
        [{"s0": 1}, ["s1"]], [["s0", ["s1"]]],
    ], ids=["int-member", "null-member", "string-atoms", "object-atom",
            "list-member"])
    def test_atoms_must_be_lists_of_names(self, atoms):
        doc = {"states": ["s0", "s1"], "domain": ["d0"], "agents": ["a"],
               "prob": {"a": {"s0": {"sample": ["s0", "s1"], "atoms": atoms,
                                     "weights": {"0": "1/2", "1": "1/2"}}}}}
        with pytest.raises(SchemaError) as exc:
            load_model(doc)
        assert str(exc.value) == \
            "prob.a.s0: atoms must be lists of state names"

    @pytest.mark.parametrize("weights, problem", [
        ('{"0": 0.50000000000000001, "1": "1/2"}', "weight 0.5"),
        ('{"0": 0.5, "1": 0.5}', "weight 0.5"),
        ('{"0": 1.0, "1": 0}', "weight 1.0"),
        ('{"0": 1e0, "1": 0}', "weight 1.0"),
        ('{"0": "1/2", "1": "0.5"}', None),
        ('{"0": 1, "1": 0}', None),
        ('{"0": "0", "1": "1"}', None),
    ], ids=["float-near-half", "float-halves", "float-one", "exponent",
            "strings", "integers", "integer-strings"])
    def test_weights_are_exact(self, weights, problem):
        text = ('{"states": ["s0", "s1"], "domain": ["d0"], "agents": ["a"],'
                ' "prob": {"a": {"s0": {"sample": ["s0", "s1"],'
                ' "weights": %s}}}}' % weights)
        if problem is None:
            assert validate(parse_model(text)).passed
            return
        with pytest.raises(SchemaError) as exc:
            parse_model(text)
        assert str(exc.value) == (
            f"prob.a.s0: {problem} is a JSON float, which is not exact;"
            " write it as a string")

    def test_weight_written_as_text_is_exact(self):
        # the same near-half weight as text is read exactly, so it does
        # not sum to 1 with 1/2
        m = load_model({
            "states": ["s0", "s1"], "domain": ["d0"], "agents": ["a"],
            "prob": {"a": {"s0": {"sample": ["s0", "s1"], "weights": {
                "0": "0.50000000000000001", "1": "1/2"}}}}})
        assert [d["problem"] for d in validate(m).details] == \
            ["measure not normalized: weights must sum to 1"]

    def test_order_insensitive(self, fixtures_dir):
        text = (fixtures_dir / "models" / "functions.json").read_text()
        doc = json.loads(text)
        doc["states"] = list(reversed(doc["states"]))
        doc["domain"] = list(reversed(doc["domain"]))
        assert parse_model(json.dumps(doc)) == parse_model(text)

    def test_canonical_serialization(self, fixtures_dir):
        for path in sorted((fixtures_dir / "models").glob("*.json")):
            text = path.read_text()
            assert model_to_json(parse_model(text)) == text

    def test_default_spaces_and_atoms(self):
        doc = {"states": ["s0", "s1"], "domain": ["d0"], "agents": ["a"],
               "prob": {"a": {"s0": {"sample": ["s0", "s1"],
                                     "weights": {"0": "1/3", "1": "2/3"}}}}}
        m = load_model(doc)
        # omitted atoms default to singletons over the sample
        assert m.space("a", "s0").atoms == (frozenset(["s0"]), frozenset(["s1"]))
        # omitted spaces default to the one-point space at that state
        assert m.space("a", "s1").sample == frozenset(["s1"])


@st.composite
def _models(draw):
    """Valid models with up to 4 states, 2 domain elements and 2 agents,
    a propositional and a unary relation, a unary function, a group and
    spaces of one or two atoms over any nonempty sample."""
    states = [f"s{k}" for k in range(draw(st.integers(1, 4)))]
    domain = ["d0", "d1"][:draw(st.integers(1, 2))]
    agents = draw(st.sampled_from([("a",), ("a", "b")]))
    edges = st.frozensets(st.tuples(st.sampled_from(states),
                                    st.sampled_from(states)))
    prob = {}
    for agent in agents:
        for state in states:
            sample = sorted(draw(st.sets(st.sampled_from(states), min_size=1)))
            cut = draw(st.integers(1, len(sample)))
            w = draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)]))
            prob[(agent, state)] = ProbSpace(
                frozenset(sample),
                (frozenset(sample[:cut]), frozenset(sample[cut:])),
                (w, 1 - w)) if cut < len(sample) else \
                ProbSpace(frozenset(sample), (frozenset(sample),), (Fraction(1),))
    return Model(
        states=tuple(states), domain=tuple(domain), agents=agents,
        functions={"f": (1, {(d,): draw(st.sampled_from(domain))
                             for d in domain})},
        relations={
            "p": (0, {s: draw(st.sampled_from([frozenset(), frozenset({()})]))
                      for s in states}),
            "R": (1, {s: draw(st.frozensets(st.tuples(st.sampled_from(domain))))
                      for s in states})},
        access={agent: draw(edges) for agent in agents},
        prob=prob, groups={"G": agents})


@given(_models())
def test_model_document_round_trip(m):
    assert validate(m).passed
    text = model_to_json(m)
    assert parse_model(text) == m
    assert model_to_json(parse_model(text)) == text


class TestProofDocuments:
    def test_two_step_necessitation(self):
        doc = {
            "hypotheses": [],
            "steps": [
                {"formula": "p -> p", "just": {"kind": "axiom", "name": "Prop"}},
                {"formula": "K[i](p -> p)",
                 "just": {"kind": "RK", "premise": 0, "agent": "i"}},
            ],
        }
        proof = parse_proof(json.dumps(doc))
        assert len(proof.steps) == 2

    def test_forward_reference_rejected(self):
        doc = {
            "hypotheses": [],
            "steps": [
                {"formula": "K[i](p -> p)",
                 "just": {"kind": "RK", "premise": 1, "agent": "i"}},
                {"formula": "p -> p", "just": {"kind": "axiom", "name": "Prop"}},
            ],
        }
        with pytest.raises(SchemaError, match="earlier step"):
            parse_proof(json.dumps(doc))

    def test_group_rule_premise_per_member(self):
        # one RE premise per member of {a, b}, resolved to step indices
        top_text = "!(ff & !ff)"
        spec = {"k": 0, "thetas": [top_text], "guards": []}
        doc = {
            "hypotheses": ["K[a] p", "K[b] p"],
            "steps": [
                {"formula": f"!({top_text} & !K[a] p)",
                 "just": {"kind": "axiom", "name": "Prop"}},
                {"formula": f"!({top_text} & !K[b] p)",
                 "just": {"kind": "axiom", "name": "Prop"}},
                {"formula": f"!({top_text} & !E{{a,b}} p)",
                 "just": {"kind": "RE", "spec": spec,
                          "premises": {"a": 0, "b": 1}}},
            ],
        }
        proof = parse_proof(json.dumps(doc))
        assert dict(proof.steps[2].just.premises) == {"a": 0, "b": 1}

    def test_unknown_rule_name(self):
        doc = {"hypotheses": [],
               "steps": [{"formula": "p", "just": {"kind": "XX"}}]}
        with pytest.raises(SchemaError, match="unknown rule"):
            parse_proof(json.dumps(doc))

    def test_every_justification_class_has_a_codec(self):
        import dataclasses

        from pckfo import parser, proofcheck
        classes = [cls for name, cls in vars(proofcheck).items()
                   if name.endswith("Just") and dataclasses.is_dataclass(cls)]
        assert len(classes) == 11
        for cls in classes:
            assert cls in parser._KINDS.values(), cls.__name__
            for f in dataclasses.fields(cls):
                assert f.name in parser._FIELDS, (cls.__name__, f.name)

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_deep_printed_chain_round_trip(self):
        # a printed "->" link nests three levels, so 201 links print 603
        # levels deep
        chain = " -> ".join(["p"] * 202)
        doc = {"hypotheses": [], "steps": [
            {"formula": chain, "just": {"kind": "axiom", "name": "Prop"}}]}
        proof = parse_proof(json.dumps(doc))
        again = parse_proof(proof_to_json(proof))
        assert again == proof
        assert again.steps[0].formula == parse_formula(chain)

    def test_con_axiom_alias(self):
        doc = {"mode": "con", "hypotheses": [],
               "steps": [{"formula": "K[i] p -> P[i]>=1 p",
                          "just": {"kind": "CON-axiom"}}]}
        proof = parse_proof(json.dumps(doc))
        assert proof.steps[0].just.name == "CON"
