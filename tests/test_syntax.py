import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pckfo
from pckfo.errors import ArityError, CaptureError, RationalRangeError
from pckfo.evaluator import Evaluator
from pckfo.model import Model
from pckfo.parser import parse_formula, parse_term, print_formula, print_term
from pckfo.syntax import (
    And, App, Atom, CommonKnows, CommonProb, EveryoneKnows, EveryoneProb,
    Forall, Guard, Knows, NestedImplicationSpec, Not, ProbAtLeast, Var, bot,
    exists, expand_abbrev, free_vars, implies, is_free_for, is_sentence,
    iterate_everyone, knows_prob, nested_implication, peel_nested,
    prob_common_stage, prob_eq, prob_le, prob_lt, split_implies, substitute,
    subformulas, subterms, top,
)

x, y = Var("x"), Var("y")
c = App("c")
p, q = Atom("p"), Atom("q")
R = lambda *args: Atom("R", args)


class TestFreeVars:
    def test_bound_variable(self):
        assert free_vars(Forall("x", R(x))) == frozenset()

    def test_all_occurrences_free(self):
        assert free_vars(R(x, y)) == {"x", "y"}

    def test_through_knowledge_operator(self):
        f = Knows("i", Forall("x", R(x, y)))
        assert free_vars(f) == {"y"}

    def test_sentence_iff_empty(self):
        assert is_sentence(Forall("x", R(x)))
        assert not is_sentence(R(x))


class TestSubstitute:
    def test_closed_term(self):
        assert substitute(R(x), "x", c) == R(c)

    def test_no_free_occurrence(self):
        f = Forall("x", R(x))
        assert substitute(f, "x", c) == f

    def test_capture_raises(self):
        f = Forall("y", R(x, y))
        with pytest.raises(CaptureError):
            substitute(f, "x", App("f", (y,)))

    def test_identity(self):
        f = And(Forall("x", R(x, y)), Knows("i", R(x)))
        assert substitute(f, "x", x) == f


class TestIsFreeFor:
    def test_closed_term_always_free(self):
        assert is_free_for(c, "x", Forall("y", R(x, y)))

    def test_capture_detected(self):
        assert not is_free_for(y, "x", Forall("y", R(x, y)))

    def test_no_quantifier(self):
        assert is_free_for(y, "x", R(x, y))


class TestAbbreviations:
    def test_knows_prob(self):
        out = expand_abbrev("Kr", "i", Fraction(1, 4), p)
        assert out == Knows("i", ProbAtLeast("i", Fraction(1, 4), p))

    def test_prob_lt(self):
        assert expand_abbrev("P<", "i", Fraction(1, 2), p) == \
            Not(ProbAtLeast("i", Fraction(1, 2), p))

    def test_prob_eq_one(self):
        out = expand_abbrev("P=", "i", Fraction(1), p)
        assert out == And(prob_le("i", 1, p), ProbAtLeast("i", Fraction(1), p))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            expand_abbrev("nope", p)

    CORE = (Atom, Not, And, Forall, Knows, EveryoneKnows, CommonKnows,
            ProbAtLeast)

    @pytest.mark.parametrize("f", [
        implies(p, q), exists("x", R(x)), top(), bot(),
        prob_lt("i", Fraction(1, 3), p), prob_le("i", Fraction(1, 3), p),
        prob_eq("i", Fraction(1, 2), p), knows_prob("i", Fraction(1, 4), p),
    ])
    def test_expansions_are_core_only(self, f):
        # One expansion pass lands in the core language: nothing left to expand.
        for g in subformulas(f):
            assert isinstance(g, self.CORE)


class TestNestedImplication:
    def test_base_case(self):
        spec = NestedImplicationSpec(0, (top(),), ())
        assert nested_implication(spec, p) == implies(top(), p)

    def test_three_guards_shape(self):
        t0, t1, t2, t3 = Atom("t0"), Atom("t1"), Atom("t2"), Atom("t3")
        spec = NestedImplicationSpec(
            3, (t0, t1, t2, t3),
            (Guard("K", "a"), Guard("P1", "b"), Guard("K", "c")))
        want = implies(t3, Knows("c", implies(t2, ProbAtLeast(
            "b", Fraction(1), implies(t1, Knows("a", implies(t0, p)))))))
        assert nested_implication(spec, p) == want

    def test_single_certainty_guard(self):
        spec = NestedImplicationSpec(1, (top(), q), (Guard("P1", "i"),))
        want = implies(q, ProbAtLeast("i", Fraction(1), implies(top(), p)))
        assert nested_implication(spec, p) == want

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            NestedImplicationSpec(1, (p,), (Guard("K", "a"),))
        with pytest.raises(ValueError):
            NestedImplicationSpec(0, (p,), (Guard("K", "a"),))

    def test_peel_inverts(self):
        spec = NestedImplicationSpec(
            2, (p, q, top()), (Guard("K", "a"), Guard("P1", "b")))
        f = nested_implication(spec, R(c))
        assert peel_nested(spec, f) == R(c)
        assert peel_nested(spec, And(p, q)) is None


class TestIteratedOperators:
    def test_everyone_once(self):
        assert iterate_everyone(("a",), 1, p) == EveryoneKnows(("a",), p)

    def test_everyone_twice(self):
        g = ("a", "b")
        assert iterate_everyone(g, 2, p) == \
            EveryoneKnows(g, EveryoneKnows(g, p))

    def test_everyone_thrice(self):
        g = ("a",)
        assert iterate_everyone(g, 3, p) == \
            EveryoneKnows(g, EveryoneKnows(g, EveryoneKnows(g, p)))

    def test_everyone_zero_rejected(self):
        with pytest.raises(ArityError):
            iterate_everyone(("a",), 0, p)

    def test_stage_zero_is_top(self):
        assert prob_common_stage(("a",), Fraction(1, 2), 0, p) == top()

    def test_stage_unrolls(self):
        g, r = ("a",), Fraction(1, 2)
        from pckfo.syntax import EveryoneProb
        s1 = EveryoneProb(g, r, And(p, top()))
        assert prob_common_stage(g, r, 1, p) == s1
        assert prob_common_stage(g, r, 2, p) == EveryoneProb(g, r, And(p, s1))


class TestGroups:
    def test_normalized_order(self):
        assert EveryoneKnows(("b", "a"), p) == EveryoneKnows(("a", "b"), p)

    def test_duplicates_collapse(self):
        assert CommonKnows(("a", "a"), p).group == ("a",)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EveryoneKnows((), p)

    def test_bound_out_of_range(self):
        with pytest.raises(RationalRangeError):
            ProbAtLeast("i", Fraction(3, 2), p)

    @pytest.mark.parametrize("members", [
        ("a",), ("a", "b"), ("a", "b", "c"), ("b", "a"), ("a", "a"),
        ["a", "b"], ("",), ("", "a"), ("a", ""), (), []])
    def test_group_normal_form(self, members):
        want = tuple(sorted(set(members)))
        for cls in (EveryoneKnows, CommonKnows):
            if not want or not all(want):
                with pytest.raises(ValueError):
                    cls(members, p)
            else:
                assert cls(members, p).group == want

    def test_normal_group_is_kept(self):
        g = ("a", "b")
        assert EveryoneKnows(g, p).group is g
        assert CommonProb(g, Fraction(1, 2), p).group is g

    @pytest.mark.parametrize("bound, want", [
        (Fraction(1, 2), Fraction(1, 2)), (0, Fraction(0)), (1, Fraction(1)),
        ("1/3", Fraction(1, 3)), (Fraction(0), Fraction(0)),
        (Fraction(-1, 2), None), (Fraction(3, 2), None), (2, None)])
    def test_bound_normal_form(self, bound, want):
        for build in (lambda r: ProbAtLeast("a", r, p),
                      lambda r: EveryoneProb(("a",), r, p)):
            if want is None:
                with pytest.raises(RationalRangeError):
                    build(bound)
            else:
                got = build(bound).bound
                assert got == want and type(got) is Fraction


# -- property tests ----------------------------------------------------------

def _terms():
    return st.recursive(
        st.sampled_from([Var("x"), Var("y"), App("c"), App("d")]),
        lambda kids: st.builds(lambda a: App("f", (a,)), kids),
        max_leaves=3)


def _formulas():
    base = st.sampled_from([p, q]) | st.builds(
        lambda t1, t2: Atom("R", (t1, t2)), _terms(), _terms())
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.builds(And, kids, kids),
            st.builds(Forall, st.sampled_from(["x", "y"]), kids),
            st.builds(Knows, st.sampled_from(["a", "b"]), kids),
            st.builds(lambda f: ProbAtLeast("a", Fraction(1, 2), f), kids),
            st.builds(lambda f: EveryoneKnows(("a", "b"), f), kids),
            st.builds(lambda f: CommonKnows(("b", "a"), f), kids),
            st.builds(lambda f: EveryoneProb(("a",), Fraction(1, 3), f), kids),
            st.builds(lambda f: CommonProb(("a", "b"), Fraction(1), f), kids),
        ),
        max_leaves=8)


def _field_tuple(f):
    """The tuple a frozen dataclass hashes: its compared fields in order."""
    return tuple(getattr(f, fl.name) for fl in dataclasses.fields(f)
                 if fl.compare)


def _naive_term_vars(t):
    if isinstance(t, Var):
        return {t.name}
    return set().union(*(_naive_term_vars(a) for a in t.args))


def _naive_free_vars(f):
    if isinstance(f, Atom):
        return set().union(*(_naive_term_vars(t) for t in f.args))
    if isinstance(f, Forall):
        return _naive_free_vars(f.body) - {f.var}
    if isinstance(f, And):
        return _naive_free_vars(f.left) | _naive_free_vars(f.right)
    return _naive_free_vars(f.body)


@given(_formulas())
def test_stored_hash_and_free_vars(f):
    for g in subformulas(f):
        assert hash(g) == hash(_field_tuple(g))
        assert free_vars(g) == _naive_free_vars(g)
    for t in subterms(f):
        assert hash(t) == hash(_field_tuple(t))
        assert free_vars(t) == _naive_term_vars(t)
    again = parse_formula(print_formula(f))
    assert again == f and again is not f
    assert hash(again) == hash(f)


@st.composite
def _deep_terms(draw, depth):
    """A term up to `depth` applications deep over z and c.  Runs of one
    function symbol make its spine, so even the deepest takes few draws."""
    leaves = st.sampled_from([Var("z"), App("c")])
    t = draw(leaves)
    runs = draw(st.lists(st.tuples(st.sampled_from("fgh"), leaves),
                         min_size=1, max_size=4))
    n = draw(st.integers(0, depth))
    for k, (fn, side) in enumerate(runs):
        for _ in range(n // len(runs) + (k < n % len(runs))):
            t = App(fn, (t,) if fn == "f" else (side, t) if fn == "g"
                    else (t, side))
    return t


@settings(deadline=None)
@given(_formulas(), st.data())
def test_round_trip_with_deep_terms(f, data):
    # x of a generated formula, and one more R(x), made a term up to 1000
    # applications deep
    h = And(f, R(x))
    g = substitute(h, "x", data.draw(_deep_terms(1000)))
    again = parse_formula(print_formula(g))
    assert again == g and again is not g and hash(again) == hash(g)
    for atom in subformulas(g):
        for t in atom.args if isinstance(atom, Atom) else ():
            text = print_term(t)
            assert print_term(parse_term(text)) == text


def test_node_pickled_under_another_hash_seed():
    code = ("import pickle, sys; from pckfo.syntax import *; "
            "f = Knows('a', Forall('x', Atom('R', (Var('x'),)))); "
            "hash(f); free_vars(f); sys.stdout.buffer.write(pickle.dumps(f))")
    src = str(Path(pckfo.__file__).resolve().parents[1])
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        data = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, check=True).stdout
        g = pickle.loads(data)
        assert g in {Knows("a", Forall("x", R(x)))}
        assert free_vars(g) == frozenset()


@given(_formulas())
def test_replace_gets_fresh_hash_and_free_vars(f):
    node = f if hasattr(f, "body") else Not(f)
    hash(node)
    free_vars(node)
    g = dataclasses.replace(node, body=R(y))
    assert hash(g) == hash(_field_tuple(g))
    assert free_vars(g) == _naive_free_vars(g)


@given(_formulas())
def test_substitute_by_itself_is_identity(f):
    assert substitute(f, "x", Var("x")) == f


@given(_formulas(), _terms())
def test_free_vars_after_substitution(f, t):
    if "x" not in free_vars(f) or not is_free_for(t, "x", f):
        return
    got = free_vars(substitute(f, "x", t))
    want = (free_vars(f) - {"x"}) | free_vars(Atom("R", (t,)))
    assert got == want


@given(_formulas())
def test_split_implies_inverts(f):
    assert split_implies(implies(p, f)) == (p, f)


# -- deep formulas -----------------------------------------------------------
# Each shape is far deeper than the interpreter's recursion limit allows a
# recursive walk to go; every operation below must answer all the same.

_DEEP = {
    "knows-chain": "K[a] " * 499 + "p",
    "knows-chain-open": "K[a] " * 498 + "R(x)",
    "conjuncts": " & ".join(["R(x)"] * 2000),
    "implications": " -> ".join(["R(x)"] * 601),
    # terms of 498 applications over a variable
    "term": "R(" + "f(" * 498 + "x" + ")" * 499,
    "term-args": "R(" + "g(" * 498 + "x" + ",c)" * 498 + ")",
}


@pytest.mark.parametrize("text", list(_DEEP.values()), ids=list(_DEEP))
def test_deep_formula_operations(text):
    f, g = parse_formula(text), parse_formula(text)
    assert f is not g and f == g and not f != g and hash(f) == hash(g)
    last = text.rfind("x")   # the last variable, made y
    other = parse_formula(text[:last] + "y" + text[last + 1:] if last >= 0
                          else text[:-1] + "q")
    assert f != other and other != f
    if "->" not in text:
        assert print_formula(f) == text and parse_formula(text) == f
    else:
        # printed expanded, three levels per link
        want = "R(x)"
        for _ in range(600):
            want = f"!(R(x) & !{want})"
        assert print_formula(f) == want and parse_formula(want) == f
    assert free_vars(f) == ({"x"} if "x" in text else frozenset())
    closed = substitute(f, "x", c)
    assert closed == parse_formula(text.replace("x", "c"))
    assert free_vars(closed) == frozenset()
    assert is_free_for(y, "x", f)
    assert is_free_for(y, "x", Forall("y", f)) == ("x" not in text)
    if "x" in text:
        with pytest.raises(CaptureError):
            substitute(Forall("z", Forall("y", f)), "x", y)


@pytest.mark.parametrize("text, want", [
    (_DEEP["knows-chain"], {"s0", "s1", "s2"}),
    (_DEEP["knows-chain-open"], {"s0", "s1", "s2"}),
    (_DEEP["conjuncts"], {"s2"}),
    (_DEEP["implications"], {"s0", "s1", "s2"}),
    (_DEEP["term"], {"s2"}),
    (_DEEP["term-args"], {"s2"}),
], ids=list(_DEEP))
def test_deep_formula_extension(text, want):
    # p and R(d0) hold at s2 only; agent a steps s0 -> s1 -> s2 -> s2.
    m = Model(states=("s0", "s1", "s2"), domain=("d0",), agents=("a",),
              functions={"c": (0, {(): "d0"}), "f": (1, {("d0",): "d0"}),
                         "g": (2, {("d0", "d0"): "d0"})},
              relations={"p": (0, {"s2": frozenset({()})}),
                         "R": (1, {"s2": frozenset({("d0",)})})},
              access={"a": frozenset({("s0", "s1"), ("s1", "s2"),
                                      ("s2", "s2")})})
    ev = Evaluator(m)
    assert ev.extension(parse_formula(text), {"x": "d0"}) == want
    # a second, structurally equal copy meets the first in the same program
    assert ev.extension(parse_formula(text), {"x": "d0"}) == want
