import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pckfo.errors import EvalError, NotMeasurable, SchemaError
from pckfo.model import (
    CLASS_CON, CLASS_OBJ, CLASS_SDP, CLASS_UNIF, Model, ProbSpace, classify,
    measure, point_space, validate,
)
from pckfo.parser import load_model, model_to_doc

F = Fraction


def halves(weights=(F(1, 2), F(1, 2))):
    """The space over s0, s1 with one atom each, weighted as given."""
    return ProbSpace(frozenset(["s0", "s1"]),
                     (frozenset(["s0"]), frozenset(["s1"])), weights)


def two_state(weights=(F(1, 2), F(1, 2)), access=(("s0", "s1"),),
              **declared):
    """p at s0 only, one a-edge and the halves at both states; declared
    replaces the domain, functions, relations or groups."""
    declared = {"domain": ("d0",), "functions": {},
                "relations": {"p": (0, {"s0": frozenset({()}),
                                        "s1": frozenset()})},
                **declared}
    return Model(
        states=("s0", "s1"), agents=("a",),
        access={"a": frozenset(access)},
        prob={("a", s): halves(weights) for s in ("s0", "s1")},
        **declared)


def three_atom_model():
    sp = ProbSpace(frozenset(["s0", "s1", "s2"]),
                   (frozenset(["s0"]), frozenset(["s1", "s2"])),
                   (F(1, 3), F(2, 3)))
    return Model(
        states=("s0", "s1", "s2"), domain=("d0",), agents=("a",),
        functions={}, relations={},
        access={"a": frozenset()},
        prob={("a", s): sp for s in ("s0", "s1", "s2")},
    )


class TestValidate:
    def test_uniform_two_state_ok(self):
        assert validate(two_state()).verdict == "ok"

    def test_unnormalized_weights(self):
        rep = validate(two_state(weights=(F(1, 4), F(1, 2))))
        assert not rep.passed
        assert any("not normalized" in d["problem"] for d in rep.details)

    def test_relation_tuple_outside_domain(self):
        m = Model(states=("s0",), domain=("d0",), agents=("a",),
                  relations={"R": (1, {"s0": frozenset({("dX",)})})},
                  access={"a": frozenset()},
                  prob={("a", "s0"): point_space("s0")})
        rep = validate(m)
        assert any("outside domain" in d["problem"] for d in rep.details)

    def test_relation_tuples_reported_in_sorted_order(self):
        # a frozenset's order follows the hash seed; the report's must not
        bad = [(f"d{k}",) for k in range(9, 1, -1)] + [(), ("d0", "d0")]
        m = Model(states=("s0",), domain=("d0",), agents=("a",),
                  relations={"R": (1, {"s0": frozenset(bad)})},
                  prob={("a", "s0"): point_space("s0")})
        assert [d["problem"] for d in validate(m).details] == [
            f"tuple {t!r} " + ("outside domain" if len(t) == 1
                              else "has wrong arity")
            for t in sorted(bad)]

    def test_missing_space(self):
        m = Model(states=("s0",), domain=("d0",), agents=("a",),
                  access={"a": frozenset()}, prob={})
        rep = validate(m)
        assert any("missing probability space" in d["problem"]
                   for d in rep.details)

    def test_group_member_undeclared(self):
        rep = validate(two_state(groups={"G": ("zz",)}))
        assert any("not a declared agent" in d["problem"] for d in rep.details)

    @pytest.mark.parametrize("arity, problems", [
        (-1, ["negative arity -1"]),
        # the row count is reported, not the 9 million digit power
        (30_000_000, ["row ('d0',) has wrong arity",
                      "table not total: 1 of 2**30000000 rows"]),
        (3, ["row ('d0',) has wrong arity", "table not total: 1 of 8 rows"]),
    ], ids=["negative", "huge", "ordinary"])
    def test_function_arity_problems(self, arity, problems):
        m = two_state(domain=("d0", "d1"),
                      functions={"f": (arity, {("d0",): "d0"})})
        rep = validate(m)
        assert [d["problem"] for d in rep.details] == problems
        assert all(d["where"] == "functions.f" for d in rep.details)

    def test_negative_relation_arity(self):
        m = two_state(relations={"p": (-1, {})})
        assert validate(m).details == [{"where": "relations.p",
                                        "problem": "negative arity -1"}]

    def test_weights_outside_unit_interval(self):
        # 3/2 + (-1/2) sums to 1, so only the range check can catch it
        rep = validate(two_state(weights=(F(3, 2), F(-1, 2))))
        problems = [d["problem"] for d in rep.details]
        assert "weights must lie in [0, 1]" in problems
        assert not any("not normalized" in pr for pr in problems)

    def test_spaces_keyed_outside_reported(self):
        def bad():
            prob = {("a", s): halves() for s in ("s0", "s1")}
            prob.update({("zz", "s0"): point_space("s0"),
                         ("a", "s9"): point_space("s9")})
            return Model(states=("s0", "s1"), domain=("d0",), agents=("a",),
                         access={"a": frozenset({("s0", "s1")})}, prob=prob)
        first, again = bad(), bad()
        problems = [(d["where"], d["problem"])
                    for d in validate(first).details]
        assert problems == [
            ("prob.zz@s0", "space keyed by unknown agent or state"),
            ("prob.a@s9", "space keyed by unknown agent or state")]
        assert again == first
        assert [(d["where"], d["problem"])
                for d in validate(again).details] == problems

    def test_every_bad_edge_reported(self):
        bad = Model(
            states=("s0", "s1"), domain=("d0",), agents=("a",),
            access={"a": frozenset({("s0", "s1"), ("s1", "zz"),
                                    ("yy", "s0")}),
                    "ghost": frozenset({("s0", "s0")})},
            prob={("a", s): halves() for s in ("s0", "s1")})
        assert bad.successors("a", "s1") == {"zz"}
        rep = validate(bad)
        assert [(d["where"], d["problem"]) for d in rep.details] == [
            ("access.a", "edge ('s1', 'zz') outside state set"),
            ("access.a", "edge ('yy', 's0') outside state set"),
            ("access.ghost", "accessibility for undeclared agent"),
        ]

    def test_invalid_model_round_trips_through_its_document(self):
        # the undeclared agent's edges and the stray space are both written
        m = Model(["s0"], ["d"], ["a"],
                  prob={("a", "s0"): point_space("s0"),
                        ("zz", "s0"): point_space("s0")},
                  access={"ghost": {("s0", "s0")}})
        again = load_model(model_to_doc(m))
        assert again == m
        assert [(d["where"], d["problem"])
                for d in validate(again).details] == [
            ("access.ghost", "accessibility for undeclared agent"),
            ("prob.zz@s0", "space keyed by unknown agent or state")]

    def test_interleaved_strays_round_trip_through_the_document(self):
        # a document lists each agent's spaces together, after the declared
        # agents without strays: the stray of the declared agent follows
        # the undeclared agent's, and the model keeps each agent's together
        strays = {("zz", "s0"): point_space("s0"),
                  ("a", "s9"): point_space("s9"),
                  ("zz", "s1"): point_space("s1")}
        m = Model(("s0", "s1"), ("d0",), ("a", "b"),
                  access={"a": {("s0", "s1")}},
                  prob={**{(agent, state): halves() for agent in "ab"
                           for state in ("s0", "s1")}, **strays})
        assert [key for key, _ in m.strays] == [
            ("zz", "s0"), ("zz", "s1"), ("a", "s9")]
        doc = model_to_doc(m)
        assert list(doc["prob"]) == ["b", "zz", "a"]
        again = load_model(doc)
        assert again == m
        problems = [(d["where"], d["problem"]) for d in validate(m).details]
        assert problems == [
            ("prob.zz@s0", "space keyed by unknown agent or state"),
            ("prob.zz@s1", "space keyed by unknown agent or state"),
            ("prob.a@s9", "space keyed by unknown agent or state")]
        assert [(d["where"], d["problem"])
                for d in validate(again).details] == problems


def _space_doc(sample, atoms, *weights):
    return {"sample": sample, "atoms": atoms,
            "weights": {str(k): w for k, w in enumerate(weights)}}


def _report_doc(**changes):
    doc = {"states": ["s0", "s1", "s2", "s3"], "domain": ["d0", "d1"],
           "agents": ["a", "b"]}
    doc.update(changes)
    return doc


_FOUR = ["s0", "s1", "s2", "s3"]
_NOT_NORMALIZED = "measure not normalized: weights must sum to 1"
_OUT_OF_RANGE = "weights must lie in [0, 1]"
_NOT_PARTITION = "atoms must partition the sample set"
_OVERLAP = "atoms must be pairwise disjoint"

# (document, the details of its report in order)
_REPORTS = {
    # spaces that share a bad run of weights each report it, at its place
    "shared-bad-weight-runs": (_report_doc(prob={
        "a": {"s0": _space_doc(["s0", "s1"], [["s0"], ["s1"]], "1/2", "1/3"),
              "s1": _space_doc(["s1", "s2"], [["s1"], ["s2"]], "1/2", "1/3"),
              "s2": _space_doc(["s2", "s3"], [["s2"], ["s3"]], "1/2", "1/2"),
              "s3": _space_doc(["s0", "s3"], [["s0"], ["s3"]], "3/2",
                               "-1/2")},
        "b": {"s0": _space_doc(["s0", "s1"], [["s0"], ["s1"]], "1/2", "1/3"),
              "s2": _space_doc(["s1", "s2"], [["s1"], ["s2"]], "3/2",
                               "-1/2"),
              "s3": _space_doc(["s3", "s2"], [["s2"], ["s3"]], "-1", "3")}}),
        [("prob.a@s0", _NOT_NORMALIZED), ("prob.a@s1", _NOT_NORMALIZED),
         ("prob.a@s3", _OUT_OF_RANGE), ("prob.b@s0", _NOT_NORMALIZED),
         ("prob.b@s2", _OUT_OF_RANGE), ("prob.b@s3", _OUT_OF_RANGE),
         ("prob.b@s3", _NOT_NORMALIZED)]),
    # bad partitions, good weights but for the last space
    "bad-partitions": (_report_doc(prob={
        "a": {"s0": _space_doc(_FOUR, [["s0"], ["s1", "s0"], ["s2"]],
                               "1/4", "1/4", "1/2"),
              "s1": _space_doc(["s0", "s1"], [["s0"], []], "1", "0"),
              "s2": _space_doc(["s2"], [["s2"], ["s3"]], "1/2", "1/2"),
              "s3": _space_doc(["s0", "s3"], [["s3"]], "1")},
        "b": {"s1": _space_doc(["s1", "zz"], [["s1"], ["zz"]], "1/2", "1/2"),
              "s2": _space_doc(_FOUR, [["s0", "s1"], ["s1", "s2"]],
                               "2/3", "1/2")}}),
        [("prob.a@s0", _OVERLAP), ("prob.a@s0", _NOT_PARTITION),
         ("prob.a@s1", "empty atom in the partition"),
         ("prob.a@s1", _NOT_PARTITION), ("prob.a@s2", _NOT_PARTITION),
         ("prob.a@s3", _NOT_PARTITION),
         ("prob.b@s1", "sample set must be a subset of the states"),
         ("prob.b@s2", _OVERLAP), ("prob.b@s2", _NOT_PARTITION),
         ("prob.b@s2", _NOT_NORMALIZED)]),
    # by relation, state and tuple, each sorted
    "relation-tuples": (_report_doc(relations=[
        {"symbol": "R", "arity": 2, "table": {
            "s3": [["d0", "d1"], ["d0"], ["dX", "d0"], ["d1", "d1", "d1"]],
            "s1": [["d1", "d9"], [], ["d0", "d1"], ["d0"]],
            "s0": [["d0", "d0"]]}},
        {"symbol": "Q", "arity": 1, "table": {
            "s2": [["d0", "d0"], ["d2"]], "s0": [["d0"], ["d1"]],
            "s1": [["d0"], ["d7"]]}},
        {"symbol": "p", "arity": 0, "table": {"s0": [[]], "s1": [["d0"]]}}]),
        [("relations.Q@s1", "tuple ('d7',) outside domain"),
         ("relations.Q@s2", "tuple ('d0', 'd0') has wrong arity"),
         ("relations.Q@s2", "tuple ('d2',) outside domain"),
         ("relations.R@s1", "tuple () has wrong arity"),
         ("relations.R@s1", "tuple ('d0',) has wrong arity"),
         ("relations.R@s1", "tuple ('d1', 'd9') outside domain"),
         ("relations.R@s3", "tuple ('d0',) has wrong arity"),
         ("relations.R@s3", "tuple ('d1', 'd1', 'd1') has wrong arity"),
         ("relations.R@s3", "tuple ('dX', 'd0') outside domain"),
         ("relations.p@s1", "tuple ('d0',) has wrong arity")]),
    # an unknown state key reports among the states, in sorted order
    "relation-unknown-states": (_report_doc(relations=[
        {"symbol": "R", "arity": 1, "table": {
            "zz": [["d0"]], "s1": [["d0"], ["dX"]], "a0": [["d9"]],
            "s0": [["d0"]]}},
        {"symbol": "T", "arity": 1, "table": {"s4": [["d0"]],
                                              "s0": [["d1"]]}}]),
        [("relations.R", "table keyed by unknown state 'a0'"),
         ("relations.R@s1", "tuple ('dX',) outside domain"),
         ("relations.R", "table keyed by unknown state 'zz'"),
         ("relations.T", "table keyed by unknown state 's4'")]),
}


class TestValidateReports:
    """The details of `validate` on invalid models, in order, for loaded
    documents and for the same models built as `Model`s."""

    @pytest.mark.parametrize("name", sorted(_REPORTS))
    def test_loaded_model_report(self, name):
        doc, expected = _REPORTS[name]
        assert [(d["where"], d["problem"])
                for d in validate(load_model(doc)).details] == expected

    @pytest.mark.parametrize("name", sorted(_REPORTS))
    def test_built_model_report(self, name):
        # a built model shares no weight run between its spaces
        m = load_model(_REPORTS[name][0])
        built = Model(m.states, m.domain, m.agents, m.functions, m.relations,
                      groups=m.groups, prob={
                          (agent, state): m.space(agent, state)
                          for agent in m.agents for state in m.states})
        assert [(d["where"], d["problem"])
                for d in validate(built).details] == _REPORTS[name][1]


def _naive_measure(sp, event):
    ev = frozenset(event) & sp.sample
    total = Fraction(0)
    for atom, w in zip(sp.atoms, sp.weights):
        if atom <= ev:
            total += w
        elif atom & ev:
            raise NotMeasurable(None, None, atom)
    return total


class TestMeasure:
    def test_mixed_denominators_match_naive_sum(self):
        sp = ProbSpace(frozenset(["s0", "s1", "s2", "s3"]),
                       (frozenset(["s2", "s3"]), frozenset(["s0"]),
                        frozenset(["s1"])),
                       ("1/6", F(1, 2), F(1, 3)))
        universe = ["s0", "s1", "s2", "s3", "zz"]
        for k in range(len(universe) + 1):
            for event in itertools.combinations(universe, k):
                try:
                    want = _naive_measure(sp, event)
                except NotMeasurable as exc:
                    with pytest.raises(NotMeasurable) as err:
                        sp.measure(event, agent="a", state="s0")
                    assert err.value.atom == exc.atom == {"s2", "s3"}
                    assert (err.value.agent, err.value.state) == ("a", "s0")
                    continue
                got = sp.measure(event)
                assert got == want and type(got) is Fraction

    @pytest.mark.parametrize("weights", [(F(1),), (F(1, 2), F(1, 2), F(0))],
                             ids=["one-weight", "three-weights"])
    def test_weight_count_must_match_atoms(self, weights):
        with pytest.raises(SchemaError, match="one weight per atom"):
            ProbSpace(frozenset(["s0", "s1"]),
                      (frozenset(["s0"]), frozenset(["s1"])), weights)

    def test_whole_sample_is_one(self):
        m = three_atom_model()
        assert measure(m, "a", "s0", {"s0", "s1", "s2"}) == 1

    def test_empty_event_is_zero(self):
        m = three_atom_model()
        assert measure(m, "a", "s0", set()) == 0

    def test_atom_union(self):
        m = three_atom_model()
        assert measure(m, "a", "s0", {"s1", "s2"}) == F(2, 3)

    def test_straddling_event_raises(self):
        m = three_atom_model()
        with pytest.raises(NotMeasurable) as err:
            measure(m, "a", "s0", {"s1"})
        assert err.value.atom == frozenset({"s1", "s2"})

    def test_finite_additivity_exhaustive(self):
        # additivity over every pair of disjoint atom unions
        m = three_atom_model()
        sp = m.space("a", "s0")
        unions = []
        for k in range(len(sp.atoms) + 1):
            for combo in itertools.combinations(sp.atoms, k):
                unions.append(frozenset().union(*combo) if combo else frozenset())
        for ev_a in unions:
            for ev_b in unions:
                if ev_a & ev_b:
                    continue
                assert measure(m, "a", "s0", ev_a | ev_b) == \
                    measure(m, "a", "s0", ev_a) + measure(m, "a", "s0", ev_b)

    def test_complement_law(self):
        m = three_atom_model()
        sp = m.space("a", "s0")
        for atom in sp.atoms:
            rest = sp.sample - atom
            assert measure(m, "a", "s0", atom) + measure(m, "a", "s0", rest) == 1


class TestStateLookup:
    """`space` and `successors` find a state by its sorted position."""

    N = 100

    @classmethod
    def model(cls):
        # s000 -> s001 -> ... -> s099 -> s000, and each state's space
        # halves over the state and its successor
        states = [f"s{k:03d}" for k in range(cls.N)]
        nxt = dict(zip(states, states[1:] + states[:1]))
        return Model(
            states=states[::-1], domain=("d0",), agents=("a",),
            access={"a": frozenset(nxt.items())},
            prob={("a", s): ProbSpace(frozenset([s, t]),
                                      (frozenset([s]), frozenset([t])),
                                      (F(1, 3), F(2, 3)))
                  for s, t in nxt.items()}), nxt

    def test_every_state(self):
        m, nxt = self.model()
        assert (m.states[0], m.states[-1]) == ("s000", "s099")
        for s, t in nxt.items():
            assert m.successors("a", s) == {t}
            sp = m.space("a", s)
            assert sp.sample == {s, t}
            assert measure(m, "a", s, {s}) == F(1, 3)

    @pytest.mark.parametrize("name", ["zz", "s", "s0", "s100", "", 5, None])
    def test_unknown_name(self, name):
        m, _ = self.model()
        assert m.successors("a", name) == frozenset()
        with pytest.raises(EvalError, match="no probability space"):
            m.space("a", name)
        with pytest.raises(EvalError, match="undeclared agent"):
            m.successors("b", "s000")

    def test_name_past_the_states(self):
        # an invalid model keeps an edge from a name that is no state
        m = Model(states=("s0", "s1"), domain=("d0",), agents=("a",),
                  access={"a": frozenset({("zz", "s1"), ("s0", "zz")})})
        assert m.successors("a", "zz") == {"s1"}
        assert m.successors("a", "s0") == {"zz"}
        with pytest.raises(EvalError, match="no probability space"):
            m.space("a", "zz")


class TestClassify:
    def test_con_when_sample_within_successors(self):
        m = two_state(access=(("s0", "s0"), ("s0", "s1"),
                              ("s1", "s0"), ("s1", "s1")))
        assert CLASS_CON in classify(m)
        assert CLASS_CON not in classify(two_state())

    def test_obj_with_identical_tables(self):
        base = two_state()
        sp = base.space("a", "s0")
        m = Model(states=base.states, domain=base.domain, agents=("a", "b"),
                  relations=base.relations,
                  access={"a": frozenset({("s0", "s1")}), "b": frozenset()},
                  prob={(i, s): sp for i in ("a", "b")
                        for s in ("s0", "s1")})
        flags = classify(m)
        assert CLASS_OBJ in flags
        assert CLASS_SDP in flags and CLASS_UNIF in flags

    def test_sdp_unset_on_differing_successor_space(self):
        m = two_state()
        other = ProbSpace(frozenset(["s1"]), (frozenset(["s1"]),), (F(1),))
        m2 = Model(states=m.states, domain=m.domain, agents=m.agents,
                   relations=m.relations,
                   access={"a": frozenset({("s0", "s1")})},
                   prob={("a", "s0"): m.space("a", "s0"), ("a", "s1"): other})
        assert CLASS_SDP in classify(m)
        assert CLASS_SDP not in classify(m2)  # s1 in successors(a, s0)

    def test_renaming_invariance(self):
        edges = (("s0", "s0"), ("s0", "s1"), ("s1", "s0"), ("s1", "s1"))
        m = two_state(access=edges)
        rename = {"s0": "t1", "s1": "t0"}

        def rn_space(sp):
            return ProbSpace(frozenset(rename[s] for s in sp.sample),
                             tuple(frozenset(rename[s] for s in a)
                                   for a in sp.atoms),
                             sp.weights)

        m2 = Model(
            states=tuple(rename[s] for s in m.states), domain=m.domain,
            agents=m.agents,
            relations={sym: (ar, {rename[s]: rows for s, rows in tab.items()})
                       for sym, (ar, tab) in m.relations.items()},
            access={"a": frozenset((rename[s], rename[t]) for (s, t) in edges)},
            prob={("a", rename[s]): rn_space(m.space("a", s))
                  for s in m.states})
        assert classify(m) == classify(m2)


_STATES = ("s0", "s1", "s2", "s3")
_edges = st.frozensets(
    st.tuples(st.sampled_from(_STATES + ("zz",)), st.sampled_from(_STATES)),
    max_size=12)


@given(st.fixed_dictionaries({"a": _edges}, optional={"b": _edges}))
def test_index_matches_edge_scan(access):
    m = Model(states=_STATES, domain=("d0",), agents=("a", "b"),
              access=access)
    for agent in ("a", "b"):
        pairs = access.get(agent, ())
        for s in _STATES + ("zz",):
            assert m.successors(agent, s) == frozenset(
                t for (x, t) in pairs if x == s)
    with pytest.raises(EvalError):
        m.successors("c", "s0")
    rebuilt = Model(states=_STATES, domain=("d0",), agents=("a", "b"),
                    access={"a": frozenset({("s0", "s3")})})
    assert rebuilt.successors("a", "s0") == {"s3"}
    assert rebuilt.successors("b", "s0") == frozenset()
    assert m == Model(states=_STATES, domain=("d0",), agents=("a", "b"),
                      access=access)
    # only the declared data and the rows are stored
    assert not hasattr(m, "access") and not hasattr(m, "prob")
    assert set(vars(m)) == {"states", "domain", "agents", "functions",
                            "relations", "groups", "names", "pred", "spaces",
                            "strays"}
