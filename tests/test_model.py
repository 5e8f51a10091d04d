import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pckfo.errors import EvalError, NotMeasurable, SchemaError
from pckfo.model import (
    CLASS_CON, CLASS_OBJ, CLASS_SDP, CLASS_UNIF, Model, ProbSpace, classify,
    measure, point_space, validate,
)

F = Fraction


def two_state(weights=(F(1, 2), F(1, 2)), access=(("s0", "s1"),)):
    return Model(
        states=("s0", "s1"), domain=("d0",), agents=("a",),
        functions={}, relations={"p": (0, {"s0": frozenset({()}),
                                           "s1": frozenset()})},
        access={"a": frozenset(access)},
        prob={("a", s): ProbSpace(frozenset(["s0", "s1"]),
                                  (frozenset(["s0"]), frozenset(["s1"])),
                                  weights)
              for s in ("s0", "s1")},
    )


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

    def test_missing_space(self):
        m = Model(states=("s0",), domain=("d0",), agents=("a",),
                  access={"a": frozenset()}, prob={})
        rep = validate(m)
        assert any("missing probability space" in d["problem"]
                   for d in rep.details)

    def test_group_member_undeclared(self):
        m = two_state()
        bad = Model(states=m.states, domain=m.domain, agents=m.agents,
                    relations=m.relations, access=m.access, prob=m.prob,
                    groups={"G": ("zz",)})
        rep = validate(bad)
        assert any("not a declared agent" in d["problem"] for d in rep.details)

    def test_weights_outside_unit_interval(self):
        # 3/2 + (-1/2) sums to 1, so only the range check can catch it
        rep = validate(two_state(weights=(F(3, 2), F(-1, 2))))
        problems = [d["problem"] for d in rep.details]
        assert "weights must lie in [0, 1]" in problems
        assert not any("not normalized" in pr for pr in problems)

    def test_every_bad_edge_reported(self):
        m = two_state()
        bad = dataclasses.replace(m, access={
            "a": frozenset({("s0", "s1"), ("s1", "zz"), ("yy", "s0")}),
            "ghost": frozenset({("s0", "s0")})})
        assert bad.successors("a", "s1") == {"zz"}
        assert bad.predecessors("a", "s0") == ("yy",)
        rep = validate(bad)
        assert [(d["where"], d["problem"]) for d in rep.details] == [
            ("access.a", "edge ('s1', 'zz') outside state set"),
            ("access.a", "edge ('yy', 's0') outside state set"),
            ("access.ghost", "accessibility for undeclared agent"),
        ]


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
        sp = m.prob[("a", "s0")]
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
        sp = m.prob[("a", "s0")]
        for atom in sp.atoms:
            rest = sp.sample - atom
            assert measure(m, "a", "s0", atom) + measure(m, "a", "s0", rest) == 1


class TestClassify:
    def test_con_when_sample_within_successors(self):
        m = two_state(access=(("s0", "s0"), ("s0", "s1"),
                              ("s1", "s0"), ("s1", "s1")))
        assert CLASS_CON in classify(m)
        assert CLASS_CON not in classify(two_state())

    def test_obj_with_identical_tables(self):
        base = two_state()
        sp = base.prob[("a", "s0")]
        m = Model(states=base.states, domain=base.domain, agents=("a", "b"),
                  relations=base.relations,
                  access={"a": base.access["a"], "b": frozenset()},
                  prob={(i, s): sp for i in ("a", "b")
                        for s in ("s0", "s1")})
        flags = classify(m)
        assert CLASS_OBJ in flags
        assert CLASS_SDP in flags and CLASS_UNIF in flags

    def test_sdp_unset_on_differing_successor_space(self):
        m = two_state()
        other = ProbSpace(frozenset(["s1"]), (frozenset(["s1"]),), (F(1),))
        prob = dict(m.prob)
        prob[("a", "s1")] = other
        m2 = Model(states=m.states, domain=m.domain, agents=m.agents,
                   relations=m.relations, access=m.access, prob=prob)
        assert CLASS_SDP not in classify(m2)  # s1 in successors(a, s0)

    def test_renaming_invariance(self):
        m = two_state(access=(("s0", "s0"), ("s0", "s1"),
                              ("s1", "s0"), ("s1", "s1")))
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
            access={i: frozenset((rename[s], rename[t]) for (s, t) in pairs)
                    for i, pairs in m.access.items()},
            prob={(i, rename[s]): rn_space(sp)
                  for (i, s), sp in m.prob.items()})
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
            assert sorted(m.predecessors(agent, s)) == sorted(
                x for (x, t) in pairs if t == s)
    with pytest.raises(EvalError):
        m.successors("c", "s0")
    with pytest.raises(EvalError):
        m.predecessors("c", "s0")
    rebuilt = dataclasses.replace(m, access={"a": frozenset({("s0", "s3")})})
    assert rebuilt.successors("a", "s0") == {"s3"}
    assert rebuilt.successors("b", "s0") == frozenset()
    assert m == Model(states=_STATES, domain=("d0",), agents=("a", "b"),
                      access=access)
    assert "_succ" not in repr(m) and "_pred" not in repr(m)
