import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import teaches
from dodl.core import Domain, PotentialObject, number, symbol
from dodl.diagrams import (
    Const,
    FalsePred,
    Filter,
    Member,
    Var,
    Wildcard,
)
from dodl.errors import (
    IndexNotInDomain,
    ScriptError,
    UnknownEvolvent,
    UnknownPotentialObject,
    UnknownRequestKind,
    UnknownScript,
)
from dodl.evolver import (
    EventScript,
    Evolvent,
    Exchange,
    GetAO,
    GetConcept,
    GetPO,
    Query,
    Trigger,
    apply_evolvent,
    derive_actual,
    materialize_functor,
    run_script,
    trigger,
)
from dodl.relational import OracleExpr, RelName, Relation, oracle_index
from reference import reference_filter
from wsgen import WORDS, gen_indexed_case, gen_workspace


class TestTrigger:
    def test_logic_extension(self, teaching_ws):
        state, ao = trigger(teaching_ws, "Tch", symbol("Logic"))
        assert ao.name == "Tch_Logic"
        assert ao.elements == frozenset({symbol("Johnes"), symbol("Smith")})
        assert state.ao_library["Tch_Logic"] is ao
        assert state.stage == teaching_ws.stage + 1

    def test_informatics_extension(self, teaching_ws):
        _, ao = trigger(teaching_ws, "Tch", symbol("Informatics"))
        assert ao.elements == frozenset({symbol("Doe"), symbol("Jackson")})

    def test_elements_match_the_raw_rows(self, teaching_ws):
        for course in ("Logic", "Informatics"):
            _, ao = trigger(teaching_ws, "Tch", symbol(course))
            expected = {
                t.text for t in teaching_ws.domains["Teach"].elements
                if teaches(course, t.text)
            }
            assert {a.text for a in ao.elements} == expected

    def test_false_filter_gives_empty_object(self, teaching_ws):
        silenced = teaching_ws.replace(
            filters={**teaching_ws.filters,
                     "NoPass": Filter("NoPass", "i", "x", FalsePred())},
        )
        po = silenced.potentials["Tch"].replace(
            name="Quiet", filter=silenced.filters["NoPass"])
        silenced = silenced.replace(
            potentials={**silenced.potentials, "Quiet": po})
        state, ao = trigger(silenced, "Quiet", symbol("Logic"))
        assert ao.elements == frozenset()
        assert "Quiet_Logic" in state.ao_library

    def test_unknown_potential_object(self, teaching_ws):
        with pytest.raises(UnknownPotentialObject):
            trigger(teaching_ws, "Nobody", symbol("Logic"))

    def test_index_must_be_in_domain(self, teaching_ws):
        with pytest.raises(IndexNotInDomain):
            trigger(teaching_ws, "Tch", symbol("Algebra"))

    def test_an_index_outside_the_domain_runs_no_filter(self, teaching_ws,
                                                        monkeypatch):
        calls = []
        monkeypatch.setattr("dodl.evolver.run_filter",
                            lambda *args: calls.append(args))
        po = teaching_ws.potentials["Tch"]
        with pytest.raises(IndexNotInDomain) as raised:
            derive_actual(teaching_ws, po, symbol("Algebra"))
        assert str(raised.value) == "'Algebra' is not in domain 'Course'"
        assert calls == []

    def test_retrigger_replaces_and_advances(self, teaching_ws):
        s1, first = trigger(teaching_ws, "Tch", symbol("Logic"))
        s2, second = trigger(s1, "Tch", symbol("Logic"))
        assert s2.stage == s1.stage + 1
        assert s2.ao_library["Tch_Logic"] == second == first
        assert len(s2.ao_library) == 1

    def test_trigger_is_pure(self, teaching_ws):
        before = dict(teaching_ws.ao_library)
        a1 = trigger(teaching_ws, "Tch", symbol("Logic"))
        a2 = trigger(teaching_ws, "Tch", symbol("Logic"))
        assert a1 == a2
        assert teaching_ws.ao_library == before
        assert teaching_ws.stage == 0

    def test_subset_of_carrier(self, teaching_ws):
        state = teaching_ws
        for course in ("Logic", "Informatics"):
            state, ao = trigger(state, "Tch", symbol(course))
        for ao in state.ao_library.values():
            po = state.potentials[ao.provenance[0]]
            assert ao.elements <= po.carrier.elements


class TestMaterializeFunctor:
    def test_whole_mapping(self, teaching_ws):
        mapping = materialize_functor(teaching_ws, "Tch")
        assert {i.text for i in mapping} == {"Logic", "Informatics"}
        assert mapping[symbol("Logic")].elements == \
            frozenset({symbol("Johnes"), symbol("Smith")})
        assert mapping[symbol("Informatics")].elements == \
            frozenset({symbol("Doe"), symbol("Jackson")})
        assert teaching_ws.stage == 0 and not teaching_ws.ao_library

    def test_empty_index_domain(self, teaching_ws):
        from dodl.core import Domain, PotentialObject

        hollow = Domain("Hollow", teaching_ws.sorts["Course"], frozenset())
        po = PotentialObject("Idle", teaching_ws.domains["Teach"], hollow,
                             teaching_ws.filters["TchFilter"])
        ws = teaching_ws.replace(
            domains={**teaching_ws.domains, "Hollow": hollow},
            potentials={**teaching_ws.potentials, "Idle": po})
        assert materialize_functor(ws, "Idle") == {}

    def test_agrees_with_the_relational_oracle(self, teaching_ws):
        mapping = materialize_functor(teaching_ws, "Tch")
        extensions = oracle_index(teaching_ws.relations["Relationship1"],
                                  "Course", "Name")
        for index, ao in mapping.items():
            assert ao.elements == extensions.get(index, frozenset())


class TestRunScript:
    def test_teaching_script(self, teaching_ws):
        state = run_script(teaching_ws, "AssignAll")
        assert set(state.ao_library) == {"Tch_Logic", "Tch_Informatics"}
        assert state.stage == teaching_ws.stage + 2

    def test_empty_script(self, teaching_ws):
        ws = teaching_ws.replace(
            scripts={**teaching_ws.scripts, "Nil": EventScript("Nil", ())},
        )
        state = run_script(ws, "Nil")
        assert state.stage == ws.stage
        assert state.ao_library == ws.ao_library

    def test_unknown_script(self, teaching_ws):
        with pytest.raises(UnknownScript):
            run_script(teaching_ws, "Nowhere")

    def test_failure_is_atomic_and_names_the_step(self, teaching_ws):
        bad = EventScript("Bad", (("Tch", symbol("Logic")),
                                  ("Tch", symbol("Algebra"))))
        ws = teaching_ws.replace(
            scripts={**teaching_ws.scripts, "Bad": bad})
        with pytest.raises(ScriptError) as exc:
            run_script(ws, "Bad")
        assert exc.value.step == 2
        assert isinstance(exc.value.cause, IndexNotInDomain)
        assert ws.ao_library == {}
        assert ws.stage == 0


class TestApplyEvolvent:
    def test_identity_is_a_fixed_point(self, teaching_ws):
        state = run_script(teaching_ws, "AssignAll")
        after = apply_evolvent(state, "Still")
        assert after == state
        assert after.ao_library == state.ao_library
        assert after.stage == state.stage

    def test_script_evolvent(self, teaching_ws):
        direct = run_script(teaching_ws, "AssignAll")
        via = apply_evolvent(teaching_ws, "Assign")
        assert via == direct

    def test_composition_is_sequential(self, teaching_ws):
        twice = apply_evolvent(teaching_ws, "AssignTwice")
        stepwise = apply_evolvent(apply_evolvent(teaching_ws, "Assign"),
                                  "Assign")
        assert twice == stepwise
        assert twice.stage == 4
        assert twice.ao_library == stepwise.ao_library

    def test_unknown_evolvent(self, teaching_ws):
        with pytest.raises(UnknownEvolvent):
            apply_evolvent(teaching_ws, "Nowhere")

    def test_nested_parts_run_depth_first_left_to_right(self, teaching_ws):
        bad = EventScript("Bad", (("Tch", symbol("Algebra")),))
        ws = teaching_ws.replace(
            scripts={**teaching_ws.scripts, "Bad": bad},
            evolvents={
                **teaching_ws.evolvents,
                "Fails": Evolvent("Fails", "script", script="Bad"),
                "Inner": Evolvent("Inner", "composed", parts=("Assign", "Fails")),
                "BadFirst": Evolvent("BadFirst", "composed",
                                     parts=("Inner", "Missing")),
                "MissingFirst": Evolvent("MissingFirst", "composed",
                                         parts=("Assign", "Missing", "Inner")),
                "Nested": Evolvent("Nested", "composed",
                                   parts=("Still", "AssignTwice", "Assign")),
            },
        )
        with pytest.raises(ScriptError):
            apply_evolvent(ws, "BadFirst")
        with pytest.raises(UnknownEvolvent, match="'Missing'"):
            apply_evolvent(ws, "MissingFirst")
        assert apply_evolvent(ws, "Nested").stage == 6

    def test_a_deep_composition_needs_no_recursion(self, teaching_ws):
        depth = 5000
        chain = {f"Deep{i}": Evolvent(f"Deep{i}", "composed",
                                      parts=(f"Deep{i - 1}",))
                 for i in range(1, depth)}
        chain["Deep0"] = Evolvent("Deep0", "composed", parts=("Assign",))
        ws = teaching_ws.replace(
            evolvents={**teaching_ws.evolvents, **chain})
        assert apply_evolvent(ws, f"Deep{depth - 1}") == \
            apply_evolvent(ws, "Assign")

    def test_stage_never_decreases(self, teaching_ws):
        state = teaching_ws
        stages = [state.stage]
        for name in ("Still", "Assign", "AssignTwice", "Still"):
            state = apply_evolvent(state, name)
            stages.append(state.stage)
        assert stages == sorted(stages)


class TestOracleEquivalence:
    def test_membership_filters_agree_with_the_oracle(self):
        rng = random.Random(99)
        for _ in range(30):
            ws, po_name, raw_rows, index_pos, candidate_pos = gen_indexed_case(rng)
            po = ws.potentials[po_name]
            relation = ws.relations["R"]
            index_attr = relation.attribute_names[index_pos]
            target_attr = relation.attribute_names[candidate_pos]
            extensions = oracle_index(relation, index_attr, target_attr)
            for index in po.index_domain.sorted_elements():
                _, ao = trigger(ws, po_name, index)
                via_oracle = extensions.get(index, frozenset())
                brute = {
                    row[candidate_pos] for row in raw_rows
                    if row[index_pos] == index.text
                }
                assert {a.text for a in ao.elements} == brute
                assert {a.text for a in via_oracle} == brute


def probe_cases(seed: int):
    """A generated workspace and potential objects to derive over it.

    Besides the generated potentials, every relation gets an empty twin, and
    each relation and twin gets filters the generator never draws: an
    all-wildcard pattern, and a pattern mixing variables, wildcards and
    numeric and symbolic constants regardless of the attribute's sort. A
    variable of the mixed pattern ranges over its column's values, so that
    candidates match some tuples and miss others.
    """
    rng = random.Random(seed)
    ws = gen_workspace(rng)
    relations = dict(ws.relations)
    for name, relation in ws.relations.items():
        relations[name + "e"] = Relation(name + "e", relation.attributes,
                                          frozenset())
    ws = ws.replace(relations=relations)

    def domain(relation, pattern, var, fallback):
        for position, term in enumerate(pattern):
            if term == Var(var) and relation.tuples:
                cells = {row[position] for row in relation.tuples}
                return Domain("D" + var, relation.attributes[position][1], cells)
        return fallback

    potentials = list(ws.potentials.values())
    for name, relation in sorted(relations.items()):
        terms = [Var("i"), Var("x"), Wildcard(),
                 Const(number(rng.randrange(31))),
                 Const(symbol(rng.choice(WORDS)))]
        mixed = tuple(rng.choice(terms) for _ in range(relation.arity))
        for pattern in ((Wildcard(),) * relation.arity, mixed):
            f = Filter("Fp", "i", "x", Member(name, pattern))
            potentials.append(PotentialObject(
                "Q", domain(relation, pattern, "x", ws.domains["D0"]),
                domain(relation, pattern, "i", ws.domains["D1"]), f))
    return ws, potentials


class TestProbeMatchesScan:
    @settings(max_examples=150, deadline=500)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_derive_actual_equals_a_plain_scan(self, seed):
        ws, potentials = probe_cases(seed)
        for po in potentials:
            f = po.filter
            for index in po.index_domain.elements:
                expected = frozenset(
                    c for c in po.carrier.elements
                    if reference_filter(f, index, c, ws)
                )
                assert derive_actual(ws, po, index).elements == expected


class TestExchange:
    def test_get_actual_object_after_trigger(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        exchange.dispatch(Trigger("Tch", symbol("Logic")))
        response = exchange.dispatch(GetAO("Tch_Logic"))
        assert response.ok
        assert response.value.elements == \
            frozenset({symbol("Johnes"), symbol("Smith")})

    def test_get_before_trigger_is_not_found_not_raised(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        response = exchange.dispatch(GetAO("Tch_Logic"))
        assert not response.ok
        assert response.error_kind == "NotFound"

    def test_get_potential_and_concept(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        assert exchange.dispatch(GetPO("Tch")).ok
        assert exchange.dispatch(GetConcept("TeachingPost")).ok
        assert not exchange.dispatch(GetConcept("Void")).ok

    def test_trigger_errors_are_structured(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        response = exchange.dispatch(Trigger("Tch", symbol("Algebra")))
        assert not response.ok
        assert response.error_kind == "IndexNotInDomain"
        assert exchange.state.stage == 0

    def test_query_matches_the_direct_call(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        expr = OracleExpr(RelName("Relationship1"), "Course",
                          symbol("Logic"), "Name")
        response = exchange.dispatch(Query(expr))
        assert response.ok
        direct = oracle_index(teaching_ws.relations["Relationship1"],
                              "Course", "Name")[symbol("Logic")]
        assert response.value == direct

    def test_unknown_request_kind_raises(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        with pytest.raises(UnknownRequestKind):
            exchange.dispatch("just a string")

    def test_audit_records_every_exchange_with_its_stage(self, teaching_ws):
        exchange = Exchange(teaching_ws)
        exchange.dispatch(GetAO("Tch_Logic"))
        exchange.dispatch(Trigger("Tch", symbol("Logic")))
        exchange.dispatch(GetAO("Tch_Logic"))
        lines = exchange.audit_text().splitlines()
        assert lines == [
            "0\tGetAO\tTch_Logic\tNotFound",
            "0\tTrigger\tTch[Logic]\tok",
            "1\tGetAO\tTch_Logic\tok",
        ]
