import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COURSES, TEACHERS, teaches
from dodl.core import Environment, symbol
from dodl.diagrams import (
    And,
    Apply,
    CommutativityReport,
    Const,
    DiagramSpec,
    Eq,
    FalsePred,
    Filter,
    FilterRef,
    Fst,
    IdArrow,
    IndexShift,
    Input,
    Member,
    Not,
    Or,
    Pair,
    Shape,
    ShiftFn,
    Snd,
    Subst,
    TruePred,
    Var,
    Wildcard,
    check_commutes,
    compile_predicate,
    enumerate_entry,
    eval_expr,
    eval_predicate,
    run_filter,
)
from dodl.errors import (
    ArityMismatch,
    DefinitionError,
    EvalTypeError,
    IndexNotInDomain,
    UnboundVariable,
    UnknownRelation,
)
from dodl.evolver import Workspace
from dodl.relational import Relation
from reference import outcome, reference_filter, reference_predicate
from wsgen import gen_indexed_case, gen_workspace

EMPTY = Environment.empty()



symbolic_atoms = st.text(
    alphabet=st.sampled_from("abcdefghXYZ"), min_size=1, max_size=6
).map(symbol)


class TestEvalExpr:
    def test_fst_projects_first(self, teaching_ws):
        expr = Fst(Pair(Const(symbol("Logic")), Const(symbol("Jones"))))
        assert eval_expr(expr, EMPTY, teaching_ws) == symbol("Logic")

    def test_apply_filter_accepts_assigned_pair(self, teaching_ws):
        expr = Apply(FilterRef("TchFilter"),
                     Pair(Const(symbol("Logic")), Const(symbol("Johnes"))))
        assert eval_expr(expr, EMPTY, teaching_ws) is True

    def test_apply_filter_rejects_unassigned_pair(self, teaching_ws):
        # Independent check first: no (Logic, Doe, _) assignment row exists.
        assert not teaches("Logic", "Doe")
        expr = Apply(FilterRef("TchFilter"),
                     Pair(Const(symbol("Logic")), Const(symbol("Doe"))))
        assert eval_expr(expr, EMPTY, teaching_ws) is False

    def test_var_reads_environment(self, teaching_ws):
        env = EMPTY.bind("x", symbol("Doe"))
        assert eval_expr(Var("x"), env, teaching_ws) == symbol("Doe")
        with pytest.raises(UnboundVariable):
            eval_expr(Var("y"), env, teaching_ws)

    def test_fst_of_non_pair_is_a_type_error(self, teaching_ws):
        with pytest.raises(EvalTypeError):
            eval_expr(Fst(Const(symbol("Logic"))), EMPTY, teaching_ws)

    def test_id_arrow_passes_through(self, teaching_ws):
        expr = IdArrow(Const(symbol("Smith")))
        assert eval_expr(expr, EMPTY, teaching_ws) == symbol("Smith")

    def test_subst_binds_in_child_environment_only(self, teaching_ws):
        env = EMPTY.bind("a", symbol("Logic"))
        expr = Subst("x", Var("x"), Const(symbol("Jones")))
        assert eval_expr(expr, env, teaching_ws) == symbol("Jones")
        assert env.stage == 1
        assert "x" not in env

    def test_subst_value_must_be_an_element(self, teaching_ws):
        expr = Subst("x", Var("x"),
                     Pair(Const(symbol("a")), Const(symbol("b"))))
        with pytest.raises(EvalTypeError):
            eval_expr(expr, EMPTY, teaching_ws)

    def test_index_shift_curries_the_potential_object(self, teaching_ws):
        shifted = eval_expr(IndexShift("Tch", Const(symbol("Logic"))),
                            EMPTY, teaching_ws)
        assert isinstance(shifted, ShiftFn)
        applied = eval_expr(
            Apply(IndexShift("Tch", Const(symbol("Logic"))),
                  Const(symbol("Smith"))),
            EMPTY, teaching_ws,
        )
        assert applied is True

    def test_index_shift_checks_the_index_domain(self, teaching_ws):
        expr = IndexShift("Tch", Const(symbol("Algebra")))
        with pytest.raises(IndexNotInDomain):
            eval_expr(expr, EMPTY, teaching_ws)

    def test_apply_of_non_function_is_a_type_error(self, teaching_ws):
        expr = Apply(Const(symbol("Logic")), Const(symbol("Doe")))
        with pytest.raises(EvalTypeError):
            eval_expr(expr, EMPTY, teaching_ws)

    def test_input_outside_a_path_is_a_type_error(self, teaching_ws):
        with pytest.raises(EvalTypeError):
            eval_expr(Input(), EMPTY, teaching_ws)

    @given(symbolic_atoms, symbolic_atoms)
    def test_projection_laws(self, a, b):
        ws = Workspace.empty()
        pair = Pair(Const(a), Const(b))
        assert eval_expr(Fst(pair), EMPTY, ws) == a
        assert eval_expr(Snd(pair), EMPTY, ws) == b


class TestEvalPredicate:
    def test_member_with_bound_variables(self, teaching_ws):
        pred = Member("Relationship1", (Var("idx"), Var("x"), Wildcard()))
        env = EMPTY.bind("idx", symbol("Logic")).bind("x", symbol("Smith"))
        assert eval_predicate(pred, env, teaching_ws) is True

    def test_member_scans_all_rows(self, teaching_ws):
        assert not teaches("Informatics", "Smith")
        pred = Member("Relationship1", (Var("idx"), Var("x"), Wildcard()))
        env = EMPTY.bind("idx", symbol("Informatics")).bind("x", symbol("Smith"))
        assert eval_predicate(pred, env, teaching_ws) is False

    def test_boolean_identities(self, teaching_ws):
        assert eval_predicate(And(TruePred(), Not(FalsePred())),
                              EMPTY, teaching_ws) is True
        assert eval_predicate(Or(FalsePred(), FalsePred()),
                              EMPTY, teaching_ws) is False

    def test_eq_compares_atoms(self, teaching_ws):
        env = EMPTY.bind("x", symbol("Doe"))
        assert eval_predicate(Eq(Var("x"), Const(symbol("Doe"))),
                              env, teaching_ws) is True
        assert eval_predicate(Eq(Var("x"), Const(symbol("Smith"))),
                              env, teaching_ws) is False

    def test_unknown_relation(self, teaching_ws):
        pred = Member("Nowhere", (Wildcard(),))
        with pytest.raises(UnknownRelation):
            eval_predicate(pred, EMPTY, teaching_ws)

    def test_pattern_arity_checked(self, teaching_ws):
        pred = Member("Relationship1", (Wildcard(), Wildcard()))
        with pytest.raises(ArityMismatch):
            eval_predicate(pred, EMPTY, teaching_ws)

    def test_unbound_variable_propagates(self, teaching_ws):
        pred = Member("Relationship1", (Var("idx"), Wildcard(), Wildcard()))
        with pytest.raises(UnboundVariable):
            eval_predicate(pred, EMPTY, teaching_ws)

    def test_errors_are_raised_before_the_probe(self, teaching_ws, monkeypatch):
        def probe(self, positions):
            raise AssertionError("probed before checking the pattern")

        monkeypatch.setattr(Relation, "probe_index", probe)
        for pred, error in [
            (Member("Nowhere", (Wildcard(),)), UnknownRelation),
            (Member("Relationship1", (Wildcard(), Wildcard())), ArityMismatch),
            (Member("Relationship1", (Wildcard(), Wildcard(), Var("x"))),
             UnboundVariable),
        ]:
            with pytest.raises(error):
                eval_predicate(pred, EMPTY, teaching_ws)


class TestRunFilter:
    def test_assigned_pair_passes(self, teaching_ws):
        f = teaching_ws.filters["TchFilter"]
        assert run_filter(f, symbol("Logic"), symbol("Johnes"), teaching_ws) is True

    def test_unassigned_pair_fails(self, teaching_ws):
        assert not teaches("Logic", "Jackson")
        f = teaching_ws.filters["TchFilter"]
        assert run_filter(f, symbol("Logic"), symbol("Jackson"), teaching_ws) is False

    def test_constant_true_filter(self, teaching_ws):
        f = Filter("AllPass", "i", "x", TruePred())
        assert run_filter(f, symbol("anything"), symbol("else"), teaching_ws) is True

    def test_equals_two_bind_expansion_on_teaching_pairs(self, teaching_ws):
        f = teaching_ws.filters["TchFilter"]
        for course in COURSES:
            for teacher in TEACHERS:
                i, c = symbol(course), symbol(teacher)
                direct = run_filter(f, i, c, teaching_ws)
                expanded = reference_filter(f, i, c, teaching_ws)
                assert direct == expanded == teaches(course, teacher)

    def test_equals_two_bind_expansion_on_random_corpora(self):
        rng = random.Random(20)
        for _ in range(25):
            ws, po_name, _, _, _ = gen_indexed_case(rng)
            po = ws.potentials[po_name]
            f = po.filter
            for i in po.index_domain.sorted_elements():
                for c in po.carrier.sorted_elements():
                    direct = run_filter(f, i, c, ws)
                    assert direct == reference_filter(f, i, c, ws)

    def test_filter_declares_exactly_two_distinct_variables(self):
        with pytest.raises(DefinitionError):
            Filter("Bad", "x", "x", TruePred())
        with pytest.raises(DefinitionError):
            Filter("Loose", "i", "x", Eq(Var("other"), Const(symbol("a"))))


def error_variants(ws, rng):
    """The workspace, then copies where one relation is missing or wider,
    so that filters reading it raise."""
    yield ws
    name = rng.choice(sorted(ws.relations))
    relation = ws.relations[name]
    yield dataclasses.replace(
        ws, relations={k: r for k, r in ws.relations.items() if k != name}
    )
    extra = ("Extra", relation.attributes[0][1])
    wider = Relation(name, relation.attributes + (extra,), frozenset())
    yield dataclasses.replace(ws, relations={**ws.relations, name: wider})


class TestCompiledFilter:
    @settings(max_examples=100, deadline=1000)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_run_filter_equals_the_reference(self, seed):
        rng = random.Random(seed)
        ws = gen_workspace(rng)
        indexes = ws.domains["D1"].sorted_elements()
        candidates = sorted(set().union(*(d.elements for d in ws.domains.values())),
                            key=lambda a: a.order_key())
        for variant in error_variants(ws, rng):
            for f in ws.filters.values():
                for i in indexes:
                    for c in candidates:
                        assert outcome(lambda: run_filter(f, i, c, variant)) == \
                            outcome(lambda: reference_filter(f, i, c, variant))

    def test_and_and_or_evaluate_both_operands(self, teaching_ws):
        missing = Member("Missing", (Var("x"),))
        for body in (Or(TruePred(), missing), And(FalsePred(), missing),
                     Or(missing, TruePred()), And(missing, FalsePred())):
            f = Filter("Strict", "i", "x", body)
            with pytest.raises(UnknownRelation):
                run_filter(f, symbol("Logic"), symbol("Smith"), teaching_ws)

    def test_the_left_operand_raises_first(self, teaching_ws):
        missing = Member("Missing", (Var("x"),))
        wrong_arity = Member("Relationship1", (Var("x"),))
        for node in (And, Or):
            for left, right, error in [(missing, wrong_arity, UnknownRelation),
                                       (wrong_arity, missing, ArityMismatch)]:
                f = Filter("Order", "i", "x", node(left, right))
                with pytest.raises(error):
                    run_filter(f, symbol("Logic"), symbol("Smith"), teaching_ws)

    def test_errors_are_raised_when_the_node_runs(self, teaching_ws):
        env = EMPTY.bind("x", symbol("Smith"))
        for pred, error in [
            (Member("Missing", (Var("x"),)), UnknownRelation),
            (Member("Relationship1", (Var("x"),)), ArityMismatch),
            (Member("Relationship1", (Var("x"), Var("y"), Wildcard())),
             UnboundVariable),
            (Eq(Wildcard(), Var("x")), EvalTypeError),
            (Eq(Var("x"), Var("y")), UnboundVariable),
        ]:
            test = compile_predicate(pred, lambda name: lambda env: env.lookup(name))
            with pytest.raises(error) as raised:
                test(env, teaching_ws)
            assert outcome(lambda: reference_predicate(pred, env, teaching_ws)) \
                == (error, str(raised.value))

    def test_compiled_body_is_kept_and_invisible(self, teaching_ws):
        f = teaching_ws.filters["TchFilter"]
        used, fresh = (Filter(f.name, f.index_var, f.candidate_var, f.body)
                       for _ in range(2))
        run_filter(used, symbol("Logic"), symbol("Smith"), teaching_ws)
        compiled = used._test
        run_filter(used, symbol("Logic"), symbol("Doe"), teaching_ws)
        assert used._test is compiled
        assert fresh._test is None
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)


class TestCheckCommutes:
    def test_shipped_diagram_commutes_on_all_inputs(self, teaching_ws):
        spec = teaching_ws.diagrams["Fig4"]
        inputs = enumerate_entry(spec, teaching_ws)
        assert len(inputs) == 8
        report = check_commutes(spec, inputs, teaching_ws)
        assert report.commutes
        assert report.agreeing == report.total == 8
        assert report.summary() == "8/8 inputs commute"
        # Both paths must agree with the raw-row oracle, not merely with
        # each other.
        for row in report.rows:
            course, teacher = row.input
            expected = teaches(course.text, teacher.text)
            assert row.value_a is expected
            assert row.value_b is expected

    def test_negated_second_path_disagrees_everywhere(self, teaching_ws):
        spec = teaching_ws.diagrams["Fig4"]
        negated = Filter("TchFilterNeg", "idx", "x",
                         Not(teaching_ws.filters["TchFilter"].body))
        ws = Workspace(
            sorts=teaching_ws.sorts,
            domains=teaching_ws.domains,
            relations=teaching_ws.relations,
            filters={**teaching_ws.filters, "TchFilterNeg": negated},
            potentials=teaching_ws.potentials,
            concepts=teaching_ws.concepts,
            diagrams=teaching_ws.diagrams,
            scripts=teaching_ws.scripts,
            evolvents=teaching_ws.evolvents,
        )
        broken = DiagramSpec(
            "Fig4Broken", spec.entry, spec.path_a,
            (Apply(FilterRef("TchFilterNeg"), Input()),), spec.exit,
        )
        report = check_commutes(broken, enumerate_entry(broken, ws), ws)
        assert report.total == 8
        assert report.agreeing == 0

    def test_empty_input_set_commutes_vacuously(self, teaching_ws):
        spec = teaching_ws.diagrams["Fig4"]
        report = check_commutes(spec, [], teaching_ws)
        assert report.commutes
        assert report.total == 0
        assert report.summary() == "0/0 inputs commute"

    def test_evaluation_errors_are_recorded_not_raised(self, teaching_ws):
        spec = DiagramSpec(
            "Clumsy",
            Shape(("Course",)),
            (Fst(Input()),),   # fst of an atom fails on every input
            (Input(),),
            Shape(("Course",)),
        )
        report = check_commutes(spec, enumerate_entry(spec, teaching_ws),
                                teaching_ws)
        assert not report.commutes
        assert all(row.error_a and "EvalTypeError" in row.error_a
                   for row in report.rows)
        assert all(row.error_b is None for row in report.rows)

    def test_rows_are_ordered_lexicographically(self, teaching_ws):
        spec = teaching_ws.diagrams["Fig4"]
        inputs = enumerate_entry(spec, teaching_ws)
        report = check_commutes(spec, reversed(inputs), teaching_ws)
        texts = [(row.input[0].text, row.input[1].text) for row in report.rows]
        assert texts == sorted(texts)

    def test_report_is_a_value(self, teaching_ws):
        spec = teaching_ws.diagrams["Fig4"]
        inputs = enumerate_entry(spec, teaching_ws)
        a = check_commutes(spec, inputs, teaching_ws)
        b = check_commutes(spec, inputs, teaching_ws)
        assert isinstance(a, CommutativityReport)
        assert a == b

    def test_bool_entry_parts_enumerate_truth_values(self, teaching_ws):
        spec = DiagramSpec("Twist", Shape(("bool", "Course")),
                           (Fst(Input()),), (Fst(Input()),), Shape(("bool",)))
        inputs = enumerate_entry(spec, teaching_ws)
        assert inputs == [(False, symbol("Informatics")),
                          (False, symbol("Logic")),
                          (True, symbol("Informatics")),
                          (True, symbol("Logic"))]
        assert check_commutes(spec, inputs, teaching_ws).commutes

    def test_unknown_entry_domain(self, teaching_ws):
        from dodl.errors import UnknownDomain

        spec = DiagramSpec("Lost", Shape(("Ghost",)),
                           (Input(),), (Input(),), Shape(("bool",)))
        with pytest.raises(UnknownDomain):
            enumerate_entry(spec, teaching_ws)
