import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dodl.diagrams as diagrams
from conftest import COURSES, TEACHERS, teaches
from dodl.core import symbol
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
    compile_expr,
    compile_predicate,
    enumerate_entry,
    eval_expr,
    run_filter,
    value_order_key,
)
from dodl.errors import (
    ArityMismatch,
    DefinitionError,
    DodlError,
    EvalTypeError,
    IndexNotInDomain,
    UnboundVariable,
    UnknownRelation,
)
from dodl.evolver import Workspace
from dodl.relational import Relation
from reference import (
    lookup,
    outcome,
    reference_expr,
    reference_filter,
    reference_path,
    reference_predicate,
)
from wsgen import gen_indexed_case, gen_workspace



def eval_predicate(pred, bindings, workspace) -> bool:
    """Run the compiled predicate once over a dict of variable bindings."""
    test = compile_predicate(pred, lambda name: lambda args: lookup(args, name))
    return test(bindings, workspace)


symbolic_atoms = st.text(
    alphabet=st.sampled_from("abcdefghXYZ"), min_size=1, max_size=6
).map(symbol)


class TestEvalExpr:
    def test_fst_projects_first(self, teaching_ws):
        expr = Fst(Pair(Const(symbol("Logic")), Const(symbol("Jones"))))
        assert eval_expr(expr, teaching_ws) == symbol("Logic")

    def test_apply_filter_accepts_assigned_pair(self, teaching_ws):
        expr = Apply(FilterRef("TchFilter"),
                     Pair(Const(symbol("Logic")), Const(symbol("Johnes"))))
        assert eval_expr(expr, teaching_ws) is True

    def test_apply_filter_rejects_unassigned_pair(self, teaching_ws):
        # Independent check first: no (Logic, Doe, _) assignment row exists.
        assert not teaches("Logic", "Doe")
        expr = Apply(FilterRef("TchFilter"),
                     Pair(Const(symbol("Logic")), Const(symbol("Doe"))))
        assert eval_expr(expr, teaching_ws) is False

    def test_var_reads_environment(self, teaching_ws):
        expr = Subst("x", Pair(Var("x"), Var("y")), Const(symbol("Doe")))
        assert eval_expr(Subst("y", expr, Const(symbol("Smith"))),
                         teaching_ws) == (symbol("Doe"), symbol("Smith"))
        with pytest.raises(UnboundVariable, match="variable 'y' is not bound"):
            eval_expr(expr, teaching_ws)

    def test_fst_of_non_pair_is_a_type_error(self, teaching_ws):
        with pytest.raises(EvalTypeError):
            eval_expr(Fst(Const(symbol("Logic"))), teaching_ws)

    def test_id_arrow_passes_through(self, teaching_ws):
        expr = IdArrow(Const(symbol("Smith")))
        assert eval_expr(expr, teaching_ws) == symbol("Smith")

    def test_subst_binds_in_child_environment_only(self, teaching_ws):
        # The binding reaches the target only: not the value, not a sibling.
        inner = Subst("x", Var("x"), Const(symbol("Jones")))
        for leak in (Pair(inner, Var("x")), Subst("x", Var("x"), Var("x"))):
            with pytest.raises(UnboundVariable, match="variable 'x' is not bound"):
                eval_expr(leak, teaching_ws)
        assert eval_expr(inner, teaching_ws) == symbol("Jones")

    def test_subst_value_must_be_an_element(self, teaching_ws):
        expr = Subst("x", Var("x"),
                     Pair(Const(symbol("a")), Const(symbol("b"))))
        with pytest.raises(EvalTypeError):
            eval_expr(expr, teaching_ws)

    def test_index_shift_curries_the_potential_object(self, teaching_ws):
        shifted = eval_expr(IndexShift("Tch", Const(symbol("Logic"))), teaching_ws)
        assert isinstance(shifted, ShiftFn)
        applied = eval_expr(
            Apply(IndexShift("Tch", Const(symbol("Logic"))),
                  Const(symbol("Smith"))),
            teaching_ws,
        )
        assert applied is True

    def test_index_shift_checks_the_index_domain(self, teaching_ws):
        expr = IndexShift("Tch", Const(symbol("Algebra")))
        with pytest.raises(IndexNotInDomain):
            eval_expr(expr, teaching_ws)

    def test_apply_of_non_function_is_a_type_error(self, teaching_ws):
        expr = Apply(Const(symbol("Logic")), Const(symbol("Doe")))
        with pytest.raises(EvalTypeError):
            eval_expr(expr, teaching_ws)

    def test_input_outside_a_path_is_a_type_error(self, teaching_ws):
        with pytest.raises(EvalTypeError):
            eval_expr(Input(), teaching_ws)

    @given(symbolic_atoms, symbolic_atoms)
    def test_projection_laws(self, a, b):
        ws = Workspace.empty()
        pair = Pair(Const(a), Const(b))
        assert eval_expr(Fst(pair), ws) == a
        assert eval_expr(Snd(pair), ws) == b


class TestSubstScope:
    """A Subst binds its variable for its target only; a Var reads its
    innermost binder and raises, when it runs, if it has none."""

    def test_a_subst_binds_its_variable(self, teaching_ws):
        expr = Subst("x", Var("x"), Const(symbol("Jones")))
        assert eval_expr(expr, teaching_ws) == symbol("Jones")

    def test_an_inner_subst_shadows_and_the_outer_binding_returns(self, teaching_ws):
        inner = Subst("x", Var("x"), Const(symbol("Smith")))
        expr = Subst("x", Pair(inner, Var("x")), Const(symbol("Jones")))
        assert eval_expr(expr, teaching_ws) == (symbol("Smith"), symbol("Jones"))

    def test_nested_substs_bind_distinct_slots(self, teaching_ws):
        expr = Subst("idx", Subst("x", Pair(Var("idx"), Var("x")),
                                  Const(symbol("Doe"))),
                     Const(symbol("Logic")))
        assert eval_expr(expr, teaching_ws) == (symbol("Logic"), symbol("Doe"))

    def test_an_unbound_variable_raises_when_it_runs(self, teaching_ws):
        run = compile_expr(Pair(Fst(Input()), Var("x")))
        with pytest.raises(EvalTypeError, match="fst of a non-pair value Logic"):
            run(symbol("Logic"), (), teaching_ws)
        with pytest.raises(UnboundVariable, match="variable 'x' is not bound"):
            run((symbol("Logic"), symbol("Doe")), (), teaching_ws)

    @given(symbolic_atoms, symbolic_atoms, st.sampled_from(["x", "y", "seed"]))
    def test_a_binding_never_escapes_its_target(self, a, b, var):
        ws = Workspace.empty()
        inner = Subst(var, Var(var), Const(b))
        expr = Subst("seed", Pair(inner, Var("seed")), Const(a))
        assert eval_expr(expr, ws) == (b, a)
        assert outcome(lambda: eval_expr(Pair(inner, Var(var)), ws)) == \
            (UnboundVariable, f"variable {var!r} is not bound")


class TestEvalPredicate:
    def test_member_with_bound_variables(self, teaching_ws):
        pred = Member("Relationship1", (Var("idx"), Var("x"), Wildcard()))
        bindings = {"idx": symbol("Logic"), "x": symbol("Smith")}
        assert eval_predicate(pred, bindings, teaching_ws) is True

    def test_member_scans_all_rows(self, teaching_ws):
        assert not teaches("Informatics", "Smith")
        pred = Member("Relationship1", (Var("idx"), Var("x"), Wildcard()))
        bindings = {"idx": symbol("Informatics"), "x": symbol("Smith")}
        assert eval_predicate(pred, bindings, teaching_ws) is False

    def test_boolean_identities(self, teaching_ws):
        assert eval_predicate(And(TruePred(), Not(FalsePred())),
                              {}, teaching_ws) is True
        assert eval_predicate(Or(FalsePred(), FalsePred()),
                              {}, teaching_ws) is False

    def test_eq_compares_atoms(self, teaching_ws):
        bindings = {"x": symbol("Doe")}
        assert eval_predicate(Eq(Var("x"), Const(symbol("Doe"))),
                              bindings, teaching_ws) is True
        assert eval_predicate(Eq(Var("x"), Const(symbol("Smith"))),
                              bindings, teaching_ws) is False

    def test_unknown_relation(self, teaching_ws):
        pred = Member("Nowhere", (Wildcard(),))
        with pytest.raises(UnknownRelation):
            eval_predicate(pred, {}, teaching_ws)

    def test_pattern_arity_checked(self, teaching_ws):
        pred = Member("Relationship1", (Wildcard(), Wildcard()))
        with pytest.raises(ArityMismatch):
            eval_predicate(pred, {}, teaching_ws)

    def test_unbound_variable_propagates(self, teaching_ws):
        pred = Member("Relationship1", (Var("idx"), Wildcard(), Wildcard()))
        with pytest.raises(UnboundVariable):
            eval_predicate(pred, {}, teaching_ws)

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
                eval_predicate(pred, {}, teaching_ws)


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
    yield ws.replace(
        relations={k: r for k, r in ws.relations.items() if k != name}
    )
    extra = ("Extra", relation.attributes[0][1])
    wider = Relation(name, relation.attributes + (extra,), frozenset())
    yield ws.replace(relations={**ws.relations, name: wider})


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
        bindings = {"x": symbol("Smith")}
        for pred, error in [
            (Member("Missing", (Var("x"),)), UnknownRelation),
            (Member("Relationship1", (Var("x"),)), ArityMismatch),
            (Member("Relationship1", (Var("x"), Var("y"), Wildcard())),
             UnboundVariable),
            (Eq(Wildcard(), Var("x")), EvalTypeError),
            (Eq(Var("x"), Var("y")), UnboundVariable),
        ]:
            test = compile_predicate(pred, lambda name: lambda args: lookup(args, name))
            with pytest.raises(error) as raised:
                test(bindings, teaching_ws)
            assert outcome(lambda: reference_predicate(pred, bindings, teaching_ws)) \
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


VARIABLES = ("u", "v", "w")


def random_expr(rng, ws, depth, scope=()):
    """A random diagram expression over ``ws``, well typed or not.

    Leaves and nodes are drawn so that every error of the evaluator shows
    up often: ``fst`` of an atom, ``apply`` of a non-function, unbound
    variables, ``subst`` of a pair, a shift to an index outside its domain,
    unknown filters and potential objects, and an unknown node.  ``scope``
    holds the variables the enclosing ``subst`` nodes bind; a ``var`` or a
    ``subst`` picks one of them half the time, so shadowed bindings are
    read often.
    """
    atoms = sorted(set().union(*(d.elements for d in ws.domains.values())),
                   key=lambda a: a.order_key()) or [symbol("Alone")]

    def variable():
        return rng.choice(scope if scope and rng.random() < 0.5 else VARIABLES)

    def filter_name():
        return "Ghost" if rng.random() < 0.05 else rng.choice(sorted(ws.filters))

    def po_name():
        names = sorted(ws.potentials)
        return "Ghost" if not names or rng.random() < 0.05 else rng.choice(names)

    def subst(value):
        var = variable()
        return Subst(var, random_expr(rng, ws, depth - 1, scope + (var,)), value)

    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.01:
            return Wildcard()  # not a diagram expression
        return rng.choice([
            lambda: Const(rng.choice(atoms)),
            lambda: Var(variable()),
            Input,
            Input,
            lambda: FilterRef(filter_name()),
        ])()
    sub = lambda: random_expr(rng, ws, depth - 1, scope)  # noqa: E731
    return rng.choice([
        lambda: Pair(sub(), sub()),
        lambda: Fst(sub()),
        lambda: Snd(sub()),
        lambda: IdArrow(sub()),
        lambda: subst(sub()),
        lambda: subst(Const(rng.choice(atoms))),
        lambda: Apply(sub(), sub()),
        lambda: Apply(FilterRef(filter_name()),
                      Pair(Const(rng.choice(atoms)), sub())),
        lambda: Apply(IndexShift(po_name(), sub()), sub()),
        lambda: IndexShift(po_name(), Const(rng.choice(atoms))),
    ])()


def random_input(rng, ws):
    """A step input: none (outside a path), an atom, a truth value or a pair."""
    atoms = sorted(set().union(*(d.elements for d in ws.domains.values())),
                   key=lambda a: a.order_key()) or [symbol("Alone")]
    single = lambda: rng.choice(atoms + [True, False])  # noqa: E731
    return rng.choice([None, single(), (single(), single()),
                       (rng.choice(atoms), rng.choice(atoms))])


def reference_cell(path, entry, workspace):
    """One path's (value, error) at one entry, as a report row holds them."""
    try:
        return reference_path(path, entry, workspace), None
    except DodlError as exc:
        return None, f"{type(exc).__name__}: {exc}"


class TestCompiledExpr:
    """``compile_expr`` against the tree walk in ``tests/reference.py``:
    the same value, or the same error type and message, at every node."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_trees_equal_the_reference(self, seed):
        rng = random.Random(seed)
        ws = gen_workspace(rng)
        for variant in error_variants(ws, rng):
            for _ in range(15):
                expr = random_expr(rng, variant, rng.randint(1, 5))
                run = compile_expr(expr)
                for _ in range(4):
                    step_input = random_input(rng, variant)
                    assert outcome(lambda: run(step_input, (), variant)) == \
                        outcome(lambda: reference_expr(expr, {}, variant,
                                                       step_input)), expr

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_wsgen_diagrams_equal_the_reference_at_every_entry(self, seed):
        rng = random.Random(seed)
        ws = gen_workspace(rng)
        for variant in error_variants(ws, rng):
            for spec in variant.diagrams.values():
                inputs = enumerate_entry(spec, variant)
                report = check_commutes(spec, inputs, variant)
                assert [row.input for row in report.rows] == \
                    sorted(inputs, key=value_order_key)
                for row in report.rows:
                    assert (row.value_a, row.error_a) == \
                        reference_cell(spec.path_a, row.input, variant)
                    assert (row.value_b, row.error_b) == \
                        reference_cell(spec.path_b, row.input, variant)

    def test_shadowed_and_unbound_variables(self, teaching_ws):
        logic, doe = symbol("Logic"), symbol("Doe")
        for expr, expected in [
            (Subst("v", Subst("v", Var("v"), Const(doe)), Const(logic)), doe),
            (Subst("v", Subst("v", Var("v"), Var("v")), Const(logic)), logic),
            (Subst("v", Pair(Subst("w", Var("v"), Const(doe)), Var("v")),
                   Const(logic)), (logic, logic)),
            (Subst("v", Var("w"), Const(logic)),
             (UnboundVariable, "variable 'w' is not bound")),
            (Subst("v", Var("v"), Pair(Input(), Input())),
             (EvalTypeError, "substitution for 'v' needs an element, "
                             "got (Doe, Doe)")),
        ]:
            got = outcome(lambda: compile_expr(expr)(doe, (), teaching_ws))
            assert got == expected == outcome(
                lambda: reference_expr(expr, {}, teaching_ws, doe))


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

    def test_paths_compile_once_per_call(self, teaching_ws, monkeypatch):
        compiled = []
        original = diagrams.compile_expr

        def counting(expr, scope=()):
            compiled.append(expr)
            return original(expr, scope)

        monkeypatch.setattr(diagrams, "compile_expr", counting)
        spec = teaching_ws.diagrams["Fig4"]
        check_commutes(spec, [], teaching_ws)
        per_call = len(compiled)
        report = check_commutes(spec, enumerate_entry(spec, teaching_ws),
                                teaching_ws)
        assert report.total == 8
        assert len(compiled) == 2 * per_call > 0

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
