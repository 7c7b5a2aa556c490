import random

import pytest

from conftest import TEACHING_ROWS
from dodl.core import NUMERIC, SYMBOLIC, Sort, number, symbol
from dodl.diagrams import (
    And,
    Const,
    Eq,
    FalsePred,
    Filter,
    Member,
    TruePred,
    Var,
    Wildcard,
    run_filter,
)
from dodl.errors import (
    DodlError,
    EvalTypeError,
    NoSharedAttributes,
    SchemaMismatch,
    SortMismatch,
    UnknownAttribute,
    UnknownRelation,
)
from dodl.relational import (
    DifferenceExpr,
    JoinExpr,
    OracleExpr,
    Project,
    Relation,
    RelName,
    Select,
    TermIdent,
    UnionExpr,
    difference,
    eval_query,
    join,
    oracle_index,
    oracle_route,
    project,
    select,
    union,
)

COURSE = Sort("Course", SYMBOLIC)
NAME = Sort("Name", SYMBOLIC)
HOURS = Sort("Hours", NUMERIC)


def assignments() -> Relation:
    rows = frozenset(
        (symbol(c), symbol(n), number(int(h))) for c, n, h in TEACHING_ROWS
    )
    return Relation("Relationship1",
                    (("Course", COURSE), ("Name", NAME), ("Hours", HOURS)),
                    rows)


def texts(relation: Relation) -> set[tuple[str, ...]]:
    return {tuple(a.text for a in row) for row in relation.tuples}


class TestRelation:
    def test_set_semantics(self):
        r = Relation("R", (("A", NAME),),
                     frozenset([(symbol("x"),), (symbol("x"),)]))
        assert len(r.tuples) == 1

    def test_arity_enforced(self):
        with pytest.raises(Exception):
            Relation("R", (("A", NAME),), frozenset([(symbol("x"), symbol("y"))]))

    def test_sort_conformance_enforced(self):
        with pytest.raises(SortMismatch):
            Relation("R", (("A", HOURS),), frozenset([(symbol("x"),)]))

    def test_probe_index_is_invisible_to_equality_hash_and_repr(self):
        r, fresh = assignments(), assignments()
        keys = r.probe_index((0, 2))
        assert keys == {(symbol("Logic"), number(20)),
                        (symbol("Informatics"), number(30))}
        assert r.probe_index((0, 2)) is keys
        assert r == fresh and hash(r) == hash(fresh) and repr(r) == repr(fresh)

    def test_oracle_and_select_leave_the_probe_index_unbuilt(self):
        r = assignments()
        oracle_index(r, "Course", symbol("Logic"), "Name")
        select(r, Eq(Var("Hours"), Const(number(20))))
        assert r._probes == {}

    def test_sorted_tuples_are_deterministic(self):
        r = assignments()
        ordered = [tuple(a.text for a in row) for row in r.sorted_tuples()]
        assert ordered == sorted(ordered)


class TestSelect:
    def test_one_course(self):
        result = select(assignments(), Eq(Var("Course"), Const(symbol("Logic"))))
        assert texts(result) == {("Logic", "Johnes", "20"),
                                 ("Logic", "Smith", "20")}
        assert result.attributes == assignments().attributes
        assert result.name == "sel_Relationship1"

    def test_true_keeps_everything(self):
        result = select(assignments(), TruePred())
        assert result.same_contents(assignments())

    def test_numeric_equality(self):
        result = select(assignments(), Eq(Var("Hours"), Const(number(30))))
        assert texts(result) == {("Informatics", "Doe", "30"),
                                 ("Informatics", "Jackson", "30")}

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            select(assignments(), Eq(Var("Nope"), Const(symbol("x"))))

    def test_member_is_rejected_in_row_predicates(self):
        with pytest.raises(EvalTypeError):
            select(assignments(), Member("R", (Wildcard(),)))


class TestProject:
    def test_single_column(self):
        result = project(assignments(), ["Name"])
        assert texts(result) == {("Johnes",), ("Smith",), ("Doe",), ("Jackson",)}

    def test_deduplicates(self):
        # Independent count: distinct (course, hours) pairs in the raw rows.
        expected = {(c, h) for c, _, h in TEACHING_ROWS}
        assert len(expected) == 2
        result = project(assignments(), ["Course", "Hours"])
        assert texts(result) == expected

    def test_all_attributes_is_identity(self):
        r = assignments()
        assert project(r, list(r.attribute_names)).same_contents(r)

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            project(assignments(), ["Nope"])


class TestJoin:
    def test_reconstructs_assignments(self):
        course_hours = Relation(
            "CourseHours", (("Course", COURSE), ("Hours", HOURS)),
            frozenset([(symbol("Logic"), number(20)),
                       (symbol("Informatics"), number(30))]),
        )
        course_name = project(assignments(), ["Course", "Name"])
        result = join(course_hours, course_name)
        # Independent hand-join over the raw pairs.
        expected = set()
        for c, h in [("Logic", "20"), ("Informatics", "30")]:
            for rc, rn, _ in TEACHING_ROWS:
                if rc == c:
                    expected.add((c, h, rn))
        assert texts(result) == expected
        assert result.attribute_names == ("Course", "Hours", "Name")

    def test_self_join_is_identity(self):
        r = assignments()
        assert join(r, r).same_contents(r)

    def test_disjoint_schemas_rejected(self):
        r = Relation("R", (("A", NAME),), frozenset())
        s = Relation("S", (("B", NAME),), frozenset())
        with pytest.raises(NoSharedAttributes):
            join(r, s)

    def test_shared_name_with_different_sorts_rejected(self):
        r = Relation("R", (("A", NAME),), frozenset())
        s = Relation("S", (("A", HOURS),), frozenset())
        with pytest.raises(SortMismatch):
            join(r, s)


class TestUnionDifference:
    def test_union_of_the_two_course_slices(self):
        r = assignments()
        logic = select(r, Eq(Var("Course"), Const(symbol("Logic"))))
        informatics = select(r, Eq(Var("Course"), Const(symbol("Informatics"))))
        assert len(logic.tuples) == 2 and len(informatics.tuples) == 2
        assert union(logic, informatics).same_contents(r)

    def test_difference_with_self_is_empty(self):
        r = assignments()
        result = difference(r, r)
        assert result.tuples == frozenset()
        assert result.attributes == r.attributes

    def test_difference_with_empty_is_identity(self):
        r = assignments()
        empty = Relation("Empty", r.attributes, frozenset())
        assert difference(r, empty).same_contents(r)

    def test_schema_mismatch(self):
        r = assignments()
        s = project(r, ["Course", "Name"])
        with pytest.raises(SchemaMismatch):
            union(r, s)


class TestOracleIndex:
    def test_logic_teachers(self):
        result = oracle_index(assignments(), "Course", symbol("Logic"), "Name")
        assert result == frozenset({symbol("Johnes"), symbol("Smith")})

    def test_informatics_teachers(self):
        result = oracle_index(assignments(), "Course", symbol("Informatics"), "Name")
        assert result == frozenset({symbol("Doe"), symbol("Jackson")})

    def test_absent_index_value_gives_empty_set(self):
        assert oracle_index(assignments(), "Course", symbol("Algebra"), "Name") \
            == frozenset()

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            oracle_index(assignments(), "Nope", symbol("Logic"), "Name")


# ---------------------------------------------------------------------------
# Algebra laws on random relations


WORDS = ["Ash", "Birch", "Cedar", "Elm", "Fir", "Oak", "Pine", "Yew"]


def random_relation(rng: random.Random, name="R", schema=None) -> Relation:
    if schema is None:
        arity = rng.randint(1, 4)
        schema = tuple(
            (f"A{i}", rng.choice([NAME, HOURS])) for i in range(arity)
        )
    def cell(sort):
        if sort.kind == NUMERIC:
            return number(rng.randrange(12))
        return symbol(rng.choice(WORDS))
    rows = frozenset(
        tuple(cell(sort) for _, sort in schema)
        for _ in range(rng.randint(0, 20))
    )
    return Relation(name, schema, rows)


def random_row_predicate(rng: random.Random, relation: Relation):
    attr, sort = rng.choice(relation.attributes)
    value = (number(rng.randrange(12)) if sort.kind == NUMERIC
             else symbol(rng.choice(WORDS)))
    return Eq(Var(attr), Const(value))


class TestOracleRoute:
    def test_reads_the_twin_off_a_membership_filter(self, teaching_ws):
        po = teaching_ws.potentials["Tch"]
        relation, index_attr, target_attr = oracle_route(po, teaching_ws.relations)
        assert relation is teaching_ws.relations["Relationship1"]
        assert (index_attr, target_attr) == ("Course", "Name")

    @pytest.mark.parametrize("body, message", [
        (And(TruePred(), TruePred()),
         "filter 'F' is not a plain membership test; "
         "there is no relational twin to compare against"),
        (Member("Relationship1", (Var("i"), Var("x"), Const(number(20)))),
         "filter 'F' constrains more than the index and candidate; "
         "there is no relational twin"),
        (Member("Relationship1", (Var("i"), Wildcard(), Wildcard())),
         "filter 'F' does not test both the index and the candidate "
         "against 'Relationship1'"),
    ])
    def test_filters_without_a_twin_are_refused(self, teaching_ws, body, message):
        po = teaching_ws.potentials["Tch"].replace(
            filter=Filter("F", "i", "x", body))
        with pytest.raises(DodlError) as raised:
            oracle_route(po, teaching_ws.relations)
        assert str(raised.value) == message

    @pytest.mark.parametrize("body", [
        Member("Ghost", (Var("i"), Var("x"))),
        Member("Relationship1", (Var("i"), Var("x"))),
        Member("Relationship1", (Wildcard(), Wildcard(), Var("i"), Var("x"))),
    ])
    def test_a_bad_member_raises_what_the_indexing_route_raises(self, teaching_ws,
                                                               body):
        po = teaching_ws.potentials["Tch"].replace(
            filter=Filter("F", "i", "x", body))
        with pytest.raises(DodlError) as oracle:
            oracle_route(po, teaching_ws.relations)
        with pytest.raises(DodlError) as indexing:
            run_filter(po.filter, symbol("Logic"), symbol("Doe"), teaching_ws)
        assert (type(oracle.value), str(oracle.value)) == \
            (type(indexing.value), str(indexing.value))


class TestAlgebraLaws:
    def test_select_true_is_identity(self):
        rng = random.Random(7)
        for _ in range(60):
            r = random_relation(rng)
            assert select(r, TruePred()).same_contents(r)

    def test_select_false_is_empty(self):
        rng = random.Random(8)
        for _ in range(60):
            r = random_relation(rng)
            assert select(r, FalsePred()).tuples == frozenset()

    def test_project_composes_to_the_inner_attribute_list(self):
        rng = random.Random(9)
        for _ in range(60):
            r = random_relation(rng)
            names = list(r.attribute_names)
            outer = rng.sample(names, rng.randint(1, len(names)))
            inner = rng.sample(outer, rng.randint(1, len(outer)))
            twice = project(project(r, outer), inner)
            once = project(r, inner)
            assert twice.same_contents(once)

    def test_select_distributes_over_union(self):
        rng = random.Random(10)
        for _ in range(60):
            schema = (("A0", NAME), ("A1", HOURS))
            r = random_relation(rng, "R", schema)
            s = random_relation(rng, "S", schema)
            pred = random_row_predicate(rng, r)
            lhs = select(union(r, s), pred)
            rhs = union(select(r, pred), select(s, pred))
            assert lhs.same_contents(rhs)

    def test_oracle_equals_its_expansion_and_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            schema = (("K", NAME), ("V", NAME), ("W", HOURS))
            r = random_relation(rng, "R", schema)
            for key in {row[0] for row in r.tuples} | {symbol("Absent")}:
                via_oracle = oracle_index(r, "K", key, "V")
                expansion = frozenset(
                    row[0] for row in project(
                        select(r, Eq(Var("K"), Const(key))), ["V"]
                    ).tuples
                )
                brute = frozenset(row[1] for row in r.tuples if row[0] == key)
                assert via_oracle == expansion == brute

    def test_join_equals_a_nested_loop(self):
        def nested_loop(r, s):
            shared = [a for a in r.attribute_names if a in s.attribute_names]
            rest = [a for a in s.attribute_names if a not in shared]
            schema = r.attributes + tuple(
                (a, sort) for a, sort in s.attributes if a in rest)
            rows = {
                left + tuple(right[s.index_of(a)] for a in rest)
                for left in r.tuples for right in s.tuples
                if all(left[r.index_of(a)] == right[s.index_of(a)]
                       for a in shared)
            }
            return schema, frozenset(rows)

        def rows(rng, schema):
            # Few distinct values and up to 12 rows: keys repeat on both
            # sides, and a side is empty about one time in four.
            def cell(sort):
                if sort.kind == NUMERIC:
                    return number(rng.randrange(3))
                return symbol(rng.choice(WORDS[:3]))
            return frozenset(tuple(cell(sort) for _, sort in schema)
                             for _ in range(rng.choice([0, 1, 5, 12])))

        rng = random.Random(13)
        for _ in range(200):
            shared = rng.sample([("K", NAME), ("L", HOURS)], rng.randint(1, 2))
            r_schema = [("A", NAME), ("B", HOURS)][:rng.randint(0, 2)] + shared
            s_schema = [("C", HOURS), ("D", NAME)][:rng.randint(0, 2)] + shared
            rng.shuffle(r_schema)
            rng.shuffle(s_schema)
            r = Relation("R", tuple(r_schema), rows(rng, r_schema))
            s = Relation("S", tuple(s_schema), rows(rng, s_schema))
            joined = join(r, s)
            assert joined.name == "join_R_S"
            assert (joined.attributes, joined.tuples) == nested_loop(r, s)

    def test_operations_never_return_duplicates(self):
        rng = random.Random(12)
        for _ in range(40):
            r = random_relation(rng)
            cols = [r.attribute_names[0]]
            projected = project(r, cols)
            assert len(projected.tuples) == len(set(projected.tuples))
            assert len(projected.tuples) <= len(r.tuples)


class TestQueryExpressions:
    def registry(self):
        return {"Relationship1": assignments()}

    def test_name_lookup(self):
        assert eval_query(RelName("Relationship1"), self.registry()) \
            .same_contents(assignments())
        with pytest.raises(UnknownRelation):
            eval_query(RelName("Nope"), self.registry())

    def test_identifiers_resolve_to_attributes_then_constants(self):
        expr = Select(RelName("Relationship1"),
                      Eq(TermIdent("Course"), TermIdent("Logic")))
        result = eval_query(expr, self.registry())
        assert texts(result) == {("Logic", "Johnes", "20"),
                                 ("Logic", "Smith", "20")}

    def test_nested_project_select(self):
        expr = Project(
            Select(RelName("Relationship1"),
                   Eq(TermIdent("Course"), TermIdent("Logic"))),
            ("Name",),
        )
        assert texts(eval_query(expr, self.registry())) == \
            {("Johnes",), ("Smith",)}

    def test_oracle_expression(self):
        expr = OracleExpr(RelName("Relationship1"), "Course",
                          symbol("Informatics"), "Name")
        assert eval_query(expr, self.registry()) == \
            frozenset({symbol("Doe"), symbol("Jackson")})

    def test_union_difference_join_expressions(self):
        reg = self.registry()
        logic = Select(RelName("Relationship1"),
                       Eq(TermIdent("Course"), TermIdent("Logic")))
        inf = Select(RelName("Relationship1"),
                     Eq(TermIdent("Course"), TermIdent("Informatics")))
        assert eval_query(UnionExpr(logic, inf), reg) \
            .same_contents(assignments())
        assert eval_query(DifferenceExpr(RelName("Relationship1"), logic), reg) \
            .same_contents(eval_query(inf, reg))
        joined = eval_query(JoinExpr(RelName("Relationship1"),
                                     RelName("Relationship1")), reg)
        assert joined.same_contents(assignments())

    def test_atom_set_cannot_feed_an_operator(self):
        expr = Project(
            OracleExpr(RelName("Relationship1"), "Course",
                       symbol("Logic"), "Name"),
            ("Name",),
        )
        with pytest.raises(EvalTypeError):
            eval_query(expr, self.registry())
