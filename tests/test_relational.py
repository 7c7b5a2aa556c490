import ast
import copy
import itertools
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TEACHING_ROWS
from reference import (
    outcome,
    reference_oracle_index,
    reference_row_predicate,
    same_contents,
)
from wsgen import gen_workspace
from dodl import diagrams
from dodl.core import NUMERIC, SYMBOLIC, Record, Sort, number, symbol
from dodl.diagrams import (
    And,
    Const,
    Eq,
    FalsePred,
    Filter,
    Member,
    Not,
    Or,
    TruePred,
    Var,
    Wildcard,
    run_filter,
)
from dodl.errors import (
    DefinitionError,
    DodlError,
    EvalTypeError,
    JoinTooLarge,
    NoSharedAttributes,
    ReservedCharacter,
    SchemaMismatch,
    SortMismatch,
    UnknownAttribute,
    UnknownRelation,
)
from dodl import relational
from dodl.lang import parse_query
from dodl.lang.printer import format_relexpr
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

    def test_sorted_tuples_are_deterministic(self):
        r = assignments()
        ordered = [tuple(a.text for a in row) for row in r.sorted_tuples()]
        assert ordered == sorted(ordered)


def test_the_oracle_imports_only_syntax_from_the_indexing_route():
    # The oracle reads a filter body as syntax.  It imports no evaluator
    # and no plan, so it cannot reach the grouping indexes a filter keeps.
    tree = ast.parse(Path(relational.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom):
            module = ("dodl." if node.level else "") + (node.module or "")
            imported.setdefault(module.rstrip("."), set()).update(
                alias.name for alias in node.names)
    for module, names in imported.items():
        reached = {*module.split("."), *names}
        assert not reached & {"evolver", "checker"}, module
    records = {name for name, value in vars(diagrams).items()
               if isinstance(value, type) and issubclass(value, Record)}
    allowed = records | {"Term", "Predicate", "arity_mismatch"}
    assert imported["dodl.diagrams"]
    assert imported["dodl.diagrams"] <= allowed


class TestSelect:
    def test_one_course(self):
        result = select(assignments(), Eq(Var("Course"), Const(symbol("Logic"))))
        assert texts(result) == {("Logic", "Johnes", "20"),
                                 ("Logic", "Smith", "20")}
        assert result.attributes == assignments().attributes
        assert result.name == "sel_Relationship1"

    def test_true_keeps_everything(self):
        result = select(assignments(), TruePred())
        assert same_contents(result, assignments())

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

    def test_an_identifier_naming_an_attribute_reads_it(self):
        # select resolves a query's identifiers itself, so a direct call
        # reads the attribute named, as a query always did; another name is
        # a symbolic constant.
        r = Relation("R", (("a", NAME),), frozenset([(symbol("x"),), (symbol("y"),)]))
        assert texts(select(r, Eq(TermIdent("a"), Const(symbol("x"))))) == {("x",)}
        assert texts(select(r, Eq(TermIdent("y"), TermIdent("a")))) == {("y",)}

    @pytest.mark.parametrize("pred", [
        Member("R", (Wildcard(),)), Wildcard(), Eq(Var("Nope"), Wildcard()),
        Eq(Wildcard(), Var("a")), And(FalsePred(), Member("R", (Var("a"),))),
    ])
    def test_an_empty_relation_raises_no_fault(self, pred):
        # A fault is raised only when a row is tested.
        empty = Relation("R", (("a", NAME),), frozenset())
        assert select(empty, pred).tuples == frozenset()

    def test_a_name_no_atom_can_hold_is_refused_before_any_row(self):
        # An identifier's constant is made with the test, before any row is
        # read, as when queries resolved their identifiers first.
        empty = Relation("R", (("a", NAME),), frozenset())
        expr = Select(RelName("R"), Or(Member("R", ()), Eq(TermIdent("9x"), TermIdent("a"))))
        with pytest.raises(ReservedCharacter) as raised:
            eval_query(expr, {"R": empty})
        assert str(raised.value) == "symbolic atom '9x' may not begin with a digit"


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
        assert same_contents(project(r, list(r.attribute_names)), r)

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            project(assignments(), ["Nope"])

    def test_a_repeated_attribute_is_refused(self):
        with pytest.raises(DefinitionError) as raised:
            eval_query(parse_query("project R [Name, Course, Name]"),
                       {"R": assignments()})
        assert str(raised.value) == \
            "relation 'proj_Relationship1' repeats an attribute name"


# A cutter of each width: none, one and more than one position.
@pytest.mark.parametrize("attrs", [[], ["Hours"], ["Hours", "Course"],
                                   ["Name", "Hours", "Course"]])
def test_project_cuts_rows_of_each_width(attrs):
    r = assignments()
    result = project(r, attrs)
    columns = [r.attribute_names.index(a) for a in attrs]
    assert texts(result) == {tuple(row[i] for i in columns) for row in TEACHING_ROWS}
    assert all(type(row) is tuple for row in result.tuples)
    assert result.attribute_names == tuple(attrs)
    empty = Relation("E", r.attributes, frozenset())
    assert project(empty, attrs).tuples == frozenset()


# s's schema: its key (the attributes it shares with assignments()) has
# one position or two, and its remainder none, one or two.
ROOM = Sort("Room", SYMBOLIC)
JOIN_PARTNERS = {
    "key1-rest0": (("Course", COURSE),),
    "key2-rest0": (("Hours", HOURS), ("Course", COURSE)),
    "key1-rest1": (("Room", ROOM), ("Course", COURSE)),
    "key2-rest2": (("Course", COURSE), ("Room", ROOM), ("Hours", HOURS),
                   ("Floor", HOURS)),
}
PARTNER_CELLS = {"Course": ["Logic", "Informatics", "Algebra"], "Hours": ["20", "30"],
                 "Room": ["Aula", "Lab"], "Floor": ["1", "2"]}


@pytest.mark.parametrize("schema", list(JOIN_PARTNERS.values()), ids=list(JOIN_PARTNERS))
def test_join_cuts_keys_and_remainders_of_each_width(schema):
    names = [a for a, _ in schema]
    raw = list(itertools.product(*(PARTNER_CELLS[a] for a in names)))
    s = Relation("S", schema, frozenset(
        tuple(number(int(c)) if sort.kind == NUMERIC else symbol(c)
              for c, (_, sort) in zip(row, schema)) for row in raw))
    r = assignments()
    result = join(r, s)
    left_names = r.attribute_names
    rest = [a for a in names if a not in left_names]
    assert result.attribute_names == left_names + tuple(rest)
    assert texts(result) == {
        left + tuple(right[names.index(a)] for a in rest)
        for left in TEACHING_ROWS for right in raw
        if all(left[left_names.index(a)] == right[names.index(a)]
               for a in names if a in left_names)}
    assert all(type(row) is tuple for row in result.tuples)


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
        assert same_contents(join(r, r), r)

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
        assert same_contents(union(logic, informatics), r)

    def test_difference_with_self_is_empty(self):
        r = assignments()
        result = difference(r, r)
        assert result.tuples == frozenset()
        assert result.attributes == r.attributes

    def test_difference_with_empty_is_identity(self):
        r = assignments()
        empty = Relation("Empty", r.attributes, frozenset())
        assert same_contents(difference(r, empty), r)

    def test_schema_mismatch(self):
        r = assignments()
        s = project(r, ["Course", "Name"])
        with pytest.raises(SchemaMismatch):
            union(r, s)


class TestOracleIndex:
    def test_logic_teachers(self):
        result = oracle_index(assignments(), "Course", "Name")[symbol("Logic")]
        assert result == frozenset({symbol("Johnes"), symbol("Smith")})

    def test_informatics_teachers(self):
        result = oracle_index(assignments(), "Course", "Name")[symbol("Informatics")]
        assert result == frozenset({symbol("Doe"), symbol("Jackson")})

    def test_absent_index_value_gives_empty_set(self):
        extensions = oracle_index(assignments(), "Course", "Name")
        assert symbol("Algebra") not in extensions
        assert extensions.get(symbol("Algebra"), frozenset()) == frozenset()

    def test_unknown_attribute(self):
        with pytest.raises(UnknownAttribute):
            oracle_index(assignments(), "Nope", "Name")

    @pytest.mark.parametrize("index_attr, target_attr",
                             [("Nope", "Name"), ("Course", "Nope")])
    def test_unknown_attribute_names_the_source_even_when_empty(
            self, index_attr, target_attr):
        for rows in (assignments().tuples, frozenset()):
            r = Relation("Relationship1", assignments().attributes, rows)
            with pytest.raises(UnknownAttribute) as raised:
                oracle_index(r, index_attr, target_attr)
            assert str(raised.value) == \
                "relation 'Relationship1' has no attribute 'Nope'"

    def test_index_attribute_as_target(self):
        extensions = oracle_index(assignments(), "Course", "Course")
        assert extensions == {symbol("Logic"): frozenset({symbol("Logic")}),
                              symbol("Informatics"):
                                  frozenset({symbol("Informatics")})}
        assert extensions.get(symbol("Algebra"), frozenset()) == frozenset()

    def test_one_entry_per_index_value_of_the_relation(self):
        r = assignments()
        extensions = oracle_index(r, "Hours", "Name")
        assert set(extensions) == {number(20), number(30)}
        for hours, names in extensions.items():
            assert names == reference_oracle_index(r, "Hours", hours, "Name")


def oracle_cases(seed: int):
    """(relation, index attribute, target attribute, indexes) for every
    potential of wsgen seed ``seed`` that has a relational twin; the indexes
    are the index domain's atoms plus one atom absent from it and from the
    relation."""
    ws = gen_workspace(random.Random(seed))
    for name in sorted(ws.potentials):
        po = ws.potentials[name]
        try:
            relation, index_attr, target_attr = oracle_route(po, ws.relations)
        except DodlError:
            continue
        indexes = po.index_domain.sorted_elements()
        column = {row[relation.index_of(index_attr)] for row in relation.tuples}
        absent = (number(10 ** 9) if po.index_domain.sort.kind == NUMERIC
                  else symbol("Absent"))
        assert absent not in column and absent not in indexes
        yield relation, index_attr, target_attr, indexes + [absent]


class TestOracleOnGeneratedWorkspaces:
    def test_every_entry_equals_select_then_project(self):
        potentials = 0
        for seed in range(300):
            for relation, index_attr, target_attr, indexes in oracle_cases(seed):
                extensions = oracle_index(relation, index_attr, target_attr)
                for index in indexes:
                    assert extensions.get(index, frozenset()) == \
                        reference_oracle_index(relation, index_attr, index,
                                               target_attr), (seed, index)
                potentials += 1
        assert potentials == 14


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
        (Member("Relationship1", (Var("i"), Var("i"), Var("x"))),
         "filter 'F' constrains more than the index and candidate; "
         "there is no relational twin"),
        (Member("Relationship1", (Var("i"), Var("x"), Var("x"))),
         "filter 'F' constrains more than the index and candidate; "
         "there is no relational twin"),
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
            assert same_contents(select(r, TruePred()), r)

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
            assert same_contents(twice, once)

    def test_select_distributes_over_union(self):
        rng = random.Random(10)
        for _ in range(60):
            schema = (("A0", NAME), ("A1", HOURS))
            r = random_relation(rng, "R", schema)
            s = random_relation(rng, "S", schema)
            pred = random_row_predicate(rng, r)
            lhs = select(union(r, s), pred)
            rhs = union(select(r, pred), select(s, pred))
            assert same_contents(lhs, rhs)

    def test_oracle_equals_its_expansion_and_brute_force(self):
        rng = random.Random(11)
        for _ in range(60):
            schema = (("K", NAME), ("V", NAME), ("W", HOURS))
            r = random_relation(rng, "R", schema)
            extensions = oracle_index(r, "K", "V")
            for key in {row[0] for row in r.tuples} | {symbol("Absent")}:
                via_oracle = extensions.get(key, frozenset())
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

    def test_join_past_the_row_limit_raises(self, monkeypatch):
        key = (("K", NAME),)
        r = Relation("R", key + (("A", NAME),),
                     frozenset((symbol("k"), symbol(w)) for w in WORDS[:4]))
        s = Relation("S", key + (("B", NAME),),
                     frozenset((symbol("k"), symbol(w)) for w in WORDS[:4]))
        monkeypatch.setattr(relational, "JOIN_ROW_LIMIT", 16)
        assert len(join(r, s).tuples) == 16
        monkeypatch.setattr(relational, "JOIN_ROW_LIMIT", 15)
        with pytest.raises(JoinTooLarge) as raised:
            join(r, s)
        assert str(raised.value) == "join of 'R' and 'S' has more than 15 rows"

    def test_the_row_limit_counts_every_key_of_the_join(self, monkeypatch):
        # Keys k1 and k2 give 3 * 2 + 2 * 4 = 14 rows; k3 matches nothing
        # and k4 is only on the right.
        key = (("K", NAME),)
        left = {"k1": WORDS[:3], "k2": WORDS[3:5], "k3": WORDS[5:6]}
        right = {"k1": WORDS[:2], "k2": WORDS[2:6], "k4": WORDS[:5]}
        r = Relation("R", key + (("A", NAME),), frozenset(
            (symbol(k), symbol(w)) for k, words in left.items() for w in words))
        s = Relation("S", key + (("B", NAME),), frozenset(
            (symbol(k), symbol(w)) for k, words in right.items() for w in words))
        monkeypatch.setattr(relational, "JOIN_ROW_LIMIT", 14)
        assert len(join(r, s).tuples) == 14
        monkeypatch.setattr(relational, "JOIN_ROW_LIMIT", 13)
        with pytest.raises(JoinTooLarge) as raised:
            join(r, s)
        assert str(raised.value) == "join of 'R' and 'S' has more than 13 rows"

    def test_a_refused_join_builds_no_rows(self):
        # 400 x 400 rows on one key is 160,000, past the real limit.  The
        # refusal comes from the count, so it allocates about what the
        # inputs take, not the limit's 100,000 rows (about 10 MB).
        key = (("K", NAME),)
        r = Relation("R", key + (("A", HOURS),),
                     frozenset((symbol("k"), number(i)) for i in range(400)))
        s = Relation("S", key + (("B", HOURS),),
                     frozenset((symbol("k"), number(i)) for i in range(400)))
        tracemalloc.start()
        try:
            with pytest.raises(JoinTooLarge):
                join(r, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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
        assert same_contents(eval_query(RelName("Relationship1"), self.registry()),
                             assignments())
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
        assert same_contents(eval_query(UnionExpr(logic, inf), reg),
                             assignments())
        assert same_contents(
            eval_query(DifferenceExpr(RelName("Relationship1"), logic), reg),
            eval_query(inf, reg))
        joined = eval_query(JoinExpr(RelName("Relationship1"),
                                     RelName("Relationship1")), reg)
        assert same_contents(joined, assignments())

    def test_atom_set_cannot_feed_an_operator(self):
        expr = Project(
            OracleExpr(RelName("Relationship1"), "Course",
                       symbol("Logic"), "Name"),
            ("Name",),
        )
        with pytest.raises(EvalTypeError):
            eval_query(expr, self.registry())


# Compound ``select ... where`` predicates over R (Course, Name, Hours),
# checked against a brute-force evaluation over the raw rows.  A term is an
# attribute, a numeral (one with leading zeros) or a name that is no
# attribute, which reads as a symbolic constant.
QUERY_ATTRIBUTES = ("Course", "Name", "Hours")
QUERY_TERMS = QUERY_ATTRIBUTES + ("20", "030", "7", "Logic", "Smith", "Doe")
QUERY_ROWS = st.frozensets(st.tuples(
    st.sampled_from(["Logic", "Informatics", "Doe"]),
    st.sampled_from(["Smith", "Doe", "Logic"]),
    st.sampled_from(["7", "20", "30"]),
), max_size=8)
QUERY_PREDICATES = st.recursive(
    st.one_of(
        st.tuples(st.just("="), st.sampled_from(QUERY_TERMS),
                  st.sampled_from(QUERY_TERMS)),
        st.sampled_from([("true",), ("false",)]),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["and", "or"]), inner, inner),
        st.tuples(st.sampled_from(["not", "()"]), inner),
    ),
    max_leaves=12,
)
# Binding strength; a parenthesised group and the leaves bind tightest.
PREDICATE_STRENGTH = {"or": 1, "and": 2, "not": 3}


def predicate_text(tree, outer: int = 0) -> str:
    """The tree as query text, with the parentheses that its shape needs
    and those its ``()`` nodes ask for: ``and`` and ``or`` chain to the
    left."""
    op = tree[0]
    strength = PREDICATE_STRENGTH.get(op, 4)
    if op in ("and", "or"):
        text = (f"{predicate_text(tree[1], strength)} {op} "
                f"{predicate_text(tree[2], strength + 1)}")
    elif op == "not":
        text = f"not {predicate_text(tree[1], strength)}"
    elif op == "()":
        text = f"({predicate_text(tree[1])})"
    elif op == "=":
        text = f"{tree[1]} = {tree[2]}"
    else:
        text = op
    return f"({text})" if strength < outer else text


def predicate_holds(tree, row: tuple[str, ...]) -> bool:
    def value(term):
        if term in QUERY_ATTRIBUTES:
            return row[QUERY_ATTRIBUTES.index(term)]
        return str(int(term)) if term.isdigit() else term

    op = tree[0]
    if op == "=":
        return value(tree[1]) == value(tree[2])
    if op == "and":
        return predicate_holds(tree[1], row) and predicate_holds(tree[2], row)
    if op == "or":
        return predicate_holds(tree[1], row) or predicate_holds(tree[2], row)
    if op == "not":
        return not predicate_holds(tree[1], row)
    if op == "()":
        return predicate_holds(tree[1], row)
    return op == "true"


@settings(max_examples=300, deadline=None)
@given(QUERY_ROWS, QUERY_PREDICATES)
def test_compound_selects_equal_a_brute_force_scan(rows, tree):
    relation = Relation("R", tuple(zip(QUERY_ATTRIBUTES, (COURSE, NAME, HOURS))),
                        frozenset((symbol(c), symbol(n), number(int(h)))
                                  for c, n, h in rows))
    expr = parse_query(f"select R where {predicate_text(tree)}")
    assert texts(eval_query(expr, {"R": relation})) == \
        {row for row in rows if predicate_holds(tree, row)}
    assert parse_query(format_relexpr(expr)) == expr


# ---------------------------------------------------------------------------
# Operator results are built from checked parts, without a second check


def checked_parts_calls(path: Path) -> set[str]:
    """The functions of ``path`` that name ``from_checked_parts``; a name
    outside any function is listed as ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "from_checked_parts"
                or isinstance(node, ast.Name) and node.id == "from_checked_parts"):
            callers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return callers


def test_only_the_operators_skip_the_row_checks():
    # A relation of rows from outside (a load, a test, a generated
    # workspace) goes through Relation(...) and its checks; only the
    # algebra's operators, whose rows come from checked relations, may
    # build one from checked parts.
    package = Path(relational.__file__).parent
    callers = {path: checked_parts_calls(path) for path in
               [*package.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]}
    assert {path.name: names for path, names in callers.items() if names} == {
        "relational.py": {"select", "project", "join", "_set_operation"}}
    loader_calls = {node.func.id for node in ast.walk(ast.parse(
        (package / "lang" / "loader.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "Relation" in loader_calls


# Numerals of one to four digits, so that a numeric column mixes lengths
# (9 < 10 < 100 by value, not by text); a few words in both cases.
CELLS = {SYMBOLIC: st.sampled_from(["Ash", "Elm", "Oak", "ash", "Z"]).map(symbol),
         NUMERIC: st.sampled_from([0, 1, 9, 10, 11, 99, 100, 1000]).map(number)}


@st.composite
def schemas(draw):
    names = draw(st.lists(st.sampled_from("KLAB"), unique=True, max_size=3))
    return tuple((name, draw(st.sampled_from([NAME, HOURS]))) for name in names)


@st.composite
def relations(draw, name="R", schema=None):
    if schema is None:
        schema = draw(schemas())
    rows = draw(st.frozensets(
        st.tuples(*(CELLS[sort.kind] for _, sort in schema)), max_size=10))
    return Relation(name, schema, rows)


@st.composite
def relation_pairs(draw):
    """(r, s), where s has r's schema about half the time."""
    r = draw(relations("R"))
    same = draw(st.booleans())
    return r, draw(relations("S", r.attributes if same else None))


def record_repr(relation: Relation) -> str:
    # A frozenset's repr lists its rows in table order, which depends on how
    # the set was built; the rest of the repr is the record's own.
    return repr(relation).replace(repr(relation.tuples), "<rows>")


def assert_built_as_checked(result: Relation, name, schema, rows):
    """``result`` is what ``Relation(...)`` makes of the parts that a plain
    reading of the operator gives, and of its own parts; copy and pickle
    give it back."""
    assert type(result.attributes) is tuple and type(result.tuples) is frozenset
    assert all(type(row) is tuple for row in result.tuples)
    for checked in (Relation(name, schema, rows),
                    Relation(result.name, result.attributes, result.tuples)):
        assert result == checked and checked == result
        assert hash(result) == hash(checked)
        assert record_repr(result) == record_repr(checked)
    for again in (copy.copy(result), copy.deepcopy(result),
                  pickle.loads(pickle.dumps(result))):
        assert type(again) is Relation and again == result
        assert hash(again) == hash(result)
        assert record_repr(again) == record_repr(result)


def assert_operators_build_as_checked(r: Relation, s: Relation, data):
    """Each operator over ``r`` and ``s``, against a plain reading of it, or
    the error it raises."""
    if r.attributes:
        attr, sort = data.draw(st.sampled_from(r.attributes))
        value = data.draw(CELLS[sort.kind])
        i = r.index_of(attr)
        assert_built_as_checked(
            select(r, Eq(Var(attr), Const(value))), f"sel_{r.name}", r.attributes,
            frozenset(row for row in r.tuples if row[i] == value))
    # A name listed twice is refused, with the error Relation(...) raises.
    names = data.draw(st.lists(st.sampled_from(r.attribute_names), max_size=4)
                      if r.attributes else st.just([]))
    positions = [r.index_of(a) for a in names]
    parts = (f"proj_{r.name}", tuple(r.attributes[i] for i in positions),
             frozenset(tuple(row[i] for i in positions) for row in r.tuples))
    if len(set(names)) == len(names):
        assert_built_as_checked(project(r, names), *parts)
    else:
        with pytest.raises(DefinitionError) as refused:
            Relation(*parts)
        with pytest.raises(DefinitionError) as raised:
            project(r, names)
        assert str(raised.value) == str(refused.value)
    for word, operator, combine in (("union", union, frozenset.union),
                                    ("diff", difference, frozenset.difference)):
        if r.attributes == s.attributes:
            assert_built_as_checked(operator(r, s), f"{word}_{r.name}_{s.name}",
                                    r.attributes, combine(r.tuples, s.tuples))
        else:
            with pytest.raises(SchemaMismatch) as raised:
                operator(r, s)
            assert str(raised.value) == \
                f"relations {r.name!r} and {s.name!r} have different schemas"
    shared = [a for a in r.attribute_names if a in s.attribute_names]
    r_sorts, s_sorts = dict(r.attributes), dict(s.attributes)
    clash = next((a for a in shared if r_sorts[a] != s_sorts[a]), None)
    if not shared:
        with pytest.raises(NoSharedAttributes):
            join(r, s)
    elif clash is not None:
        with pytest.raises(SortMismatch) as raised:
            join(r, s)
        assert repr(clash) in str(raised.value)
    else:
        rest = [(a, sort) for a, sort in s.attributes if a not in shared]
        rows = frozenset(
            left + tuple(right[s.index_of(a)] for a, _ in rest)
            for left in r.tuples for right in s.tuples
            if all(left[r.index_of(a)] == right[s.index_of(a)] for a in shared))
        assert_built_as_checked(join(r, s), f"join_{r.name}_{s.name}",
                                r.attributes + tuple(rest), rows)


@settings(max_examples=300, deadline=None)
@given(relation_pairs(), st.data())
def test_operators_build_what_the_checked_constructor_builds(pair, data):
    assert_operators_build_as_checked(*pair, data)


@st.composite
def part_of(draw, whole: Relation):
    """The projection of ``whole`` onto drawn attributes, read plainly."""
    positions = draw(st.lists(st.integers(0, len(whole.attributes) - 1),
                              min_size=1, unique=True))
    return Relation(f"{whole.name}_part",
                    tuple(whole.attributes[i] for i in positions),
                    frozenset(tuple(row[i] for i in positions) for row in whole.tuples))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 299), st.data())
def test_operators_on_generated_workspaces_build_as_checked(seed, data):
    generated = list(gen_workspace(random.Random(seed)).relations.values())
    r = data.draw(st.sampled_from(generated))
    s = data.draw(st.sampled_from(generated))
    assert_operators_build_as_checked(r, s, data)
    assert_operators_build_as_checked(r, r, data)
    # wsgen gives relations of one workspace the same attribute names with
    # sorts drawn apart, so most of their joins end in SortMismatch; a part
    # of a relation shares its sorts, so joins with it read wsgen rows.
    for whole in (r, s):
        if whole.attributes:
            part = data.draw(part_of(whole))
            assert_operators_build_as_checked(whole, part, data)
            assert_operators_build_as_checked(part, whole, data)


def order_key_sorted(relation: Relation) -> list:
    return sorted(relation.tuples, key=lambda row: tuple(a.order_key() for a in row))


@settings(max_examples=300, deadline=None)
@given(relations())
def test_sorted_tuples_follow_the_atom_order(r):
    assert r.sorted_tuples() == order_key_sorted(r)
    for derived in (project(r, []), project(r, list(r.attribute_names[::-1]))):
        assert derived.sorted_tuples() == order_key_sorted(derived)


def test_sorted_tuples_order_numerals_by_value_and_keep_a_zero_arity_row():
    r = Relation("R", (("N", HOURS), ("A", NAME)), frozenset(
        (number(n), symbol(a)) for n, a in [(10, "x"), (9, "y"), (100, "a"),
                                            (9, "b"), (11, "x")]))
    assert [tuple(a.text for a in row) for row in r.sorted_tuples()] == \
        [("9", "b"), ("9", "y"), ("10", "x"), ("11", "x"), ("100", "a")]
    assert project(r, []).sorted_tuples() == [()]
    empty = Relation("E", r.attributes, frozenset())
    assert empty.sorted_tuples() == project(empty, []).sorted_tuples() == []


# Random select predicates over random relations, the empty one included,
# against the reference walk: the same rows, or the same error.  A term is
# an attribute or another name, as a query's identifier or as a variable,
# a constant or a wildcard; a leaf is also true, false or a member test.
# The faulty terms and leaves are drawn less often than the others, so
# that many tests of rows end in rows rather than in a fault.
ROW_NAMES = st.sampled_from(["K", "L", "A", "B", "Ash", "Z"])
ROW_CONSTANTS = st.one_of(*CELLS.values()).map(Const)
ROW_TERMS = st.one_of(
    ROW_NAMES.map(TermIdent), ROW_NAMES.map(TermIdent), ROW_NAMES.map(Var),
    ROW_CONSTANTS, ROW_CONSTANTS, st.just(Wildcard()))
ROW_EQUATIONS = st.builds(Eq, ROW_TERMS, ROW_TERMS)
ROW_PREDICATES = st.recursive(
    st.one_of(ROW_EQUATIONS, ROW_EQUATIONS, ROW_EQUATIONS,
              st.sampled_from([TruePred(), FalsePred()]),
              st.builds(lambda term: Member("R", (term,)), ROW_TERMS)),
    lambda inner: st.one_of(st.builds(Not, inner), st.builds(And, inner, inner),
                            st.builds(Or, inner, inner)),
    max_leaves=8)
ONE_ROW = Relation("R", (("K", NAME), ("A", HOURS)), frozenset([(symbol("Ash"), number(1))]))


@settings(max_examples=500, deadline=None)
@given(relations(), ROW_PREDICATES)
@example(ONE_ROW, And(FalsePred(), Member("R", ())))
@example(ONE_ROW, Or(TruePred(), Eq(Var("Q"), Const(symbol("Ash")))))
@example(ONE_ROW, Eq(Wildcard(), Var("Q")))
@example(ONE_ROW, And(Eq(TermIdent("K"), TermIdent("Ash")), Eq(Var("A"), Const(number(1)))))
@example(ONE_ROW, Not(Eq(TermIdent("A"), Const(symbol("A")))))
@example(Relation("R", ONE_ROW.attributes, frozenset()), Eq(Var("Q"), Wildcard()))
def test_select_tests_rows_as_the_reference_walk_does(r, pred):
    expected = outcome(lambda: frozenset(
        row for row in r.tuples if reference_row_predicate(pred, r, row)))
    assert outcome(lambda: select(r, pred).tuples) == expected
    assert outcome(lambda: eval_query(Select(RelName("R"), pred), {"R": r}).tuples) \
        == expected
