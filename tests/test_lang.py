import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodl.core import number
from dodl.diagrams import And, Not, Or
from dodl.errors import DodlError
from dodl.lang import build, dump, load_texts, parse, parse_query, validate
from dodl.lang.lexer import EOF, IDENT, INT, PUNCT, tokenize
from dodl.lang.parser import MAX_DEPTH
from dodl.lang.syntax import Diagnostic, DomainDecl, QueryCmd, TriggerCmd
from dodl.relational import OracleExpr, Project, Select


class TestParse:
    def test_domain_statement(self):
        unit = parse("domain Teach : Name = { Johnes, Smith, Doe, Jackson };")
        assert not unit.errors
        (stmt,) = unit.statements
        assert isinstance(stmt, DomainDecl)
        assert stmt.name.name == "Teach"
        assert stmt.sort.name == "Name"
        assert [a.text for a in stmt.atoms] == ["Johnes", "Smith", "Doe", "Jackson"]

    def test_empty_input(self):
        unit = parse("")
        assert unit.statements == ()
        assert unit.errors == ()

    def test_comments_and_whitespace_only(self):
        unit = parse("# nothing here\n\n   # still nothing\n")
        assert unit.statements == ()
        assert unit.errors == ()

    def test_missing_sort_name_points_at_the_equals_sign(self):
        source = "domain X : = {};"
        unit = parse(source)
        assert len(unit.errors) == 1
        diagnostic = unit.errors[0]
        assert source[diagnostic.start:diagnostic.end] == "="
        assert diagnostic.expected == ("sort name",)
        assert diagnostic.col == source.index("=") + 1

    def test_statement_spans_slice_the_source(self):
        source = "sort A : symbolic;\ndomain D : A = { X };\n"
        unit = parse(source)
        spans = [s.span for s in unit.statements]
        assert source[spans[0].start:spans[0].end] == "sort A : symbolic;"
        assert source[spans[1].start:spans[1].end] == "domain D : A = { X };"
        assert spans[0].end <= spans[1].start  # non-overlapping

    def test_recovery_continues_after_an_error(self):
        source = "sort A :;\nsort B : numeric;\n"
        unit = parse(source)
        assert len(unit.errors) == 1
        assert [s.name.name for s in unit.statements] == ["B"]

    def test_at_most_twenty_errors(self):
        source = "bogus;\n" * 50
        unit = parse(source)
        assert len(unit.errors) == 20

    def test_unknown_statement_keyword_lists_the_alternatives(self):
        unit = parse("frobnicate X;")
        assert unit.errors
        assert "sort" in unit.errors[0].expected

    def test_lexer_rejects_stray_characters(self):
        unit = parse("sort A : symbolic; @")
        assert any("@" in d.message for d in unit.errors)

    def test_concept_with_items(self):
        unit = parse(
            "concept T { attr h = 20; event assign; menu A -> assign; "
            "encapsulated h; };"
        )
        assert not unit.errors
        (stmt,) = unit.statements
        assert stmt.attributes == (("h", number(20)),)
        assert stmt.events == ("assign",)
        assert stmt.menus == (("A", "assign"),)
        assert stmt.encapsulated == ("h",)

    def test_wildcard_restricted_to_membership_patterns(self):
        unit = parse("filter F (i, x) = i = _;")
        assert unit.errors

    def test_trigger_and_query_commands(self):
        unit = parse("trigger Tch Logic;\nquery oracle(R, A = V, B);")
        assert not unit.errors
        trigger_cmd, query_cmd = unit.statements
        assert isinstance(trigger_cmd, TriggerCmd)
        assert trigger_cmd.po.name == "Tch"
        assert isinstance(query_cmd, QueryCmd)
        assert isinstance(query_cmd.expr, OracleExpr)


class TestParseQuery:
    def test_nested_expression(self):
        expr = parse_query("project (select R where A = V) [A]")
        assert isinstance(expr, Project)
        assert isinstance(expr.source, Select)

    def test_binary_operators(self):
        from dodl.relational import DifferenceExpr, JoinExpr, UnionExpr

        assert isinstance(parse_query("join(R, S)"), JoinExpr)
        assert isinstance(parse_query("union(R, difference(S, T))"), UnionExpr)
        inner = parse_query("union(R, difference(S, T))").right
        assert isinstance(inner, DifferenceExpr)

    def test_where_clause_supports_connectives(self):
        expr = parse_query("select R where A = V and not B = 3 or true")
        assert isinstance(expr, Select)

    def test_trailing_junk_rejected(self):
        with pytest.raises(DodlError):
            parse_query("R extra")

    def test_empty_rejected(self):
        with pytest.raises(DodlError):
            parse_query("")


class TestValidate:
    def test_teaching_corpus_is_clean(self, teaching_text):
        assert validate(parse(teaching_text)) == []

    def test_member_arity_mismatch(self):
        source = (
            "sort S : symbolic;\n"
            "relation R (A : S, B : S, C : S) = { };\n"
            "filter F (i, x) = member R (i, x);\n"
        )
        diagnostics = validate(parse(source))
        assert len(diagnostics) == 1
        assert "arity 2" in diagnostics[0].message
        assert "arity 3" in diagnostics[0].message

    def test_concept_cycle_names_both_concepts(self):
        source = "concept A : B { };\nconcept B : A { };\n"
        diagnostics = validate(parse(source))
        assert len(diagnostics) == 1
        assert "A" in diagnostics[0].message and "B" in diagnostics[0].message

    def test_unknown_references_are_reported_with_spans(self):
        source = "domain D : Ghost = { X };\n"
        diagnostics = validate(parse(source))
        assert len(diagnostics) == 1
        assert source[diagnostics[0].start:diagnostics[0].end] == "Ghost"

    def test_duplicate_names_within_a_namespace(self):
        source = "sort A : symbolic;\nsort A : numeric;\n"
        diagnostics = validate(parse(source))
        assert any("already defined" in d.message for d in diagnostics)

    def test_same_name_across_namespaces_is_fine(self):
        source = "sort Course : symbolic;\ndomain Course : Course = { X };\n"
        assert validate(parse(source)) == []

    def test_potential_object_checks(self):
        source = (
            "sort S : symbolic;\n"
            "domain D : S = { A };\n"
            "relation R (K : S, V : S) = { };\n"
            "filter F (i, x) = member R (i, x);\n"
            "potential P carrier D index D filter F;\n"
        )
        diagnostics = validate(parse(source))
        assert any("distinct" in d.message for d in diagnostics)

    def test_script_index_membership(self):
        source = (
            "sort S : symbolic;\n"
            "domain Carrier : S = { A };\n"
            "domain Idx : S = { I };\n"
            "relation R (K : S, V : S) = { };\n"
            "filter F (i, x) = member R (i, x);\n"
            "potential P carrier Carrier index Idx filter F;\n"
            "script Bad = [ (P, Missing) ];\n"
        )
        diagnostics = validate(parse(source))
        assert any("Missing" in d.message for d in diagnostics)

    def test_evolvent_composition_cycle(self):
        source = (
            "evolvent A = compose(B);\n"
            "evolvent B = compose(A);\n"
        )
        diagnostics = validate(parse(source))
        assert any("cycle" in d.message for d in diagnostics)

    def test_diagram_unbound_variable(self):
        source = (
            "sort S : symbolic;\n"
            "domain D : S = { A };\n"
            "diagram G entry D path_a [ var loose ] path_b [ input ] exit D;\n"
        )
        diagnostics = validate(parse(source))
        assert any("loose" in d.message for d in diagnostics)

    def test_check_command_requires_a_known_diagram(self):
        diagnostics = validate(parse("check Ghost;"))
        assert any("Ghost" in d.message for d in diagnostics)

    def test_forward_references_resolve(self):
        source = (
            "potential P carrier Carrier index Idx filter F;\n"
            "filter F (i, x) = member R (i, x);\n"
            "relation R (K : S, V : S) = { };\n"
            "domain Carrier : S = { A };\n"
            "domain Idx : S = { I };\n"
            "sort S : symbolic;\n"
        )
        assert validate(parse(source)) == []


class TestLoad:
    def test_load_runs_trigger_commands_through_the_exchange(self, teaching_text):
        result = load_texts([
            ("teaching.dodl", teaching_text),
            ("boot.dodl", "trigger Tch Logic;\n"),
        ])
        assert result.ok
        state = result.workspace
        assert set(state.ao_library) == {"Tch_Logic"}
        assert state.stage == 1
        assert result.exchange.audit_text() == "0\tTrigger\tTch[Logic]\tok\n"
        assert result.outputs == ["Tch_Logic = { Johnes, Smith }"]

    def test_failing_check_command_is_a_diagnostic(self, teaching_text):
        extra = (
            "filter Never (i, x) = false;\n"
            "diagram Broken entry pair(Course, Teach)"
            " path_a [ apply(filter TchFilter, input) ]"
            " path_b [ apply(filter Never, input) ] exit bool;\n"
            "check Broken;\n"
        )
        result = load_texts([(None, teaching_text), (None, extra)])
        assert result.exchange is not None
        assert any("does not commute" in d.message for d in result.diagnostics)
        assert any("6/8" in o or "commute" in o for o in result.outputs)

    def test_passing_check_command_loads_clean(self, teaching_text):
        result = load_texts([(None, teaching_text), (None, "check Fig4;\n")])
        assert result.ok
        assert "Fig4: 8/8 inputs commute" in result.outputs

    def test_query_command_output(self, teaching_text):
        result = load_texts([
            (None, teaching_text),
            (None, "query oracle(Relationship1, Course = Logic, Name);\n"),
        ])
        assert result.ok
        assert "{ Johnes, Smith }" in result.outputs

    def test_each_diagnostic_names_the_file_of_its_anchor(self):
        result = load_texts([
            ("a.dodl", "sort S : symbolic;\ndomain D : Ghost = { X };\n"),
            (None, "filter F (i, x) = member Nowhere (i, x);\n"),
            ("b.dodl", "\nsort S : numeric;\nconcept K : K { };\n"),
        ])
        assert [(d.path, d.line, d.col, d.message)
                for d in result.diagnostics] == [
            ("b.dodl", 2, 1, "sort 'S' is already defined"),
            ("a.dodl", 2, 12, "sort 'Ghost' is not defined"),
            (None, 1, 26, "relation 'Nowhere' is not defined"),
            ("b.dodl", 3, 1, "concept 'K' inherits from itself"),
        ]

    def test_duplicate_atoms_are_noted_not_errored(self):
        source = "sort S : symbolic;\ndomain D : S = { A, A, B };\n"
        result = load_texts([(None, source)])
        assert result.ok
        assert any("1 duplicate atom" in n for n in result.notes)

    def test_duplicate_tuples_are_noted(self):
        source = (
            "sort S : symbolic;\n"
            "relation R (K : S) = { (A), (A) };\n"
        )
        result = load_texts([(None, source)])
        assert result.ok
        assert any("duplicate tuple" in n for n in result.notes)

    def test_load_against_base_workspace(self, teaching_ws):
        unit = parse("potential Tch carrier Teach index Course filter TchFilter;")
        diagnostics = validate(unit, teaching_ws)
        assert any("already defined" in d.message for d in diagnostics)
        more = parse(
            "filter AnyPair (i, x) = true;\n"
            "potential All carrier Teach index Course filter AnyPair;\n"
        )
        assert validate(more, teaching_ws) == []
        result = build([more], teaching_ws)
        assert result.ok
        assert "All" in result.workspace.potentials
        assert "Tch" in result.workspace.potentials

    def test_syntax_errors_block_the_build(self):
        result = load_texts([(None, "sort A :;")])
        assert result.exchange is None
        assert result.diagnostics


def reference_tokenize(text: str):
    """The character-at-a-time lexer the pattern lexer replaced, as field
    tuples.  Kept as the reference for ASCII input."""
    tokens = []
    errors = []
    pos = 0
    line = 1
    col = 1
    n = len(text)

    def emit(kind, start, start_line, start_col, end):
        tokens.append((kind, text[start:end], start_line, start_col, start, end))

    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        start, start_line, start_col = pos, line, col
        if ch.isalpha():
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            col += pos - start
            emit(IDENT, start, start_line, start_col, pos)
            continue
        if ch.isdigit():
            while pos < n and text[pos].isdigit():
                pos += 1
            col += pos - start
            emit(INT, start, start_line, start_col, pos)
            continue
        if ch == "-" and pos + 1 < n and text[pos + 1] == ">":
            pos += 2
            col += 2
            emit(PUNCT, start, start_line, start_col, pos)
            continue
        if ch == "_":
            pos += 1
            col += 1
            if pos < n and (text[pos].isalnum() or text[pos] == "_"):
                while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                    pos += 1
                col += pos - start - 1
                errors.append(Diagnostic(
                    "names may not begin with '_'",
                    start_line, start_col, start, pos,
                ))
                continue
            emit(PUNCT, start, start_line, start_col, pos)
            continue
        if ch in "{}()[],;:=_":
            pos += 1
            col += 1
            emit(PUNCT, start, start_line, start_col, pos)
            continue
        pos += 1
        col += 1
        errors.append(Diagnostic(
            f"unexpected character {ch!r}",
            start_line, start_col, start, pos,
        ))

    tokens.append((EOF, "", line, col, n, n))
    return tokens, errors


def lexed(text: str):
    tokens, errors = tokenize(text)
    return [tuple(token) for token in tokens], errors


# Mostly the characters tokens, comments and line breaks are made of, plus
# any other ASCII character.
ascii_source = st.lists(
    st.one_of(
        st.sampled_from(list("aZz_9007 \t\r\n#->{}()[],;:=")),
        st.sampled_from(["not", "sort", "->", "_x", "# c\n"]),
        st.characters(max_codepoint=127),
    ),
    max_size=60,
).map("".join)


def concept_chain(depth: int) -> str:
    return "concept C0 { attr a = X; };\n" + "".join(
        f"concept C{i} : C{i - 1} {{ encapsulated a; }};\n"
        for i in range(1, depth))


def compose_chain(depth: int) -> str:
    """E0 = compose(E1), E1 = compose(E2), ... down to an identity, so a walk
    from E0, the first name in sorted order, goes the whole depth."""
    return "".join(f"evolvent E{i} = compose(E{i + 1});\n"
                   for i in range(depth - 1)) + f"evolvent E{depth - 1} = identity;\n"


def recursive_evolvent_cycle(parts: dict[str, tuple[str, ...]]):
    """The loader's evolvent cycle check as it was written before: a
    recursive three-colour walk from each name in sorted order."""
    colors: dict[str, int] = {}

    def visit(name, trail):
        state = colors.get(name)
        if state == 1:
            return trail[trail.index(name):] + [name]
        if state == 2 or name not in parts:
            return None
        colors[name] = 1
        trail.append(name)
        for part in parts[name]:
            cycle = visit(part, trail)
            if cycle is not None:
                return cycle
        trail.pop()
        colors[name] = 2
        return None

    for name in sorted(parts):
        cycle = visit(name, [])
        if cycle is not None:
            return cycle
    return None


EVOLVENTS = [f"V{i}" for i in range(7)]
evolvent_graphs = st.lists(
    st.one_of(st.none(),
              st.lists(st.sampled_from(EVOLVENTS + ["Ghost"]),
                       min_size=1, max_size=3)),
    min_size=len(EVOLVENTS), max_size=len(EVOLVENTS),
)


class TestGraphWalks:
    """Concept and evolvent graphs are walked without recursion, and each
    node once."""

    def test_a_deep_concept_chain_loads(self):
        result = load_texts([(None, concept_chain(1200))])
        assert result.ok, [d.render() for d in result.diagnostics[:3]]
        assert len(result.workspace.concepts) == 1200

    def test_a_deep_compose_chain_loads(self):
        result = load_texts([(None, compose_chain(1200))])
        assert result.ok, [d.render() for d in result.diagnostics[:3]]
        assert result.workspace.evolvents["E0"].parts == ("E1",)

    def test_a_ladder_loads_in_linear_time(self):
        source = "concept C0 { attr a = X; };\nconcept C1 : C0 { };\n" + "".join(
            f"concept C{i} : C{i - 1}, C{i - 2} {{ encapsulated a; }};\n"
            for i in range(2, 200))
        started = time.monotonic()
        result = load_texts([(None, source)])
        assert time.monotonic() - started < 1.0
        assert result.ok

    def test_a_deep_concept_cycle_is_reported_where_it_closes(self):
        loop = "".join(f"concept C{i} : C{i - 1} {{ }};\n" for i in range(1, 1200))
        result = load_texts([("loop.dodl", loop + "concept C0 : C1199 { };\n")])
        (diagnostic,) = result.diagnostics
        assert diagnostic.message == "concept inheritance cycle: C0 -> " + \
            " -> ".join(f"C{i}" for i in range(1199, -1, -1))
        assert (diagnostic.line, diagnostic.path) == (1200, "loop.dodl")

    @settings(max_examples=300, deadline=None)
    @given(evolvent_graphs, st.randoms(use_true_random=False))
    def test_evolvent_cycles_equal_the_recursive_check(self, graph, rng):
        lines = [f"evolvent {name} = identity;" if parts is None else
                 f"evolvent {name} = compose({', '.join(parts)});"
                 for name, parts in zip(EVOLVENTS, graph)]
        rng.shuffle(lines)
        built = {name: () if parts is None else tuple(parts)
                 for name, parts in zip(EVOLVENTS, graph)
                 if parts is None or "Ghost" not in parts}
        expected = recursive_evolvent_cycle(built)
        result = load_texts([("e.dodl", "\n".join(lines) + "\n")])
        found = [(d.message, d.line) for d in result.diagnostics
                 if "cycle" in d.message]
        if expected is None:
            assert found == []
        else:
            line = 1 + next(i for i, text in enumerate(lines)
                            if text.startswith(f"evolvent {expected[0]} "))
            assert found == [("evolvent composition cycle: "
                              + " -> ".join(expected), line)]


class TestLexer:
    @settings(max_examples=400, deadline=200)
    @given(ascii_source)
    def test_matches_the_reference_on_ascii_text(self, text):
        assert lexed(text) == reference_tokenize(text)

    def test_matches_the_reference_on_the_teaching_corpus(self, teaching_text):
        assert lexed(teaching_text) == reference_tokenize(teaching_text)

    def test_non_ascii_letter_is_reported_at_its_own_column(self):
        source = "sort N : symbolic;\ndomain D : N = { Caf\u00e9 };"
        (diagnostic,) = parse(source).errors
        assert diagnostic.message == "unexpected character '\u00e9'"
        assert (diagnostic.line, diagnostic.col) == (2, source.index("\u00e9") - 18)
        assert source[diagnostic.start:diagnostic.end] == "\u00e9"

    def test_non_ascii_name_is_rejected(self):
        source = "sort N : symbolic;\ndomain Caf\u00e9 : N = { a };"
        result = load_texts([(None, source)])
        assert not result.ok
        assert [d.message for d in result.diagnostics] == [
            "unexpected character '\u00e9'"
        ]

    def test_non_ascii_digit_is_reported_at_its_own_column(self):
        source = "domain D : H = { \u00b22 };"
        (diagnostic,) = parse(source).errors
        assert diagnostic.message == "unexpected character '\u00b2'"
        assert diagnostic.col == source.index("\u00b2") + 1

    def test_unicode_whitespace_separates_tokens(self):
        tokens, errors = lexed("sort\u00a0A\u2003:\u3000symbolic;")
        assert errors == []
        assert [t[1] for t in tokens] == ["sort", "A", ":", "symbolic", ";", ""]
        assert [t[3] for t in tokens] == [1, 6, 8, 10, 18, 19]

    @pytest.mark.parametrize("source, line, col", [
        ("sort A;  # note", 1, 10),
        ("sort A;  # note\n", 2, 1),
        ("sort A;  ", 1, 10),
        ("#", 1, 1),
    ])
    def test_end_of_input_position(self, source, line, col):
        eof = tokenize(source)[0][-1]
        assert (eof.kind, eof.line, eof.col) == (EOF, line, col)


class TestNestingDepth:
    @pytest.mark.parametrize("make", [
        lambda n: "filter F (i, x) = " + "not " * n + "x = a;",
        lambda n: "filter F (i, x) = " + "(" * n + "x = a" + ")" * n + ";",
        lambda n: "query " + "project " * n + "R" + " [A]" * n + ";",
        lambda n: "query " + "(" * n + "R" + ")" * n + ";",
        lambda n: ("diagram G entry D path_a [" + "id(" * n + "input"
                   + ")" * n + "] path_b [input] exit D;"),
        lambda n: "filter F (i, x) = " + " and ".join(["x = a"] * n) + ";",
        lambda n: "query select R where " + " or ".join(["A = a"] * n) + ";",
    ], ids=["not", "parentheses", "project", "query-parentheses", "diagram",
            "and-chain", "or-chain"])
    def test_limit_is_a_diagnostic_and_parsing_resumes(self, make):
        assert not parse(make(MAX_DEPTH - 1)).errors
        unit = parse(make(3000) + "\nsort S : symbolic;")
        (diagnostic,) = unit.errors
        assert diagnostic.message == f"nesting deeper than {MAX_DEPTH} levels"
        assert [type(s).__name__ for s in unit.statements] == ["SortDecl"]

    def test_load_texts_reports_the_offending_token(self):
        source = ("sort S : symbolic;\ndomain D : S = { a };\n"
                  "filter F (i, x) = " + "not " * 3000 + "x = a;\n")
        result = load_texts([("deep.dodl", source)])
        assert result.exchange is None
        (diagnostic,) = result.diagnostics
        assert diagnostic.path == "deep.dodl"
        assert diagnostic.message == f"nesting deeper than {MAX_DEPTH} levels"
        # The first 'not' past the limit.
        offset = source.index("not") + 4 * MAX_DEPTH
        assert (diagnostic.start, diagnostic.end) == (offset, offset + 3)
        assert (diagnostic.line, diagnostic.col) == (3, 19 + 4 * MAX_DEPTH)

    def test_parse_query_raises_a_dodl_error(self):
        with pytest.raises(DodlError, match="nesting deeper than"):
            parse_query("(" * 3000 + "R" + ")" * 3000)

    @pytest.mark.parametrize("make", [
        lambda n: " and ".join(["x = a"] * n),
        lambda n: " or ".join(["x = a"] * n),
        # not (And(x = a, not x = b) or x = c or ...): height n.
        lambda n: ("not (" + " or ".join(["x = a and not x = b"]
                                         + ["x = c"] * (n - 4)) + ")"),
    ], ids=["and", "or", "mixed"])
    def test_a_chain_counts_one_level_per_operand(self, make):
        head = "sort S : symbolic;\ndomain D : S = { a, b, c };\n"
        at_limit = head + f"filter F (i, x) = {make(MAX_DEPTH)};\n"
        result = load_texts([("chain.dodl", at_limit)])
        assert not result.diagnostics
        text = dump(result.exchange.state)
        again = load_texts([("dump.dodl", text)])
        assert not again.diagnostics
        assert dump(again.exchange.state) == text

        past = head + f"filter F (i, x) = {make(MAX_DEPTH + 1)};\n"
        (diagnostic,) = load_texts([("chain.dodl", past)]).diagnostics
        assert diagnostic.message == f"nesting deeper than {MAX_DEPTH} levels"
        # The first token of the operand that makes the tree too deep.
        offset = past.rindex("x = ")
        assert (diagnostic.start, diagnostic.end) == (offset, offset + 1)
        line_start = past.index("filter")
        assert (diagnostic.line, diagnostic.col) == (3, offset - line_start + 1)

    @settings(max_examples=200, deadline=1000)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_accepted_predicate_prints_back(self, seed):
        rng = random.Random(seed)
        source = ("sort S : symbolic;\ndomain D : S = { a, b };\n"
                  f"filter F (i, x) = {random_predicate_text(rng, 110)[0]};\n")
        result = load_texts([("random.dodl", source)])
        if result.diagnostics:
            assert [d.message for d in result.diagnostics] == \
                [f"nesting deeper than {MAX_DEPTH} levels"]
            return
        assert height(result.exchange.state.filters["F"].body) <= MAX_DEPTH
        text = dump(result.exchange.state)
        again = load_texts([("dump.dodl", text)])
        assert not again.diagnostics
        assert dump(again.exchange.state) == text


def random_predicate_text(rng: random.Random, budget: int) -> tuple[str, bool]:
    """Predicate text using about ``budget`` levels, mixing long chains,
    ``not`` and redundant parentheses; also says whether it is a bare chain."""
    roll = rng.random()
    if budget <= 1 or roll < 0.1:
        return rng.choice(["x = a", "i = b", "true", "false"]), False
    if roll < 0.3:
        text, chain = random_predicate_text(rng, budget - 1)
        return "not " + (f"({text})" if chain else text), False
    if roll < 0.45:
        return "(" + random_predicate_text(rng, budget - 1)[0] + ")", False
    # Any operand may be the deepest, but only one gets a large budget, so
    # the text stays small.
    count = rng.randint(2, budget)
    deep = rng.randrange(count)
    operands = []
    for k in range(count):
        text, chain = random_predicate_text(
            rng, rng.randint(1, budget - 1) if k == deep else rng.randint(1, 2))
        operands.append(f"({text})" if chain else text)
    return rng.choice([" and ", " or "]).join(operands), True


def height(pred) -> int:
    if isinstance(pred, (And, Or)):
        return 1 + max(height(pred.left), height(pred.right))
    if isinstance(pred, Not):
        return 1 + height(pred.operand)
    return 1
