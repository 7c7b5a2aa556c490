"""Every place a declared name is resolved, with the exact error it gives.

One table row per reference site of the definition language: the load
diagnostic's file, line, column, the source text its span covers, and its
message.  Then the library lookups that raise at run time, and the CLI's
commands on names nothing declares.
"""

import pytest

from dodl import (
    DiagramSpec,
    Event,
    Exchange,
    Filter,
    FilterRef,
    IndexShift,
    Member,
    Query,
    Shape,
    Var,
    apply_evolvent,
    enumerate_entry,
    eval_query,
    materialize_functor,
    run_filter,
    run_script,
    symbol,
    trigger,
)
from dodl import errors
from dodl.cli import main
from dodl.diagrams import Const
from dodl.errors import (
    IndexNotInDomain,
    UnknownConcept,
    UnknownDiagram,
    UnknownDomain,
    UnknownEvolvent,
    UnknownFilter,
    UnknownPotentialObject,
    UnknownRelation,
    UnknownScript,
    UnknownSort,
)
from dodl.lang import load_texts
from dodl.relational import RelName
from reference import declarations_equal, eval_expr

BASE = """\
sort Name : symbolic;
sort Num : numeric;
domain Teachers : Name = { Smith, Doe };
domain Courses : Name = { Logic, Art };
relation Teach (course : Name, teacher : Name) = { (Logic, Smith), (Art, Doe) };
filter Teaches (c, t) = member Teach (c, t);
potential Staff carrier Teachers index Courses filter Teaches;
concept Root { attr a = 1; };
diagram G entry pair(Courses, Teachers)
    path_a [ apply(filter Teaches, input) ]
    path_b [ apply(shift(Staff, fst(input)), snd(input)) ] exit bool;
script S = [ (Staff, Logic) ];
evolvent E = script S;
"""

# (site, path of the second file, its statement, expected diagnostics as
# (path, line, col, text under the span, message)).  The statement is
# written on line 2, after a comment and two spaces, so that line, column
# and offsets all count.
SITES = [
    ("sort of a domain", "bad.dodl",
     "domain D2 : Ghost = { X };",
     [("bad.dodl", 2, 15, "Ghost", "sort 'Ghost' is not defined")]),
    ("sort of a relation attribute", None,
     "relation R2 (k : Name, v : Ghost) = { };",
     [(None, 2, 30, "Ghost", "sort 'Ghost' is not defined")]),
    ("relation of a member", "bad.dodl",
     "filter F2 (i, x) = member Ghost (i, x);",
     [("bad.dodl", 2, 29, "Ghost", "relation 'Ghost' is not defined")]),
    ("arity of a member", None,
     "filter F2 (i, x) = member Teach (i, _) and member Teach (i, x, _);",
     [(None, 2, 53, "Teach",
       "pattern of arity 3 against relation 'Teach' of arity 2")]),
    ("carrier of a potential object", "bad.dodl",
     "potential P2 carrier Ghost index Courses filter Teaches;",
     [("bad.dodl", 2, 24, "Ghost", "domain 'Ghost' is not defined")]),
    ("index domain of a potential object", None,
     "potential P2 carrier Teachers index Ghost filter Teaches;",
     [(None, 2, 39, "Ghost", "domain 'Ghost' is not defined")]),
    ("filter of a potential object", "bad.dodl",
     "potential P2 carrier Teachers index Courses filter Ghost;",
     [("bad.dodl", 2, 54, "Ghost", "filter 'Ghost' is not defined")]),
    ("every reference of a potential object, in order", "bad.dodl",
     "potential P2 carrier Ghost index Nope filter Nada;",
     [("bad.dodl", 2, 24, "Ghost", "domain 'Ghost' is not defined"),
      ("bad.dodl", 2, 36, "Nope", "domain 'Nope' is not defined"),
      ("bad.dodl", 2, 48, "Nada", "filter 'Nada' is not defined")]),
    ("concept parent", None,
     "concept K : Root, Ghost { };",
     [(None, 2, 21, "Ghost", "concept 'Ghost' is not defined")]),
    ("diagram entry domain", "bad.dodl",
     "diagram G2 entry pair(Courses, Ghost) path_a [ input ] "
     "path_b [ input ] exit bool;",
     [("bad.dodl", 2, 34, "Ghost", "domain 'Ghost' is not defined")]),
    ("diagram exit domain", None,
     "diagram G2 entry Courses path_a [ input ] path_b [ input ] exit Ghost;",
     [(None, 2, 67, "Ghost", "domain 'Ghost' is not defined")]),
    ("diagram filter ref", "bad.dodl",
     "diagram G2 entry Courses path_a [ apply(filter Ghost, pair(input, "
     "input)) ] path_b [ const true ] exit bool;",
     [("bad.dodl", 2, 50, "Ghost", "filter 'Ghost' is not defined")]),
    ("diagram shift potential object", None,
     "diagram G2 entry Courses path_a [ shift(Ghost, input) ] "
     "path_b [ input ] exit bool;",
     [(None, 2, 43, "Ghost", "potential object 'Ghost' is not defined")]),
    ("script potential object", "bad.dodl",
     "script S2 = [ (Staff, Art), (Ghost, Logic) ];",
     [("bad.dodl", 2, 32, "Ghost", "potential object 'Ghost' is not defined")]),
    ("script index", None,
     "script S2 = [ (Staff, Nowhere) ];",
     [(None, 2, 18, "Staff", "'Nowhere' is not in domain 'Courses'")]),
    ("evolvent script", "bad.dodl",
     "evolvent E2 = script Ghost;",
     [("bad.dodl", 2, 24, "Ghost", "script 'Ghost' is not defined")]),
    ("evolvent compose part", None,
     "evolvent E2 = compose(E, Ghost);",
     [(None, 2, 28, "Ghost", "evolvent 'Ghost' is not defined")]),
    ("trigger potential object", "bad.dodl",
     "trigger Ghost Logic;",
     [("bad.dodl", 2, 11, "Ghost", "potential object 'Ghost' is not defined")]),
    ("trigger index", None,
     "trigger Staff Nowhere;",
     [(None, 2, 11, "Staff", "'Nowhere' is not in domain 'Courses'")]),
    ("check diagram", "bad.dodl",
     "check Ghost;",
     [("bad.dodl", 2, 9, "Ghost", "diagram 'Ghost' is not defined")]),
    ("query relation", None,
     "query join(Teach, Ghost);",
     [(None, 2, 21, "Ghost", "relation 'Ghost' is not defined")]),
]


@pytest.mark.parametrize("path, statement, expected",
                         [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
def test_each_reference_site_reports_its_name(path, statement, expected):
    text = f"# bad\n  {statement}\n"
    result = load_texts([("base.dodl", BASE), (path, text)])
    assert result.exchange is None
    assert [(d.path, d.line, d.col, text[d.start:d.end], d.message)
            for d in result.diagnostics] == expected


def test_the_base_workspace_loads():
    assert load_texts([("base.dodl", BASE)]).ok


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


GHOST_FILTER = Filter("F", "i", "x", Member("Ghost", (Var("i"), Var("x"))))


# (lookup, call on the teaching workspace, expected error class and message)
RUNTIME = [
    ("concept get", lambda ws: ws.concepts.get("Ghost"),
     UnknownConcept, "concept 'Ghost' is not defined"),
    ("concept derive", lambda ws: ws.concepts.derive("Ghost", "New", {}),
     UnknownConcept, "concept 'Ghost' is not defined"),
    ("trigger", lambda ws: trigger(ws, "Ghost", symbol("Logic")),
     UnknownPotentialObject, "potential object 'Ghost' is not defined"),
    ("functor", lambda ws: materialize_functor(ws, "Ghost"),
     UnknownPotentialObject, "potential object 'Ghost' is not defined"),
    ("trigger index", lambda ws: trigger(ws, "Tch", symbol("Nowhere")),
     IndexNotInDomain, "'Nowhere' is not in domain 'Course'"),
    ("event", lambda ws: Event(symbol("Nowhere"), ws.domains["Course"]),
     IndexNotInDomain, "'Nowhere' is not in domain 'Course'"),
    ("script", lambda ws: run_script(ws, "Ghost"),
     UnknownScript, "script 'Ghost' is not defined"),
    ("evolvent", lambda ws: apply_evolvent(ws, "Ghost"),
     UnknownEvolvent, "evolvent 'Ghost' is not defined"),
    ("query relation", lambda ws: eval_query(RelName("Ghost"), ws.relations),
     UnknownRelation, "relation 'Ghost' is not defined"),
    ("member relation",
     lambda ws: run_filter(GHOST_FILTER, symbol("Logic"), symbol("Doe"), ws),
     UnknownRelation, "relation 'Ghost' is not defined"),
    ("filter ref", lambda ws: eval_expr(FilterRef("Ghost"), ws),
     UnknownFilter, "filter 'Ghost' is not defined"),
    ("shift potential object",
     lambda ws: eval_expr(IndexShift("Ghost", Const(symbol("Logic"))), ws),
     UnknownPotentialObject, "potential object 'Ghost' is not defined"),
    ("shift index",
     lambda ws: eval_expr(IndexShift("Tch", Const(symbol("Nowhere"))), ws),
     IndexNotInDomain, "'Nowhere' is not in domain 'Course'"),
    ("entry domain",
     lambda ws: enumerate_entry(
         DiagramSpec("G", Shape(("Ghost",)), (), (), Shape(("bool",))), ws),
     UnknownDomain, "entry domain 'Ghost' is not defined"),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in RUNTIME],
                         ids=[case[0] for case in RUNTIME])
def test_each_runtime_lookup_raises_its_error(teaching_ws, call, error, message):
    assert raised(lambda: call(teaching_ws)) == (error, message)


def test_an_exchange_query_names_the_error_class(teaching_ws):
    response = Exchange(teaching_ws).dispatch(Query(RelName("Ghost")))
    assert (response.ok, response.error_kind, response.message) == \
        (False, "UnknownRelation", "relation 'Ghost' is not defined")


CLI = [
    (("index", "Ghost", "A"), "potential object 'Ghost' is not defined"),
    (("index", "Tch", "Nowhere"), "'Nowhere' is not in domain 'Course'"),
    (("functor", "Ghost"), "potential object 'Ghost' is not defined"),
    (("script", "Ghost"), "script 'Ghost' is not defined"),
    (("evolve", "Ghost"), "evolvent 'Ghost' is not defined"),
    (("check", "Ghost"), "diagram 'Ghost' is not defined"),
    (("oracle-diff", "Ghost"), "potential object 'Ghost' is not defined"),
    (("query", "Ghost"), "relation 'Ghost' is not defined"),
]


@pytest.mark.parametrize("argv, message", CLI,
                         ids=[" ".join(argv) for argv, _ in CLI])
def test_each_cli_command_on_an_unknown_name(capsys, teaching_dir, argv, message):
    code = main(["--workspace", str(teaching_dir), *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("kind, error", [
    ("sort", UnknownSort),
    ("domain", UnknownDomain),
    ("relation", UnknownRelation),
    ("filter", UnknownFilter),
    ("potential object", UnknownPotentialObject),
    ("concept", UnknownConcept),
    ("diagram", UnknownDiagram),
    ("script", UnknownScript),
    ("evolvent", UnknownEvolvent),
])
def test_not_defined_gives_each_kind_its_error(kind, error):
    exc = errors.not_defined(kind, "Ghost")
    assert (type(exc), str(exc)) == (error, f"{kind} 'Ghost' is not defined")


def test_declarations_equal_ignores_only_the_derivation_state(teaching_ws):
    derived, _ = trigger(teaching_ws, "Tch", symbol("Logic"))
    assert declarations_equal(derived, teaching_ws)
    for field in teaching_ws.fields:
        if field.name in ("ao_library", "stage", "concepts"):
            continue
        changed = teaching_ws.replace(**{field.name: {}})
        assert not declarations_equal(changed, teaching_ws), field.name
    changed = load_texts([("base.dodl", BASE)]).workspace
    assert not declarations_equal(changed, teaching_ws)
