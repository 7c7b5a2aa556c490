"""The checks that refuse a value no loaded text can produce.

The parser, the loader and the evaluators never build these values, so
each one is built here by hand.  Every check must still raise its own
error with its own message: a caller of the library can build any of them.
"""

import pytest

from dodl.core import ActualObject, Atom, Domain, Event, Sort, symbol
from dodl.diagrams import (
    Const,
    Eq,
    Input,
    Member,
    Shape,
    Var,
    Wildcard,
    compile_predicate,
    format_value,
)
from dodl.errors import DefinitionError, EvalTypeError
from dodl.evolver import Evolvent
from dodl.lang.printer import format_diagram_expr, format_predicate, format_relexpr
from dodl.relation import Relation
from dodl.relational import eval_query, eval_row_predicate

NAME = Sort("Name", "symbolic")
COURSE = Domain("Course", NAME, frozenset({symbol("Logic"), symbol("Algebra")}))
R = Relation("R", [("a", NAME)], [(symbol("x"),)])
ROW = (symbol("x"),)
NODE = Var("v")  # a node of no kind the function handles


def run_compiled(pred):
    plan = compile_predicate(pred, "i", "x", set())
    assert plan(None, frozenset(), None) == frozenset()
    return plan(None, frozenset(ROW), None)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Atom("x", "textual"), DefinitionError, "unknown atom kind 'textual'"),
    (lambda: Sort("S", "textual"), DefinitionError, "unknown sort kind 'textual'"),
    (lambda: ActualObject("Tch_Logic", frozenset(),
                          ("Tch", Event(symbol("Algebra"), COURSE))),
     DefinitionError, "actual object name 'Tch_Logic' does not follow from "
                      "its provenance ('Tch', 'Algebra')"),
    (lambda: Shape(("A", "B", "C")), DefinitionError,
     "a shape has one part or two"),
    (lambda: Evolvent("E", script="S", parts=("F",)), DefinitionError,
     "evolvent 'E' names both a script and a chain"),
    (lambda: format_value(None), EvalTypeError, "cannot format value None"),
    (lambda: run_compiled(Wildcard()), EvalTypeError,
     "unknown predicate node Wildcard()"),
    (lambda: run_compiled(Member("R", (Var("x"), Input()))), EvalTypeError,
     "unknown term node Input()"),
    (lambda: run_compiled(Eq(Input(), Const(symbol("x")))), EvalTypeError,
     "unknown term node Input()"),
    (lambda: eval_row_predicate(Wildcard(), R, ROW), EvalTypeError,
     "unknown predicate node Wildcard()"),
    (lambda: eval_row_predicate(Member("R", (Var("a"),)), R, ROW),
     EvalTypeError, "membership predicates cannot select rows"),
    (lambda: eval_row_predicate(Eq(Wildcard(), Const(symbol("x"))), R, ROW),
     EvalTypeError, "a wildcard has no value in a row predicate"),
    (lambda: eval_query(NODE, {"R": R}), EvalTypeError,
     "unknown query node Var(name='v')"),
    (lambda: format_predicate(Wildcard()), ValueError,
     "unknown predicate node Wildcard()"),
    (lambda: format_diagram_expr(Wildcard()), ValueError,
     "unknown expression node Wildcard()"),
    (lambda: format_relexpr(NODE), ValueError,
     "unknown query node Var(name='v')"),
], ids=["atom-kind", "sort-kind", "actual-name", "shape-parts",
        "evolvent-script-and-chain", "format-value", "compile-predicate",
        "compile-member-term", "compile-eq-term", "row-predicate",
        "row-member", "row-wildcard", "eval-query", "format-predicate",
        "format-diagram-expr", "format-relexpr"])
def test_a_value_built_by_hand_is_refused(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message
