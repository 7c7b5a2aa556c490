"""The checks that refuse a value no loaded text can produce.

The parser, the loader and the evaluators never build these values, so
each one is built here by hand.  Every check must still raise its own
error with its own message: a caller of the library can build any of them.
"""

import pytest

from dodl.core import Atom, Sort, symbol
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
from dodl.relational import eval_query, select

NAME = Sort("Name", "symbolic")
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
    (lambda: select(R, Wildcard()), EvalTypeError,
     "unknown predicate node Wildcard()"),
    (lambda: select(R, Member("R", (Var("a"),))),
     EvalTypeError, "membership predicates cannot select rows"),
    (lambda: select(R, Eq(Wildcard(), Const(symbol("x")))),
     EvalTypeError, "a wildcard has no value in a row predicate"),
    (lambda: eval_query(NODE, {"R": R}), EvalTypeError,
     "unknown query node Var(name='v')"),
    (lambda: format_predicate(Wildcard()), ValueError,
     "unknown predicate node Wildcard()"),
    (lambda: format_diagram_expr(Wildcard()), ValueError,
     "unknown expression node Wildcard()"),
    (lambda: format_relexpr(NODE), ValueError,
     "unknown query node Var(name='v')"),
], ids=["atom-kind", "sort-kind", "shape-parts",
        "evolvent-script-and-chain", "format-value", "compile-predicate",
        "compile-member-term", "compile-eq-term", "row-predicate",
        "row-member", "row-wildcard", "eval-query", "format-predicate",
        "format-diagram-expr", "format-relexpr"])
def test_a_value_built_by_hand_is_refused(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message
