"""Filter predicates, diagram combinators and their values.

A filter is a two-variable predicate deciding whether a candidate belongs to
the extension derived at an index.  Diagrams express the same derivation as an
explicit pair of combinator paths that must agree pointwise.  This module
holds what loading a workspace and deriving from it need: the records, the
filter compiler and the value formatters.  The path compiler and the
commutativity check are in :mod:`dodl.checker`.
"""

from __future__ import annotations

import operator
from typing import Callable, Union

from .core import ActualObject, Atom, PotentialObject, record
from .errors import ArityMismatch, DefinitionError, EvalTypeError, not_defined

# ---------------------------------------------------------------------------
# Terms (shared between predicates and diagram expressions)


@record
class Const:
    atom: Atom


@record
class Var:
    name: str


@record
class Wildcard:
    pass


Term = Union[Const, Var, Wildcard]


# ---------------------------------------------------------------------------
# Predicates


@record
class Member:
    """True iff some tuple of the named relation matches the pattern."""

    relation: str
    pattern: tuple[Term, ...]


@record
class Eq:
    left: Term
    right: Term


@record
class And:
    left: "Predicate"
    right: "Predicate"


@record
class Or:
    left: "Predicate"
    right: "Predicate"


@record
class Not:
    operand: "Predicate"


@record
class TruePred:
    pass


@record
class FalsePred:
    pass


Predicate = Union[Member, Eq, And, Or, Not, TruePred, FalsePred]


@record
class Filter:
    """A named two-variable predicate over (index, candidate) pairs."""

    name: str
    index_var: str
    candidate_var: str
    body: Predicate
    # The body's plan, compiled by __post_init__: a slot, not a field, so
    # out of eq, hash and repr.
    __slots__ = ("_test",)

    def __post_init__(self):
        if self.index_var == self.candidate_var:
            raise DefinitionError(
                f"filter {self.name!r} needs two distinct variables"
            )
        undeclared = set()
        plan = compile_predicate(self.body, self.index_var, self.candidate_var,
                                 undeclared)
        if undeclared:
            raise DefinitionError(
                f"filter {self.name!r} uses undeclared variables: "
                + ", ".join(sorted(undeclared))
            )
        object.__setattr__(self, "_test", plan)


# ---------------------------------------------------------------------------
# Diagram expressions


@record
class Input:
    """The value flowing into the current path step."""


@record
class Pair:
    first: "DiagramExpr"
    second: "DiagramExpr"


@record
class Fst:
    operand: "DiagramExpr"


@record
class Snd:
    operand: "DiagramExpr"


@record
class Subst:
    """Evaluate ``target`` with ``var`` bound to the value of ``value``.

    The binding is visible only inside ``target``, where it shadows any
    outer binding of ``var``; ``value`` itself sees only the outer ones.
    """

    var: str
    target: "DiagramExpr"
    value: "DiagramExpr"


@record
class Apply:
    """Apply a function object to an argument object."""

    fn: "DiagramExpr"
    arg: "DiagramExpr"


@record
class FilterRef:
    """A filter as a function value over (index, candidate) pairs."""

    name: str


@record
class IndexShift:
    """Curry a potential object by an index, leaving a candidate test."""

    po_name: str
    index: "DiagramExpr"


@record
class IdArrow:
    """Identity arrow; marks a component that passes through unchanged."""

    operand: "DiagramExpr"


DiagramExpr = Union[
    Const, Var, Input, Pair, Fst, Snd, Subst, Apply, FilterRef, IndexShift, IdArrow
]

# The argument kinds of a combinator: a nested expression, or a name.
EXPR = "expression"
VAR_NAME = "variable name"
PO_NAME = "potential object name"

# Each combinator's word -> its record and its argument kinds, which are the
# record's fields in order.  ``word(arg, ...)`` is its one text form: the
# parser reads it from this table and the printer writes it from it.
COMBINATORS = {
    "fst": (Fst, (EXPR,)),
    "snd": (Snd, (EXPR,)),
    "id": (IdArrow, (EXPR,)),
    "pair": (Pair, (EXPR, EXPR)),
    "apply": (Apply, (EXPR, EXPR)),
    "subst": (Subst, (VAR_NAME, EXPR, EXPR)),
    "shift": (IndexShift, (PO_NAME, EXPR)),
}


def expr_free_vars(expr: DiagramExpr, bound: frozenset[str] = frozenset()) -> frozenset[str]:
    """Variables an expression reads that no enclosing Subst binds."""
    if isinstance(expr, Var):
        return frozenset() if expr.name in bound else frozenset({expr.name})
    if isinstance(expr, Pair):
        return expr_free_vars(expr.first, bound) | expr_free_vars(expr.second, bound)
    if isinstance(expr, (Fst, Snd, IdArrow)):
        return expr_free_vars(expr.operand, bound)
    if isinstance(expr, Subst):
        return expr_free_vars(expr.value, bound) | expr_free_vars(
            expr.target, bound | {expr.var}
        )
    if isinstance(expr, Apply):
        return expr_free_vars(expr.fn, bound) | expr_free_vars(expr.arg, bound)
    if isinstance(expr, IndexShift):
        return expr_free_vars(expr.index, bound)
    return frozenset()


# ---------------------------------------------------------------------------
# Values


@record
class ShiftFn:
    """A potential object curried by an index; applies to a candidate atom."""

    po: PotentialObject
    index: Atom


# A filter is its own function value: it applies to an (index, candidate)
# pair.
Value = Union[Atom, bool, tuple, Filter, ShiftFn]


def format_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Atom):
        return value.text
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    if isinstance(value, Filter):
        return f"filter {value.name}"
    if isinstance(value, ShiftFn):
        return f"shift {value.po.name}[{value.index.text}]"
    raise EvalTypeError(f"cannot format value {value!r}")


def format_list(items, brackets: str = "{}", separator: str = ", ") -> str:
    """Non-empty texts between brackets: ``{ a, b }``, or ``{ }`` for none."""
    opening, closing = brackets
    inner = separator.join(items)
    return f"{opening} {inner} {closing}" if inner else f"{opening} {closing}"


def format_atom_set(atoms) -> str:
    return format_list(a.text for a in sorted(atoms, key=Atom.order_key))


def format_actual(ao: ActualObject) -> str:
    """An actual object as ``name = { a, b }``."""
    return f"{ao.name} = {format_atom_set(ao.elements)}"


# ---------------------------------------------------------------------------
# Evaluation


NOTHING = frozenset()

# The roles of a term besides a constant, which is its atom.
INDEX, CANDIDATE = "index", "candidate"
WILDCARD_VALUE = "a wildcard has no value outside a membership pattern"


def compile_predicate(pred: Predicate, index_var: str, candidate_var: str,
                      undeclared: set[str]) -> Callable:
    """Compile a predicate once into a plan
    ``plan(index, candidates, workspace)``: the members of the set
    ``candidates`` that satisfy the predicate at ``index``, as a frozenset
    when ``candidates`` is one.

    ``index_var`` reads the index and ``candidate_var`` the candidate; every
    other variable is added to ``undeclared``, and the plan may run only if
    none was.  The plan works a set at a time: ``not`` is a difference from
    the candidates, ``and`` an intersection and ``or`` a union, and both
    operands of ``and`` and ``or`` get all the candidates.  On a non-empty
    set every node runs once, left to right, and the first that fails
    (unknown relation, arity mismatch, a wildcard outside a pattern) raises
    what testing any one candidate would; on the empty set nothing raises.
    Nothing raises here.
    """
    if isinstance(pred, TruePred):
        return lambda index, candidates, workspace: candidates
    if isinstance(pred, FalsePred):
        return lambda index, candidates, workspace: NOTHING
    if isinstance(pred, Not):
        operand = compile_predicate(pred.operand, index_var, candidate_var, undeclared)
        return lambda index, candidates, workspace: \
            candidates - operand(index, candidates, workspace)
    if isinstance(pred, (And, Or)):
        left = compile_predicate(pred.left, index_var, candidate_var, undeclared)
        right = compile_predicate(pred.right, index_var, candidate_var, undeclared)
        # Both operands run on the same candidates before they are combined.
        combine = operator.and_ if isinstance(pred, And) else operator.or_
        return lambda index, candidates, workspace: combine(
            left(index, candidates, workspace), right(index, candidates, workspace))
    if isinstance(pred, Eq):
        return _compile_eq(pred, index_var, candidate_var, undeclared)
    if isinstance(pred, Member):
        return _compile_member(pred, index_var, candidate_var, undeclared)
    return _refusal(f"unknown predicate node {pred!r}")


def _refusal(message: str) -> Callable:
    """A plan that raises ``EvalTypeError(message)`` on any candidate."""
    def plan(index, candidates, workspace):
        if candidates:
            raise EvalTypeError(message)
        return NOTHING
    return plan


def _role(term: Term, index_var, candidate_var, undeclared):
    """A term's atom if it is a constant, ``INDEX`` or ``CANDIDATE`` if it
    is a variable, and None if it has no value."""
    if isinstance(term, Const):
        return term.atom
    if isinstance(term, Var):
        if term.name == index_var:
            return INDEX
        if term.name != candidate_var:
            undeclared.add(term.name)
        return CANDIDATE
    return None


def _compile_eq(pred: Eq, index_var, candidate_var, undeclared) -> Callable:
    left, right = (_role(term, index_var, candidate_var, undeclared)
                   for term in (pred.left, pred.right))
    if left is None or right is None:
        return _refusal(WILDCARD_VALUE)
    # The candidate, or else the index, goes on the left.
    if right is CANDIDATE or (right is INDEX and left is not CANDIDATE):
        left, right = right, left
    if left is right or left == right:
        return lambda index, candidates, workspace: candidates
    if left is CANDIDATE:
        if right is INDEX:
            return lambda index, candidates, workspace: (
                frozenset((index,)) if index in candidates else NOTHING)
        # The constant may lie outside the candidates.
        single = frozenset((right,))
        return lambda index, candidates, workspace: (
            single if right in candidates else NOTHING)
    if left is INDEX:
        return lambda index, candidates, workspace: (
            candidates if index == right else NOTHING)
    return lambda index, candidates, workspace: NOTHING


def arity_mismatch(relation: str, arity: int,
                   relation_arity: int) -> ArityMismatch:
    """The error for a pattern of ``arity`` terms against a relation of
    ``relation_arity`` attributes."""
    return ArityMismatch(f"pattern of arity {arity} against relation "
                         f"{relation!r} of arity {relation_arity}")


def _compile_member(pred: Member, index_var, candidate_var, undeclared) -> Callable:
    name = pred.relation
    arity = len(pred.pattern)
    roles = [(position, _role(term, index_var, candidate_var, undeclared))
             for position, term in enumerate(pred.pattern)
             if not isinstance(term, Wildcard)]
    if any(role is None for _, role in roles):
        return _refusal(WILDCARD_VALUE)
    index_at = [position for position, role in roles if role is INDEX]
    candidate_at = [position for position, role in roles if role is CANDIDATE]
    constants = [(position, role) for position, role in roles
                 if role is not INDEX and role is not CANDIDATE]
    # A row matches only if it holds each constant and one value at all its
    # index positions and one at all its candidate positions.
    repeats = [(same[0], position) for same in (index_at, candidate_at)
               for position in same[1:]]
    key_at = index_at[0] if index_at else None
    value_at = candidate_at[0] if candidate_at else None

    def grouped(relation) -> dict:
        """The grouping index: the value at the index positions (None if
        there is none) -> the set of values at the candidate positions
        (``{None}`` if there is none), over the rows that match."""
        rows = relation.tuples
        if constants or repeats:
            rows = [row for row in rows
                    if all(row[p] == atom for p, atom in constants)
                    and all(row[p] == row[q] for p, q in repeats)]
        groups = {}
        for row in rows:
            groups.setdefault(None if key_at is None else row[key_at],
                              set()).add(None if value_at is None else row[value_at])
        return groups

    # The relation last met and its grouping index, assigned in one step,
    # so no thread pairs one relation with another's groups.
    memo = (None, None)

    def plan(index, candidates, workspace):
        # The relation is looked up on every run: the filter may run against
        # another workspace, whose relation gets its own groups.  Nothing is
        # looked up for no candidates.
        nonlocal memo
        if not candidates:
            return NOTHING
        relation = workspace.relations.get(name)
        if relation is None:
            raise not_defined("relation", name)
        if arity != len(relation.attributes):
            raise arity_mismatch(relation.name, arity, relation.arity)
        held, groups = memo
        if held is not relation:
            groups = grouped(relation)
            memo = relation, groups
        found = groups.get(None if key_at is None else index)
        if found is None:
            return NOTHING
        return candidates if value_at is None else candidates & found
    return plan


def run_filter(f: Filter, index: Atom, candidate: Atom, workspace) -> bool:
    """Test one candidate at one index: run the filter's plan on the set of
    that candidate alone, which need not lie in any carrier."""
    return bool(f._test(index, {candidate}, workspace))


# ---------------------------------------------------------------------------
# Diagram specifications


@record
class Shape:
    """Entry or exit shape: one part or a pair of parts.

    A part is a domain name, or the word ``bool`` for truth values.
    """

    parts: tuple[str, ...]

    def __post_init__(self):
        if len(self.parts) not in (1, 2):
            raise DefinitionError("a shape has one part or two")

    @property
    def is_pair(self) -> bool:
        return len(self.parts) == 2


@record
class DiagramSpec:
    name: str
    entry: Shape
    path_a: tuple[DiagramExpr, ...]
    path_b: tuple[DiagramExpr, ...]
    exit: Shape
