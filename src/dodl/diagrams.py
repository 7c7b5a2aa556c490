"""Filter predicates, diagram combinators and the two-path commutativity check.

A filter is a two-variable predicate deciding whether a candidate belongs to
the extension derived at an index.  Diagrams express the same derivation as an
explicit pair of combinator paths that must agree pointwise; the checker
evaluates both paths over a finite input set and reports every comparison.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Union

from .core import Atom, Domain, PotentialObject, not_in_domain
from .errors import (
    ArityMismatch,
    DefinitionError,
    DodlError,
    EvalTypeError,
    UnboundVariable,
    UnknownDomain,
    not_defined,
)

# ---------------------------------------------------------------------------
# Terms (shared between predicates and diagram expressions)


@dataclass(frozen=True)
class Const:
    atom: Atom


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Wildcard:
    pass


Term = Union[Const, Var, Wildcard]


# ---------------------------------------------------------------------------
# Predicates


@dataclass(frozen=True)
class Member:
    """True iff some tuple of the named relation matches the pattern."""

    relation: str
    pattern: tuple[Term, ...]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class And:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Or:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class Not:
    operand: "Predicate"


@dataclass(frozen=True)
class TruePred:
    pass


@dataclass(frozen=True)
class FalsePred:
    pass


Predicate = Union[Member, Eq, And, Or, Not, TruePred, FalsePred]


def predicate_vars(pred: Predicate) -> frozenset[str]:
    """Free variables of a predicate."""
    if isinstance(pred, Member):
        return frozenset(t.name for t in pred.pattern if isinstance(t, Var))
    if isinstance(pred, Eq):
        return frozenset(
            t.name for t in (pred.left, pred.right) if isinstance(t, Var)
        )
    if isinstance(pred, (And, Or)):
        return predicate_vars(pred.left) | predicate_vars(pred.right)
    if isinstance(pred, Not):
        return predicate_vars(pred.operand)
    return frozenset()


@dataclass(frozen=True)
class Filter:
    """A named two-variable predicate: (index, candidate) -> bool."""

    name: str
    index_var: str
    candidate_var: str
    body: Predicate
    # The body compiled by run_filter; invisible to eq, hash and repr.
    _test: Callable | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.index_var == self.candidate_var:
            raise DefinitionError(
                f"filter {self.name!r} needs two distinct variables"
            )
        extra = predicate_vars(self.body) - {self.index_var, self.candidate_var}
        if extra:
            raise DefinitionError(
                f"filter {self.name!r} uses undeclared variables: "
                + ", ".join(sorted(extra))
            )


# ---------------------------------------------------------------------------
# Diagram expressions


@dataclass(frozen=True)
class Input:
    """The value flowing into the current path step."""


@dataclass(frozen=True)
class Pair:
    first: "DiagramExpr"
    second: "DiagramExpr"


@dataclass(frozen=True)
class Fst:
    operand: "DiagramExpr"


@dataclass(frozen=True)
class Snd:
    operand: "DiagramExpr"


@dataclass(frozen=True)
class Subst:
    """Evaluate ``target`` with ``var`` bound to the value of ``value``.

    The binding is visible only inside ``target``, where it shadows any
    outer binding of ``var``; ``value`` itself sees only the outer ones.
    """

    var: str
    target: "DiagramExpr"
    value: "DiagramExpr"


@dataclass(frozen=True)
class Apply:
    """Apply a function object to an argument object."""

    fn: "DiagramExpr"
    arg: "DiagramExpr"


@dataclass(frozen=True)
class FilterRef:
    """A filter as a function value over (index, candidate) pairs."""

    name: str


@dataclass(frozen=True)
class IndexShift:
    """Curry a potential object by an index, leaving a candidate test."""

    po_name: str
    index: "DiagramExpr"


@dataclass(frozen=True)
class IdArrow:
    """Identity arrow; marks a component that passes through unchanged."""

    operand: "DiagramExpr"


DiagramExpr = Union[
    Const, Var, Input, Pair, Fst, Snd, Subst, Apply, FilterRef, IndexShift, IdArrow
]


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


@dataclass(frozen=True)
class FilterFn:
    """A filter used as a function value; applies to an (index, candidate) pair."""

    filter: Filter


@dataclass(frozen=True)
class ShiftFn:
    """A potential object curried by an index; applies to a candidate atom."""

    po: PotentialObject
    index: Atom


Value = Union[Atom, bool, tuple, FilterFn, ShiftFn]


def format_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Atom):
        return value.text
    if isinstance(value, tuple):
        return "(" + ", ".join(format_value(v) for v in value) + ")"
    if isinstance(value, FilterFn):
        return f"filter {value.filter.name}"
    if isinstance(value, ShiftFn):
        return f"shift {value.po.name}[{value.index.text}]"
    raise EvalTypeError(f"cannot format value {value!r}")


def value_order_key(value: Value):
    if isinstance(value, bool):
        return ("b", (0, int(value), ""))
    if isinstance(value, Atom):
        return ("a", value.order_key())
    if isinstance(value, tuple):
        return ("p",) + tuple(value_order_key(v) for v in value)
    return ("f", (1, 0, format_value(value)))


# ---------------------------------------------------------------------------
# Evaluation


def compile_predicate(pred: Predicate, slot: Callable[[str], Callable]) -> Callable:
    """Compile a predicate once into a closure ``test(args, workspace) -> bool``.

    ``slot(name)`` returns the getter that reads variable ``name`` out of
    ``args``.  The closure keeps the boolean semantics of a tree walk: it is
    strict in both operands of ``and`` and ``or``, and every error (unknown
    relation, arity mismatch, unbound variable, a wildcard outside a
    pattern) is raised when its node runs, left to right, never here.
    """
    if isinstance(pred, TruePred):
        return lambda args, workspace: True
    if isinstance(pred, FalsePred):
        return lambda args, workspace: False
    if isinstance(pred, Not):
        operand = compile_predicate(pred.operand, slot)
        return lambda args, workspace: not operand(args, workspace)
    if isinstance(pred, (And, Or)):
        left = compile_predicate(pred.left, slot)
        right = compile_predicate(pred.right, slot)
        # Both operands are evaluated before they are combined.
        combine = operator.and_ if isinstance(pred, And) else operator.or_
        return lambda args, workspace: combine(left(args, workspace),
                                               right(args, workspace))
    if isinstance(pred, Eq):
        left_value = _compile_term(pred.left, slot)
        right_value = _compile_term(pred.right, slot)
        return lambda args, workspace: left_value(args) == right_value(args)
    if isinstance(pred, Member):
        return _compile_member(pred, slot)

    def unknown(args, workspace):
        raise EvalTypeError(f"unknown predicate node {pred!r}")
    return unknown


def _compile_term(term: Term, slot) -> Callable:
    if isinstance(term, Const):
        atom = term.atom
        return lambda args: atom
    if isinstance(term, Var):
        return slot(term.name)

    def wildcard(args):
        raise EvalTypeError("a wildcard has no value outside a membership pattern")
    return wildcard


def arity_mismatch(relation: str, arity: int,
                   relation_arity: int) -> ArityMismatch:
    """The error for a pattern of ``arity`` terms against a relation of
    ``relation_arity`` attributes."""
    return ArityMismatch(f"pattern of arity {arity} against relation "
                         f"{relation!r} of arity {relation_arity}")


def _compile_member(pred: Member, slot) -> Callable:
    name = pred.relation
    arity = len(pred.pattern)
    bound = [(position, _compile_term(term, slot))
             for position, term in enumerate(pred.pattern)
             if not isinstance(term, Wildcard)]
    positions = tuple(position for position, _ in bound)
    getters = tuple(getter for _, getter in bound)

    def member(args, workspace):
        relation = workspace.relations.get(name)
        if relation is None:
            raise not_defined("relation", name)
        if arity != relation.arity:
            raise arity_mismatch(relation.name, arity, relation.arity)
        key = tuple([value(args) for value in getters])
        return key in relation.probe_index(positions)
    return member


def run_filter(f: Filter, index: Atom, candidate: Atom, workspace) -> bool:
    """Test one candidate at one index.

    Runs the filter's body, compiled on first use into a closure over the
    pair ``(index, candidate)``: the index variable reads the first slot and
    the candidate variable the second.
    """
    test = f._test
    if test is None:
        slots = {f.index_var: operator.itemgetter(0),
                 f.candidate_var: operator.itemgetter(1)}
        test = compile_predicate(f.body, slots.__getitem__)
        object.__setattr__(f, "_test", test)
    return test((index, candidate), workspace)


def compile_expr(expr: DiagramExpr, scope: tuple[str, ...] = ()) -> Callable:
    """Compile a diagram expression once into a closure
    ``run(step_input, bound, workspace) -> Value``.

    Each Subst gives its variable the next slot of ``bound``, and ``scope``
    names those slots outermost first, so a Var reads its innermost
    binder's slot.  The closure is strict and leftmost-innermost, and each
    error is raised when its node runs, against that run's workspace.
    """
    if isinstance(expr, Const):
        atom = expr.atom
        return lambda step_input, bound, workspace: atom
    if isinstance(expr, Var) and expr.name in scope:
        slot = len(scope) - 1 - scope[::-1].index(expr.name)
        return lambda step_input, bound, workspace: bound[slot]
    if isinstance(expr, IdArrow):
        return compile_expr(expr.operand, scope)
    if isinstance(expr, Input):
        def run(step_input, bound, workspace):
            if step_input is None:
                raise EvalTypeError("input is only available inside a diagram path")
            return step_input
    elif isinstance(expr, Pair):
        first = compile_expr(expr.first, scope)
        second = compile_expr(expr.second, scope)

        def run(step_input, bound, workspace):
            return (first(step_input, bound, workspace),
                    second(step_input, bound, workspace))
    elif isinstance(expr, (Fst, Snd)):
        operand = compile_expr(expr.operand, scope)
        position, word = (0, "fst") if isinstance(expr, Fst) else (1, "snd")

        def run(step_input, bound, workspace):
            value = operand(step_input, bound, workspace)
            if not (isinstance(value, tuple) and len(value) == 2):
                raise EvalTypeError(f"{word} of a non-pair value {format_value(value)}")
            return value[position]
    elif isinstance(expr, Subst):
        var = expr.var
        value_of = compile_expr(expr.value, scope)
        target = compile_expr(expr.target, scope + (var,))

        def run(step_input, bound, workspace):
            value = value_of(step_input, bound, workspace)
            if not isinstance(value, Atom):
                raise EvalTypeError(f"substitution for {var!r} needs an element, "
                                    f"got {format_value(value)}")
            return target(step_input, bound + (value,), workspace)
    elif isinstance(expr, FilterRef):
        name = expr.name

        def run(step_input, bound, workspace):
            f = workspace.filters.get(name)
            if f is None:
                raise not_defined("filter", name)
            return FilterFn(f)
    elif isinstance(expr, IndexShift):
        po_name = expr.po_name
        index_of = compile_expr(expr.index, scope)

        def run(step_input, bound, workspace):
            po = workspace.potentials.get(po_name)
            if po is None:
                raise not_defined("potential object", po_name)
            index = index_of(step_input, bound, workspace)
            if not isinstance(index, Atom):
                raise EvalTypeError(
                    f"index shift needs an index element, got {format_value(index)}")
            if index not in po.index_domain:
                raise not_in_domain(index, po.index_domain)
            return ShiftFn(po, index)
    elif isinstance(expr, Apply):
        fn_of = compile_expr(expr.fn, scope)
        arg_of = compile_expr(expr.arg, scope)

        # run_filter is read as a module global when the node runs, so a
        # wrapper installed on dodl.diagrams.run_filter sees every call.
        def run(step_input, bound, workspace):
            fn = fn_of(step_input, bound, workspace)
            arg = arg_of(step_input, bound, workspace)
            if isinstance(fn, FilterFn):
                if not (isinstance(arg, tuple) and len(arg) == 2
                        and all(isinstance(a, Atom) for a in arg)):
                    raise EvalTypeError(
                        f"filter {fn.filter.name!r} applies to an (index, "
                        f"candidate) pair, got {format_value(arg)}")
                return run_filter(fn.filter, arg[0], arg[1], workspace)
            if isinstance(fn, ShiftFn):
                if not isinstance(arg, Atom):
                    raise EvalTypeError(
                        f"shifted object {fn.po.name!r} applies to a candidate "
                        f"element, got {format_value(arg)}")
                return run_filter(fn.po.filter, fn.index, arg, workspace)
            raise EvalTypeError(f"cannot apply non-function value {format_value(fn)}")
    else:
        def run(step_input, bound, workspace):
            if isinstance(expr, Var):
                raise UnboundVariable(f"variable {expr.name!r} is not bound")
            raise EvalTypeError(f"unknown expression node {expr!r}")
    return run


def eval_expr(expr: DiagramExpr, workspace, step_input: Value | None = None) -> Value:
    """Evaluate a closed diagram expression once; see :func:`compile_expr`."""
    return compile_expr(expr)(step_input, (), workspace)


# ---------------------------------------------------------------------------
# Diagram specifications and the commutativity check


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DiagramSpec:
    name: str
    entry: Shape
    path_a: tuple[DiagramExpr, ...]
    path_b: tuple[DiagramExpr, ...]
    exit: Shape


def enumerate_entry(spec: DiagramSpec, workspace) -> list[Value]:
    """All entry values of a diagram, in lexicographic order."""
    pools = []
    for part in spec.entry.parts:
        if part == "bool":
            pools.append([False, True])
        else:
            domain: Domain | None = workspace.domains.get(part)
            if domain is None:
                raise UnknownDomain(f"entry domain {part!r} is not defined")
            pools.append(domain.sorted_elements())
    if not spec.entry.is_pair:
        return list(pools[0])
    return [(a, b) for a in pools[0] for b in pools[1]]


def eval_path(steps: tuple[Callable, ...], entry: Value, workspace) -> Value:
    """Fold the compiled steps of one path over an entry value."""
    value = entry
    for step in steps:
        value = step(value, (), workspace)
    return value


@dataclass(frozen=True)
class CommutativityRow:
    input: Value
    value_a: Value | None
    value_b: Value | None
    error_a: str | None
    error_b: str | None

    @property
    def agrees(self) -> bool:
        return self.error_a is None and self.error_b is None \
            and self.value_a == self.value_b


@dataclass(frozen=True)
class CommutativityReport:
    diagram: str
    rows: tuple[CommutativityRow, ...]

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def agreeing(self) -> int:
        return sum(1 for row in self.rows if row.agrees)

    @property
    def commutes(self) -> bool:
        return all(row.agrees for row in self.rows)

    def summary(self) -> str:
        return f"{self.agreeing}/{self.total} inputs commute"


def check_commutes(spec: DiagramSpec, inputs, workspace) -> CommutativityReport:
    """Evaluate both paths on every input and compare the results.

    Per-input evaluation errors are recorded in the report instead of being
    raised, so the report is total over its input set.  Rows are ordered
    lexicographically by input.
    """
    path_a = tuple(compile_expr(step) for step in spec.path_a)
    path_b = tuple(compile_expr(step) for step in spec.path_b)
    rows = []
    for entry in sorted(inputs, key=value_order_key):
        value_a = value_b = None
        error_a = error_b = None
        try:
            value_a = eval_path(path_a, entry, workspace)
        except DodlError as exc:
            error_a = f"{type(exc).__name__}: {exc}"
        try:
            value_b = eval_path(path_b, entry, workspace)
        except DodlError as exc:
            error_b = f"{type(exc).__name__}: {exc}"
        rows.append(CommutativityRow(entry, value_a, value_b, error_a, error_b))
    return CommutativityReport(spec.name, tuple(rows))
