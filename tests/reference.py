"""Reference implementations for the tests.

The interpreters of the filter and diagram languages walk the trees over a
plain dict of variable bindings and answer each membership test by scanning
the relation's tuples, sharing no code with ``diagrams.compile_predicate``
and ``diagrams.compile_expr``, the evaluators they check.
:func:`reference_dataclass` rebuilds a record class's fields as a standard
library dataclass, the meaning ``core.Record`` promises to keep.
"""

import dataclasses

from dodl.core import MISSING, Atom
from dodl.diagrams import (
    And,
    Apply,
    Const,
    Eq,
    FalsePred,
    FilterFn,
    FilterRef,
    Fst,
    IdArrow,
    IndexShift,
    Input,
    Not,
    Or,
    Pair,
    ShiftFn,
    Snd,
    Subst,
    TruePred,
    Var,
    Wildcard,
    format_value,
)
from dodl.errors import (
    ArityMismatch,
    DodlError,
    EvalTypeError,
    IndexNotInDomain,
    UnboundVariable,
    UnknownFilter,
    UnknownPotentialObject,
    UnknownRelation,
)


def lookup(bindings, name):
    try:
        return bindings[name]
    except KeyError:
        raise UnboundVariable(f"variable {name!r} is not bound") from None


def reference_predicate(pred, bindings, workspace) -> bool:
    """The filter semantics as a plain tree walk over a binding dict.

    Strict in both operands of ``and`` and ``or``; a membership test checks
    the relation and arity, reads its terms left to right, then scans the
    tuples.  The compiled evaluator must agree with it value for value and
    error for error.
    """
    if isinstance(pred, TruePred):
        return True
    if isinstance(pred, FalsePred):
        return False
    if isinstance(pred, Not):
        return not reference_predicate(pred.operand, bindings, workspace)
    if isinstance(pred, (And, Or)):
        left = reference_predicate(pred.left, bindings, workspace)
        right = reference_predicate(pred.right, bindings, workspace)
        return (left and right) if isinstance(pred, And) else (left or right)
    if isinstance(pred, Eq):
        return reference_term(pred.left, bindings) == \
            reference_term(pred.right, bindings)
    relation = workspace.relations.get(pred.relation)
    if relation is None:
        raise UnknownRelation(f"relation {pred.relation!r} is not defined")
    if len(pred.pattern) != relation.arity:
        raise ArityMismatch(
            f"pattern of arity {len(pred.pattern)} against relation "
            f"{relation.name!r} of arity {relation.arity}"
        )
    wanted = [None if isinstance(t, Wildcard) else reference_term(t, bindings)
              for t in pred.pattern]
    return any(all(w is None or w == cell for w, cell in zip(wanted, row))
               for row in relation.tuples)


def reference_term(term, bindings):
    if isinstance(term, Const):
        return term.atom
    if isinstance(term, Var):
        return lookup(bindings, term.name)
    raise EvalTypeError("a wildcard has no value outside a membership pattern")


def reference_filter(f, index, candidate, workspace) -> bool:
    bindings = {f.index_var: index, f.candidate_var: candidate}
    return reference_predicate(f.body, bindings, workspace)


def reference_expr(expr, bindings, workspace, step_input=None):
    """The diagram semantics as a plain tree walk: strict and
    leftmost-innermost.  A Subst evaluates its target over a copy of the
    bindings, so the caller's dict is never touched; an applied filter runs
    through :func:`reference_filter`.
    """
    if isinstance(expr, Const):
        return expr.atom
    if isinstance(expr, Var):
        return lookup(bindings, expr.name)
    if isinstance(expr, Input):
        if step_input is None:
            raise EvalTypeError("input is only available inside a diagram path")
        return step_input
    if isinstance(expr, Pair):
        first = reference_expr(expr.first, bindings, workspace, step_input)
        second = reference_expr(expr.second, bindings, workspace, step_input)
        return (first, second)
    if isinstance(expr, (Fst, Snd)):
        value = reference_expr(expr.operand, bindings, workspace, step_input)
        if not (isinstance(value, tuple) and len(value) == 2):
            word = "fst" if isinstance(expr, Fst) else "snd"
            raise EvalTypeError(f"{word} of a non-pair value {format_value(value)}")
        return value[0] if isinstance(expr, Fst) else value[1]
    if isinstance(expr, IdArrow):
        return reference_expr(expr.operand, bindings, workspace, step_input)
    if isinstance(expr, Subst):
        value = reference_expr(expr.value, bindings, workspace, step_input)
        if not isinstance(value, Atom):
            raise EvalTypeError(
                f"substitution for {expr.var!r} needs an element, "
                f"got {format_value(value)}"
            )
        return reference_expr(expr.target, {**bindings, expr.var: value},
                              workspace, step_input)
    if isinstance(expr, FilterRef):
        f = workspace.filters.get(expr.name)
        if f is None:
            raise UnknownFilter(f"filter {expr.name!r} is not defined")
        return FilterFn(f)
    if isinstance(expr, IndexShift):
        po = workspace.potentials.get(expr.po_name)
        if po is None:
            raise UnknownPotentialObject(
                f"potential object {expr.po_name!r} is not defined"
            )
        index = reference_expr(expr.index, bindings, workspace, step_input)
        if not isinstance(index, Atom):
            raise EvalTypeError(
                f"index shift needs an index element, got {format_value(index)}"
            )
        if index not in po.index_domain:
            raise IndexNotInDomain(
                f"{index.text!r} is not in domain {po.index_domain.name!r}"
            )
        return ShiftFn(po, index)
    if isinstance(expr, Apply):
        fn = reference_expr(expr.fn, bindings, workspace, step_input)
        arg = reference_expr(expr.arg, bindings, workspace, step_input)
        if isinstance(fn, FilterFn):
            if not (isinstance(arg, tuple) and len(arg) == 2
                    and all(isinstance(a, Atom) for a in arg)):
                raise EvalTypeError(
                    f"filter {fn.filter.name!r} applies to an (index, candidate) "
                    f"pair, got {format_value(arg)}"
                )
            return reference_filter(fn.filter, arg[0], arg[1], workspace)
        if isinstance(fn, ShiftFn):
            if not isinstance(arg, Atom):
                raise EvalTypeError(
                    f"shifted object {fn.po.name!r} applies to a candidate "
                    f"element, got {format_value(arg)}"
                )
            return reference_filter(fn.po.filter, fn.index, arg, workspace)
        raise EvalTypeError(f"cannot apply non-function value {format_value(fn)}")
    raise EvalTypeError(f"unknown expression node {expr!r}")


def reference_path(steps, entry, workspace):
    """Fold the reference walk over one path's steps from an entry value."""
    value = entry
    for step in steps:
        value = reference_expr(step, {}, workspace, step_input=value)
    return value


def outcome(evaluate):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return evaluate()
    except DodlError as exc:
        return type(exc), str(exc)


def reference_dataclass(cls):
    """A frozen dataclass with the fields of the record class ``cls`` and
    none of its methods, each hidden field out of ``__init__``, eq, hash
    and repr.  A class with no field list (the hand-written ``Atom``) gives
    its slots as plain fields."""
    specs = []
    for f in cls.fields if hasattr(cls, "fields") else cls.__slots__:
        if isinstance(f, str):
            specs.append((f, object))
            continue
        options = {}
        if f.default is not MISSING:
            options["default"] = f.default
        if f.default_factory is not None:
            options["default_factory"] = f.default_factory
        if f.hidden:
            options.update(init=False, repr=False, compare=False)
        specs.append((f.name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)
