"""The diagram-path compiler and the two-path commutativity check.

Each path step compiles once into a closure; the checker evaluates both
paths over a finite input set and reports every comparison.  The report
keeps its outcomes as columns, one tuple per field of a row in input
order, and builds a :class:`CommutativityRow` only when one is read:
``rows`` for every entry, ``differing()`` for those whose paths disagree.
The expression records are in :mod:`dodl.diagrams`; only ``check``
commands and statements load this module.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import prod
from typing import Callable

from . import diagrams
from .core import Atom, Domain, not_in_domain, record
from .diagrams import (
    Apply,
    Const,
    DiagramExpr,
    DiagramSpec,
    Filter,
    FilterRef,
    Fst,
    IdArrow,
    IndexShift,
    Input,
    Pair,
    ShiftFn,
    Snd,
    Subst,
    Value,
    Var,
    format_value,
)
from .errors import (
    CheckTooLarge,
    DodlError,
    EvalTypeError,
    UnboundVariable,
    UnknownDomain,
    not_defined,
)


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
        position, word = (0, "fst") if isinstance(expr, Fst) else (1, "snd")
        inner = expr.operand
        while isinstance(inner, IdArrow):
            inner = inner.operand
        if isinstance(inner, Input):
            # fst(input) and snd(input) read the step input directly.
            def run(step_input, bound, workspace):
                if step_input is None:
                    raise EvalTypeError("input is only available inside a diagram path")
                if not (isinstance(step_input, tuple) and len(step_input) == 2):
                    raise EvalTypeError(
                        f"{word} of a non-pair value {format_value(step_input)}")
                return step_input[position]
        else:
            operand = compile_expr(expr.operand, scope)

            def run(step_input, bound, workspace):
                value = operand(step_input, bound, workspace)
                if not (isinstance(value, tuple) and len(value) == 2):
                    raise EvalTypeError(
                        f"{word} of a non-pair value {format_value(value)}")
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
            return f
    elif isinstance(expr, IndexShift):
        po_name = expr.po_name
        index_of = compile_expr(expr.index, scope)
        # The last value built, reused while the potential object is the
        # same object and the index is equal, which passed the checks before.
        last = None

        def run(step_input, bound, workspace):
            nonlocal last
            po = workspace.potentials.get(po_name)
            if po is None:
                raise not_defined("potential object", po_name)
            index = index_of(step_input, bound, workspace)
            if last is not None and last.po is po and last.index == index:
                return last
            if not isinstance(index, Atom):
                raise EvalTypeError(
                    f"index shift needs an index element, got {format_value(index)}")
            if index not in po.index_domain:
                raise not_in_domain(index, po.index_domain)
            last = ShiftFn(po, index)
            return last
    elif isinstance(expr, Apply):
        fn_of = compile_expr(expr.fn, scope)
        arg_of = compile_expr(expr.arg, scope)

        # run_filter is read off dodl.diagrams when the node runs, so a
        # wrapper installed there sees every call.
        def run(step_input, bound, workspace):
            fn = fn_of(step_input, bound, workspace)
            arg = arg_of(step_input, bound, workspace)
            if isinstance(fn, Filter):
                if not (isinstance(arg, tuple) and len(arg) == 2
                        and isinstance(arg[0], Atom) and isinstance(arg[1], Atom)):
                    raise EvalTypeError(
                        f"filter {fn.name!r} applies to an (index, "
                        f"candidate) pair, got {format_value(arg)}")
                return diagrams.run_filter(fn, arg[0], arg[1], workspace)
            if isinstance(fn, ShiftFn):
                if not isinstance(arg, Atom):
                    raise EvalTypeError(
                        f"shifted object {fn.po.name!r} applies to a candidate "
                        f"element, got {format_value(arg)}")
                return diagrams.run_filter(fn.po.filter, fn.index, arg, workspace)
            raise EvalTypeError(f"cannot apply non-function value {format_value(fn)}")
    else:
        def run(step_input, bound, workspace):
            if isinstance(expr, Var):
                raise UnboundVariable(f"variable {expr.name!r} is not bound")
            raise EvalTypeError(f"unknown expression node {expr!r}")
    return run


# The most entries one check may compare.  A check holds the outcomes of
# each entry, and a pair of domains has as many entries as the product of
# their sizes, so a short text could otherwise ask for a number of outcomes
# that grows with the square of its length.  The largest check of the
# tests, the generated workspaces and the benchmark workloads has 1,000
# entries.
CHECK_ENTRY_LIMIT = 100_000


def enumerate_entry(spec: DiagramSpec, workspace) -> list[Value]:
    """All entry values of a diagram, in lexicographic order (``false``
    before ``true``): the order of a ``check``'s outcomes.

    Raises :class:`CheckTooLarge`, before building any entry, when there
    would be more than ``CHECK_ENTRY_LIMIT``.
    """
    pools = []
    for part in spec.entry.parts:
        if part == "bool":
            pools.append([False, True])
        else:
            domain: Domain | None = workspace.domains.get(part)
            if domain is None:
                raise UnknownDomain(f"entry domain {part!r} is not defined")
            pools.append(domain.sorted_elements())
    if prod(map(len, pools)) > CHECK_ENTRY_LIMIT:
        raise CheckTooLarge(f"diagram {spec.name!r} has more than "
                            f"{CHECK_ENTRY_LIMIT} entries")
    if not spec.entry.is_pair:
        return list(pools[0])
    return [(a, b) for a in pools[0] for b in pools[1]]


def eval_path(steps: tuple[Callable, ...], entry: Value, workspace) -> Value:
    """Fold the compiled steps of one path over an entry value."""
    value = entry
    for step in steps:
        value = step(value, (), workspace)
    return value


@record
class CommutativityRow:
    input: Value
    value_a: Value | None
    value_b: Value | None
    error_a: str | None
    error_b: str | None
    # Both paths gave a value and the values are equal.
    agrees: bool


@record
class CommutativityReport:
    diagram: str
    inputs: tuple[Value, ...]
    values_a: tuple[Value | None, ...]
    values_b: tuple[Value | None, ...]
    errors_a: tuple[str | None, ...]
    errors_b: tuple[str | None, ...]
    agrees: tuple[bool, ...]

    @property
    def rows(self) -> tuple[CommutativityRow, ...]:
        return self._rows(repeat(True))

    def differing(self) -> tuple[CommutativityRow, ...]:
        """The rows whose paths do not agree, in input order."""
        return self._rows([not agrees for agrees in self.agrees])

    def _rows(self, keep) -> tuple[CommutativityRow, ...]:
        # Every field after ``diagram`` is a column, in the row's order.
        columns = (getattr(self, f.name) for f in self.fields[1:])
        return tuple(map(CommutativityRow, *(compress(c, keep) for c in columns)))

    @property
    def total(self) -> int:
        return len(self.inputs)

    @property
    def agreeing(self) -> int:
        return self.agrees.count(True)

    @property
    def commutes(self) -> bool:
        return False not in self.agrees

    def summary(self) -> str:
        return f"{self.agreeing}/{self.total} inputs commute"


def check_commutes(spec: DiagramSpec, inputs, workspace) -> CommutativityReport:
    """Evaluate both paths on every input and compare the results.

    Per-input evaluation errors are recorded in the report instead of being
    raised, so the report is total over its input set.  Its columns follow
    the order of ``inputs``: from :func:`enumerate_entry`, lexicographic.
    """
    path_a = tuple(compile_expr(step) for step in spec.path_a)
    path_b = tuple(compile_expr(step) for step in spec.path_b)
    entries = tuple(inputs)
    values_a, values_b, errors_a, errors_b, agrees = columns = [], [], [], [], []
    for entry in entries:
        try:
            value_a, error_a = eval_path(path_a, entry, workspace), None
        except DodlError as exc:
            value_a, error_a = None, f"{type(exc).__name__}: {exc}"
        try:
            value_b, error_b = eval_path(path_b, entry, workspace), None
        except DodlError as exc:
            value_b, error_b = None, f"{type(exc).__name__}: {exc}"
        values_a.append(value_a)
        values_b.append(value_b)
        errors_a.append(error_a)
        errors_b.append(error_b)
        agrees.append(error_a is None and error_b is None and value_a == value_b)
    return CommutativityReport(spec.name, entries, *map(tuple, columns))
