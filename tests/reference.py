"""Reference implementations for the tests.

The interpreters of the filter and diagram languages walk the trees over a
plain dict of variable bindings and answer each membership test by scanning
the relation's tuples, sharing no code with ``diagrams.compile_predicate``
and ``checker.compile_expr``, the evaluators they check.  They keep no
index and compile nothing, and they test one candidate at a time, so a
filter's plan, which derives a whole set at once from the grouping
indexes its ``member`` nodes keep, is checked against a walk that reads
each relation afresh for each candidate; they raise an undeclared
variable, which ``Filter`` refuses when it is made, only at run time.
:func:`eval_expr` and :func:`declarations_equal` are shorthands the tests
share; the library has no caller for them.
:func:`reference_dataclass` rebuilds a record class's fields as a standard
library dataclass, the meaning ``core.Record`` promises to keep.
:func:`reference_parser` builds the CLI's argument parser eagerly, every
subcommand parser up front, as plain argparse does.
:func:`reference_tokenize` lexes one character at a time into field tuples.
:func:`reference_expanded_steps` counts an evolvent's steps by expanding it.
:func:`reference_oracle_index` answers the relational oracle for one index
by select then project, one scan of the relation per index.
:func:`reference_row_predicate` walks a ``select`` predicate over one row,
resolving every name afresh for each row, and shares no code with
``relational.select``, which compiles the predicate once per call.
"""

import argparse
import dataclasses

from dodl.checker import compile_expr
from dodl.core import MISSING, SYMBOLIC, Atom
from dodl.diagrams import (
    And,
    Apply,
    Const,
    Eq,
    FalsePred,
    Filter,
    FilterRef,
    Fst,
    IdArrow,
    IndexShift,
    Input,
    Member,
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
    UnknownAttribute,
    UnknownFilter,
    UnknownPotentialObject,
    UnknownRelation,
)
from dodl.lang.lexer import EOF, IDENT, INT, PUNCT
from dodl.lang.syntax import Diagnostic
from dodl.relation import TermIdent
from dodl.relational import project, select


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
        return f
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
        if isinstance(fn, Filter):
            if not (isinstance(arg, tuple) and len(arg) == 2
                    and all(isinstance(a, Atom) for a in arg)):
                raise EvalTypeError(
                    f"filter {fn.name!r} applies to an (index, candidate) "
                    f"pair, got {format_value(arg)}"
                )
            return reference_filter(fn, arg[0], arg[1], workspace)
        if isinstance(fn, ShiftFn):
            if not isinstance(arg, Atom):
                raise EvalTypeError(
                    f"shifted object {fn.po.name!r} applies to a candidate "
                    f"element, got {format_value(arg)}"
                )
            return reference_filter(fn.po.filter, fn.index, arg, workspace)
        raise EvalTypeError(f"cannot apply non-function value {format_value(fn)}")
    raise EvalTypeError(f"unknown expression node {expr!r}")


def eval_expr(expr, workspace, step_input=None):
    """Evaluate a closed diagram expression once by the compiled route,
    ``compile_expr``; not a reference, a shorthand for the tests."""
    return compile_expr(expr)(step_input, (), workspace)


def declarations_equal(workspace, other) -> bool:
    """Equality of two workspaces' declared registries, ignoring the
    derivation state (the actual objects and the stage)."""
    return workspace.replace(ao_library={}, stage=0) == \
        other.replace(ao_library={}, stage=0)


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


def reference_expanded_steps(evolvents, scripts, name, limit):
    """The steps ``apply_evolvent`` takes for ``name``, by expanding it the
    way it runs: one per evolvent popped, one per trigger of each script
    named, one for a name that names nothing.  Stops once past ``limit``
    and returns ``limit + 1``."""
    count = 0
    pending = [name]
    while pending and count <= limit:
        evolvent = evolvents.get(pending.pop())
        count += 1
        if evolvent is not None:
            script = scripts.get(evolvent.script)
            count += len(script.steps) if script is not None else 0
            pending.extend(reversed(evolvent.parts))
    return min(count, limit + 1)


def reference_dataclass(cls, post_init=False):
    """A frozen dataclass with the fields of the record class ``cls`` and
    none of its methods; a slot the class body declares is no field and has
    no counterpart.  With ``post_init`` it keeps the class's
    ``__post_init__``, which a dataclass runs after its ``__init__``.  The hand-written
    ``Atom`` has no field list: its fields, ``text`` and ``kind``, are
    named here as plain fields (its third slot keeps the hash and is not a
    field)."""
    specs = []
    for f in cls.fields if hasattr(cls, "fields") else ("text", "kind"):
        if isinstance(f, str):
            specs.append((f, object))
            continue
        options = {}
        if f.default is not MISSING:
            options["default"] = f.default
        if f.default_factory is not None:
            options["default_factory"] = f.default_factory
        specs.append((f.name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(
        cls.__qualname__, specs, frozen=True,
        namespace={"__post_init__": cls.__post_init__} if post_init else None)


def reference_parser() -> argparse.ArgumentParser:
    """The ``dodl`` argument parser with every subcommand parser built."""
    parser = argparse.ArgumentParser(
        prog="dodl",
        description="Derive actual objects from potential objects by "
                    "indexing events, with a relational cross-check.",
    )
    parser.add_argument("--workspace", default=".", metavar="<dir>",
                        help="directory of .dodl files (default: .)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    parser.add_argument("--format", choices=("text", "tsv"), default="text",
                        help="style for tabular outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="parse, validate and build source files")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("index", help="trigger one event and print the result")
    p.add_argument("po")
    p.add_argument("atom")
    p = sub.add_parser("functor", help="print the whole index-to-object map")
    p.add_argument("po")
    p = sub.add_parser("script", help="run an event script")
    p.add_argument("name")
    p = sub.add_parser("evolve", help="apply an evolvent")
    p.add_argument("name")
    p = sub.add_parser("check", help="run a diagram commutativity report")
    p.add_argument("diagram")
    p = sub.add_parser("oracle-diff", help="compare indexing with the "
                                           "relational oracle")
    p.add_argument("po")
    p = sub.add_parser("query", help="evaluate a relational expression")
    p.add_argument("expr")
    sub.add_parser("dump", help="print the canonical workspace text")
    sub.add_parser("audit", help="print the exchange audit log")
    return parser


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


def reference_oracle_index(relation, index_attr, index_value, target_attr):
    """project(select(relation, index_attr = index_value), [target_attr])
    read back as an atom set."""
    narrowed = select(relation, Eq(Var(index_attr), Const(index_value)))
    column = project(narrowed, [target_attr])
    return frozenset(row[0] for row in column.tuples)


def reference_row_predicate(pred, relation, row) -> bool:
    """Whether ``row`` of ``relation`` passes the ``select`` predicate
    ``pred``, as a plain walk: strict in both operands of ``and`` and
    ``or``, left first, and each equation reads its left term first.

    A query's identifier is the attribute of that name if ``relation`` has
    one and a symbolic constant otherwise; a variable must name an
    attribute.  A fault is raised only here, when a row is tested.
    """
    if isinstance(pred, TruePred):
        return True
    if isinstance(pred, FalsePred):
        return False
    if isinstance(pred, Not):
        return not reference_row_predicate(pred.operand, relation, row)
    if isinstance(pred, (And, Or)):
        left = reference_row_predicate(pred.left, relation, row)
        right = reference_row_predicate(pred.right, relation, row)
        return (left and right) if isinstance(pred, And) else (left or right)
    if isinstance(pred, Eq):
        return reference_row_term(pred.left, relation, row) == \
            reference_row_term(pred.right, relation, row)
    if isinstance(pred, Member):
        raise EvalTypeError("membership predicates cannot select rows")
    raise EvalTypeError(f"unknown predicate node {pred!r}")


def reference_row_term(term, relation, row):
    names = [name for name, _ in relation.attributes]
    if isinstance(term, TermIdent):
        if term.name not in names:
            return Atom(term.name, SYMBOLIC)
        term = Var(term.name)
    if isinstance(term, Const):
        return term.atom
    if isinstance(term, Var):
        if term.name not in names:
            raise UnknownAttribute(
                f"relation {relation.name!r} has no attribute {term.name!r}")
        return row[names.index(term.name)]
    raise EvalTypeError("a wildcard has no value in a row predicate")


def same_contents(r, s) -> bool:
    """Relation equality up to the derived result name."""
    return r.attributes == s.attributes and r.tuples == s.tuples
