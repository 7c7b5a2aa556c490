"""A minimal algebra over relations, query evaluation and the indexing oracle.

This layer is deliberately independent of the diagram engine: the oracle
answers the same question as event indexing by select-then-project over a
named relation, for every index in one scan, so the two routes can be
compared against each other.  The relation record and the query nodes are
in :mod:`dodl.relation`, which loading needs; they are re-exported here.
Operator results skip the row checks: their rows come from checked ones.

Each operator sets up its row work once per call: ``select`` compiles its
predicate into a test of one row, sharing no code with the filter compiler
the oracle checks, and ``project`` and ``join`` cut rows in C with
``operator.itemgetter``.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Mapping, Union

from .core import Atom, PotentialObject, symbol
from .diagrams import (
    And,
    Const,
    Eq,
    FalsePred,
    Member,
    Not,
    Or,
    Predicate,
    Term,
    TruePred,
    Var,
    Wildcard,
    arity_mismatch,
)
from .errors import (
    DodlError,
    EvalTypeError,
    JoinTooLarge,
    NoSharedAttributes,
    SchemaMismatch,
    SortMismatch,
    UnknownAttribute,
    not_defined,
)
from .relation import (
    OPERATOR_WORDS,
    DifferenceExpr,
    JoinExpr,
    OracleExpr,
    Project,
    RelExpr,
    Relation,
    RelName,
    Row,
    Select,
    TermIdent,
    UnionExpr,
)

# The most rows one join may build.  A chain of joins multiplies rows, so a
# short query over small relations could otherwise run without bound; the
# largest join of the tests, the generated workspaces and the benchmark
# workloads builds about 1,050 rows.
JOIN_ROW_LIMIT = 100_000


# ---------------------------------------------------------------------------
# Row tests and row cutters, each built once per operator call


def _row_test(pred: Predicate, relation: Relation) -> Callable[[Row], bool]:
    """``pred`` as a test of one row of ``relation``, each attribute resolved
    to its position here.  A fault is raised only when a row is tested, so an
    empty relation raises none; ``and`` and ``or`` test both operands, left
    first, so which fault is raised does not depend on the row."""
    if isinstance(pred, (TruePred, FalsePred)):
        value = isinstance(pred, TruePred)
        return lambda row: value
    if isinstance(pred, Not):
        operand = _row_test(pred.operand, relation)
        return lambda row: not operand(row)
    if isinstance(pred, (And, Or)):
        left = _row_test(pred.left, relation)
        right = _row_test(pred.right, relation)
        if isinstance(pred, And):
            return lambda row: left(row) & right(row)
        return lambda row: left(row) | right(row)
    if isinstance(pred, Eq):
        left_term = _row_term(pred.left, relation)
        right_term = _row_term(pred.right, relation)
        return lambda row: left_term(row) == right_term(row)
    if isinstance(pred, Member):
        return _fault(EvalTypeError("membership predicates cannot select rows"))
    return _fault(EvalTypeError(f"unknown predicate node {pred!r}"))


def _row_term(term: Term, relation: Relation) -> Callable[[Row], Atom]:
    """A term's value in a row.  A query's identifier names the attribute of
    ``relation`` that it matches, if one does, and is a symbolic constant
    otherwise."""
    if isinstance(term, TermIdent):
        term = (Var(term.name) if term.name in relation.attribute_names
                else Const(symbol(term.name)))
    if isinstance(term, Const):
        atom = term.atom
        return lambda row: atom
    if isinstance(term, Var):
        try:
            return itemgetter(relation.index_of(term.name))
        except UnknownAttribute as fault:
            return _fault(fault)
    return _fault(EvalTypeError("a wildcard has no value in a row predicate"))


def _fault(error: DodlError):
    def raise_fault(row):
        raise error
    return raise_fault


def _cutter(positions: list[int]) -> Callable[[Row], Row]:
    """The cells of a row at ``positions``, as a tuple, cut in C.  An
    ``itemgetter`` of one position gives a bare cell, and one of none cannot
    be made, so those two cut a slice."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


# ---------------------------------------------------------------------------
# Algebra


def select(r: Relation, pred: Predicate) -> Relation:
    """Tuples of ``r`` satisfying ``pred``; schema unchanged.  A query's
    identifier in ``pred`` is the attribute of ``r`` it names, if any."""
    kept = frozenset(filter(_row_test(pred, r), r.tuples))
    return Relation.from_checked_parts(f"sel_{r.name}", r.attributes, kept)


def project(r: Relation, attrs: list[str]) -> Relation:
    """Column restriction with set-semantics deduplication."""
    cut = _cutter([r.index_of(a) for a in attrs])
    rows = frozenset(map(cut, r.tuples))
    return Relation.from_checked_parts(f"proj_{r.name}", cut(r.attributes), rows)


def join(r: Relation, s: Relation) -> Relation:
    """Natural join on all shared attribute names.

    Result schema is r's attributes followed by s's non-shared ones.
    Raises :class:`JoinTooLarge`, before building any row, when the result
    would pass ``JOIN_ROW_LIMIT`` rows.
    """
    shared = [a for a in r.attribute_names if a in s.attribute_names]
    if not shared:
        raise NoSharedAttributes(
            f"relations {r.name!r} and {s.name!r} share no attribute"
        )
    r_sorts = dict(r.attributes)
    s_sorts = dict(s.attributes)
    for a in shared:
        if r_sorts[a] != s_sorts[a]:
            raise SortMismatch(
                f"shared attribute {a!r} has sort {r_sorts[a].name!r} in "
                f"{r.name!r} but {s_sorts[a].name!r} in {s.name!r}"
            )
    r_key = _cutter([r.index_of(a) for a in shared])
    s_key = _cutter([s.index_of(a) for a in shared])
    s_rest = _cutter([i for i, (a, _) in enumerate(s.attributes) if a not in shared])
    schema = r.attributes + s_rest(s.attributes)
    # Build: bucket s's non-shared remainders by their shared-attribute key.
    buckets: dict[Row, list[Row]] = {}
    for key, rest in zip(map(s_key, s.tuples), map(s_rest, s.tuples)):
        buckets.setdefault(key, []).append(rest)
    # Probe: each tuple of r meets only the bucket of its own key.  Distinct
    # left tuples and distinct remainders give distinct rows, so the output
    # is counted exactly before any row is built.  A frozenset is read in
    # the same order each time, so ``found`` lines up with r's tuples.
    found = list(map(buckets.get, map(r_key, r.tuples), repeat(())))
    if sum(map(len, found)) > JOIN_ROW_LIMIT:
        raise JoinTooLarge(
            f"join of {r.name!r} and {s.name!r} has more than "
            f"{JOIN_ROW_LIMIT} rows"
        )
    rows = frozenset(chain.from_iterable(
        map(left.__add__, bucket) for left, bucket in zip(r.tuples, found)))
    return Relation.from_checked_parts(f"join_{r.name}_{s.name}", schema, rows)


def _set_operation(word: str, r: Relation, s: Relation, combine) -> Relation:
    if r.attributes != s.attributes:
        raise SchemaMismatch(
            f"relations {r.name!r} and {s.name!r} have different schemas"
        )
    return Relation.from_checked_parts(f"{word}_{r.name}_{s.name}", r.attributes,
                                       combine(r.tuples, s.tuples))


def union(r: Relation, s: Relation) -> Relation:
    return _set_operation("union", r, s, frozenset.union)


def difference(r: Relation, s: Relation) -> Relation:
    return _set_operation("diff", r, s, frozenset.difference)


def oracle_index(
    r: Relation, index_attr: str, target_attr: str
) -> dict[Atom, frozenset[Atom]]:
    """The plain-relational route to every extension at once.

    Maps each value ``v`` of ``index_attr`` in ``r`` to
    project(select(r, index_attr = v), [target_attr]) read back as an atom
    set, from one scan of the tuples; a value with no tuple has no entry.
    Both attributes are resolved on ``r`` before the scan, so an unknown
    one raises even when ``r`` is empty.
    """
    index_pos = r.index_of(index_attr)
    target_pos = r.index_of(target_attr)
    groups: dict[Atom, set[Atom]] = {}
    for row in r.tuples:
        groups.setdefault(row[index_pos], set()).add(row[target_pos])
    return {index: frozenset(group) for index, group in groups.items()}


def oracle_route(
    po: PotentialObject, relations: Mapping[str, Relation]
) -> tuple[Relation, str, str]:
    """Read the arguments of :func:`oracle_index` off a membership filter:
    (relation, index attribute, target attribute).  Only that restricted
    class of filters has a plain-relational twin."""
    body = po.filter.body
    if not isinstance(body, Member):
        raise DodlError(
            f"filter {po.filter.name!r} is not a plain membership test; "
            f"there is no relational twin to compare against"
        )
    relation = relations.get(body.relation)
    if relation is None:
        raise not_defined("relation", body.relation)
    if len(body.pattern) != relation.arity:
        raise arity_mismatch(body.relation, len(body.pattern), relation.arity)
    constrains_more = (f"filter {po.filter.name!r} constrains more than the "
                       f"index and candidate; there is no relational twin")
    index_pos = candidate_pos = None
    for position, term in enumerate(body.pattern):
        if isinstance(term, Var) and term.name == po.filter.index_var:
            index_pos = position
        elif isinstance(term, Var) and term.name == po.filter.candidate_var:
            candidate_pos = position
        elif not isinstance(term, Wildcard):
            raise DodlError(constrains_more)
    if index_pos is None or candidate_pos is None:
        raise DodlError(
            f"filter {po.filter.name!r} does not test both the index and "
            f"the candidate against {body.relation!r}"
        )
    # A variable named twice asks its positions to be equal, which the
    # two columns read here cannot say.
    if sum(isinstance(term, Var) for term in body.pattern) > 2:
        raise DodlError(constrains_more)
    names = relation.attribute_names
    return relation, names[index_pos], names[candidate_pos]


# ---------------------------------------------------------------------------
# Query evaluation

QueryResult = Union[Relation, frozenset]


def eval_query(expr: RelExpr, relations: Mapping[str, Relation]) -> QueryResult:
    """Evaluate a query expression against a registry of named relations."""
    if isinstance(expr, RelName):
        relation = relations.get(expr.name)
        if relation is None:
            raise not_defined("relation", expr.name)
        return relation
    if isinstance(expr, Select):
        return select(_as_relation(eval_query(expr.source, relations)), expr.pred)
    if isinstance(expr, Project):
        relation = _as_relation(eval_query(expr.source, relations))
        return project(relation, list(expr.attrs))
    word = OPERATOR_WORDS.get(expr.__class__)
    if word is not None:
        # The operator is looked up by its word on each run, so a wrapper
        # set on this module's function is what runs.
        return globals()[word](_as_relation(eval_query(expr.left, relations)),
                               _as_relation(eval_query(expr.right, relations)))
    if isinstance(expr, OracleExpr):
        relation = _as_relation(eval_query(expr.source, relations))
        extensions = oracle_index(relation, expr.index_attr, expr.target_attr)
        return extensions.get(expr.index_value, frozenset())
    raise EvalTypeError(f"unknown query node {expr!r}")


def _as_relation(result: QueryResult) -> Relation:
    if not isinstance(result, Relation):
        raise EvalTypeError("an atom set cannot feed another operator")
    return result
