"""A minimal algebra over relations, query evaluation and the indexing oracle.

This layer is deliberately independent of the diagram engine: the oracle
answers the same question as event indexing by select-then-project over a
named relation, for every index in one scan, so the two routes can be
compared against each other.  The relation record and the query nodes are
in :mod:`dodl.relation`, which loading needs; they are re-exported here.
Operator results skip the row checks: their rows come from checked ones.
"""

from __future__ import annotations

from typing import Mapping, Union

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
# Row predicates


def eval_row_predicate(pred: Predicate, relation: Relation, row: Row) -> bool:
    """Evaluate a predicate over one tuple; variables name attributes."""
    if isinstance(pred, TruePred):
        return True
    if isinstance(pred, FalsePred):
        return False
    if isinstance(pred, Not):
        return not eval_row_predicate(pred.operand, relation, row)
    if isinstance(pred, And):
        left = eval_row_predicate(pred.left, relation, row)
        right = eval_row_predicate(pred.right, relation, row)
        return left and right
    if isinstance(pred, Or):
        left = eval_row_predicate(pred.left, relation, row)
        right = eval_row_predicate(pred.right, relation, row)
        return left or right
    if isinstance(pred, Eq):
        return _row_term(pred.left, relation, row) == _row_term(
            pred.right, relation, row
        )
    if isinstance(pred, Member):
        raise EvalTypeError("membership predicates cannot select rows")
    raise EvalTypeError(f"unknown predicate node {pred!r}")


def _row_term(term: Term, relation: Relation, row: Row) -> Atom:
    if isinstance(term, Const):
        return term.atom
    if isinstance(term, Var):
        return row[relation.index_of(term.name)]
    raise EvalTypeError("a wildcard has no value in a row predicate")


# ---------------------------------------------------------------------------
# Algebra


def select(r: Relation, pred: Predicate) -> Relation:
    """Tuples of ``r`` satisfying ``pred``; schema unchanged."""
    kept = frozenset(row for row in r.tuples if eval_row_predicate(pred, r, row))
    return Relation.from_checked_parts(f"sel_{r.name}", r.attributes, kept)


def project(r: Relation, attrs: list[str]) -> Relation:
    """Column restriction with set-semantics deduplication."""
    positions = [r.index_of(a) for a in attrs]
    schema = tuple(r.attributes[i] for i in positions)
    rows = frozenset(tuple(row[i] for i in positions) for row in r.tuples)
    return Relation.from_checked_parts(f"proj_{r.name}", schema, rows)


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
    r_pos = [r.index_of(a) for a in shared]
    s_pos = [s.index_of(a) for a in shared]
    s_rest = [i for i, (a, _) in enumerate(s.attributes) if a not in shared]
    schema = r.attributes + tuple(s.attributes[i] for i in s_rest)
    # Build: bucket s's non-shared remainders by their shared-attribute key.
    buckets: dict[Row, list[Row]] = {}
    for right in s.tuples:
        key = tuple(right[i] for i in s_pos)
        buckets.setdefault(key, []).append(tuple(right[i] for i in s_rest))
    # Probe: each tuple of r meets only the bucket of its own key.  Distinct
    # left tuples and distinct remainders give distinct rows, so the output
    # is counted exactly before any row is built.
    matches = [(left, buckets.get(tuple(left[i] for i in r_pos), ()))
               for left in r.tuples]
    if sum(len(bucket) for _, bucket in matches) > JOIN_ROW_LIMIT:
        raise JoinTooLarge(
            f"join of {r.name!r} and {s.name!r} has more than "
            f"{JOIN_ROW_LIMIT} rows"
        )
    rows = frozenset(left + rest for left, bucket in matches for rest in bucket)
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


def resolve_row_terms(pred: Predicate, attribute_names: tuple[str, ...]) -> Predicate:
    """Replace TermIdent markers by attribute variables or symbolic constants."""

    def term(t):
        if isinstance(t, TermIdent):
            if t.name in attribute_names:
                return Var(t.name)
            return Const(symbol(t.name))
        return t

    if isinstance(pred, Eq):
        return Eq(term(pred.left), term(pred.right))
    if isinstance(pred, And):
        return And(resolve_row_terms(pred.left, attribute_names),
                   resolve_row_terms(pred.right, attribute_names))
    if isinstance(pred, Or):
        return Or(resolve_row_terms(pred.left, attribute_names),
                  resolve_row_terms(pred.right, attribute_names))
    if isinstance(pred, Not):
        return Not(resolve_row_terms(pred.operand, attribute_names))
    return pred


def eval_query(expr: RelExpr, relations: Mapping[str, Relation]) -> QueryResult:
    """Evaluate a query expression against a registry of named relations."""
    if isinstance(expr, RelName):
        relation = relations.get(expr.name)
        if relation is None:
            raise not_defined("relation", expr.name)
        return relation
    if isinstance(expr, Select):
        relation = _as_relation(eval_query(expr.source, relations))
        pred = resolve_row_terms(expr.pred, relation.attribute_names)
        return select(relation, pred)
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
