"""Plain relations, a minimal algebra over them, and the indexing oracle.

This layer is deliberately independent of the diagram engine: the oracle
answers the same question as event indexing by select-then-project over a
named relation, so the two routes can be compared against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .core import Atom, PotentialObject, Sort, symbol
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
    DefinitionError,
    DodlError,
    EvalTypeError,
    NoSharedAttributes,
    SchemaMismatch,
    SortMismatch,
    UnknownAttribute,
    not_defined,
)

Row = tuple[Atom, ...]


@dataclass(frozen=True)
class Relation:
    """A named relation with an ordered schema and set-semantics tuples."""

    name: str
    attributes: tuple[tuple[str, Sort], ...]
    tuples: frozenset[Row]
    # positions -> keys; filled by probe_index, invisible to eq, hash and repr.
    _probes: dict[tuple[int, ...], frozenset[Row]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(
            self, "tuples", frozenset(tuple(row) for row in self.tuples)
        )
        names = [a for a, _ in self.attributes]
        if len(set(names)) != len(names):
            raise DefinitionError(
                f"relation {self.name!r} repeats an attribute name"
            )
        for row in self.tuples:
            if len(row) != self.arity:
                raise DefinitionError(
                    f"relation {self.name!r}: tuple {row} has arity "
                    f"{len(row)}, schema has {self.arity}"
                )
            for cell, (attr, sort) in zip(row, self.attributes):
                if cell.kind != sort.kind:
                    raise SortMismatch(
                        f"relation {self.name!r}: {cell.text!r} is {cell.kind} "
                        f"but attribute {attr!r} has {sort.kind} sort "
                        f"{sort.name!r}"
                    )

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.attributes)

    def index_of(self, attr: str) -> int:
        for i, (name, _) in enumerate(self.attributes):
            if name == attr:
                return i
        raise UnknownAttribute(
            f"relation {self.name!r} has no attribute {attr!r}"
        )

    def probe_index(self, positions: tuple[int, ...]) -> frozenset[Row]:
        """The tuples projected onto ``positions``, built on first use.

        A pattern binding exactly those positions matches some tuple iff
        its bound values, in position order, are in the returned set. Only
        the indexing route reads it: ``select`` and ``oracle_index`` scan
        ``tuples``, so the oracle shares no index with what it checks.
        """
        keys = self._probes.get(positions)
        if keys is None:
            keys = frozenset(
                tuple(row[i] for i in positions) for row in self.tuples
            )
            self._probes[positions] = keys
        return keys

    def sorted_tuples(self) -> list[Row]:
        return sorted(self.tuples, key=lambda row: tuple(a.order_key() for a in row))

    def same_contents(self, other: "Relation") -> bool:
        """Equality up to the derived result name."""
        return self.attributes == other.attributes and self.tuples == other.tuples


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
    return Relation(f"sel_{r.name}", r.attributes, kept)


def project(r: Relation, attrs: list[str]) -> Relation:
    """Column restriction with set-semantics deduplication."""
    positions = [r.index_of(a) for a in attrs]
    schema = tuple(r.attributes[i] for i in positions)
    rows = frozenset(tuple(row[i] for i in positions) for row in r.tuples)
    return Relation(f"proj_{r.name}", schema, rows)


def join(r: Relation, s: Relation) -> Relation:
    """Natural join on all shared attribute names.

    Result schema is r's attributes followed by s's non-shared ones.
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
    # Probe: each tuple of r meets only the bucket of its own key.
    rows = set()
    for left in r.tuples:
        for rest in buckets.get(tuple(left[i] for i in r_pos), ()):
            rows.add(left + rest)
    return Relation(f"join_{r.name}_{s.name}", schema, frozenset(rows))


def _require_same_schema(r: Relation, s: Relation):
    if r.attributes != s.attributes:
        raise SchemaMismatch(
            f"relations {r.name!r} and {s.name!r} have different schemas"
        )


def union(r: Relation, s: Relation) -> Relation:
    _require_same_schema(r, s)
    return Relation(f"union_{r.name}_{s.name}", r.attributes, r.tuples | s.tuples)


def difference(r: Relation, s: Relation) -> Relation:
    _require_same_schema(r, s)
    return Relation(f"diff_{r.name}_{s.name}", r.attributes, r.tuples - s.tuples)


def oracle_index(
    r: Relation, index_attr: str, index_value: Atom, target_attr: str
) -> frozenset[Atom]:
    """The plain-relational route to an extension.

    Definitionally project(select(r, index_attr = index_value), [target_attr])
    read back as an atom set.
    """
    narrowed = select(r, Eq(Var(index_attr), Const(index_value)))
    column = project(narrowed, [target_attr])
    return frozenset(row[0] for row in column.tuples)


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
    index_pos = candidate_pos = None
    for position, term in enumerate(body.pattern):
        if isinstance(term, Var) and term.name == po.filter.index_var:
            index_pos = position
        elif isinstance(term, Var) and term.name == po.filter.candidate_var:
            candidate_pos = position
        elif not isinstance(term, Wildcard):
            raise DodlError(
                f"filter {po.filter.name!r} constrains more than the index "
                f"and candidate; there is no relational twin"
            )
    if index_pos is None or candidate_pos is None:
        raise DodlError(
            f"filter {po.filter.name!r} does not test both the index and "
            f"the candidate against {body.relation!r}"
        )
    names = relation.attribute_names
    return relation, names[index_pos], names[candidate_pos]


# ---------------------------------------------------------------------------
# Query expressions (the surface the shell and System Exchange evaluate)


@dataclass(frozen=True)
class TermIdent:
    """An identifier in a query predicate, resolved per relation at run time:
    an attribute of the selected relation if one matches, else a constant."""

    name: str


@dataclass(frozen=True)
class RelName:
    name: str


@dataclass(frozen=True)
class Select:
    source: "RelExpr"
    pred: Predicate


@dataclass(frozen=True)
class Project:
    source: "RelExpr"
    attrs: tuple[str, ...]


@dataclass(frozen=True)
class JoinExpr:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class UnionExpr:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class DifferenceExpr:
    left: "RelExpr"
    right: "RelExpr"


@dataclass(frozen=True)
class OracleExpr:
    source: "RelExpr"
    index_attr: str
    index_value: Atom
    target_attr: str


RelExpr = Union[
    RelName, Select, Project, JoinExpr, UnionExpr, DifferenceExpr, OracleExpr
]

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
    if isinstance(expr, JoinExpr):
        return join(_as_relation(eval_query(expr.left, relations)),
                    _as_relation(eval_query(expr.right, relations)))
    if isinstance(expr, UnionExpr):
        return union(_as_relation(eval_query(expr.left, relations)),
                     _as_relation(eval_query(expr.right, relations)))
    if isinstance(expr, DifferenceExpr):
        return difference(_as_relation(eval_query(expr.left, relations)),
                          _as_relation(eval_query(expr.right, relations)))
    if isinstance(expr, OracleExpr):
        relation = _as_relation(eval_query(expr.source, relations))
        return oracle_index(
            relation, expr.index_attr, expr.index_value, expr.target_attr
        )
    raise EvalTypeError(f"unknown query node {expr!r}")


def _as_relation(result: QueryResult) -> Relation:
    if not isinstance(result, Relation):
        raise EvalTypeError("an atom set cannot feed another operator")
    return result
