"""Relations and the query syntax over them: what loading a workspace needs.

A :class:`Relation` is a named, typed set of tuples, and the query nodes are
what the parser builds from a relational expression.  The algebra that
evaluates them, and the indexing oracle, are in :mod:`dodl.relational`,
which a call imports only when it runs a query or the oracle.  A load checks
every row; an operator's rows come from checked relations, so its result
skips the re-check, which would rehash every cell.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Union

from .core import NUMERIC, Atom, Sort, record
from .diagrams import Predicate
from .errors import DefinitionError, SortMismatch, UnknownAttribute

Row = tuple[Atom, ...]
_text = attrgetter("text")


def format_row(row: Row) -> str:
    return "(" + ", ".join(map(_text, row)) + ")"


@record
class Relation:
    """A named relation with an ordered schema and set-semantics tuples."""

    name: str
    attributes: tuple[tuple[str, Sort], ...]
    tuples: frozenset[Row]

    def __post_init__(self):
        attributes = tuple(self.attributes)
        object.__setattr__(self, "attributes", attributes)
        self._require_distinct_names()
        rows = list(map(tuple, self.tuples))
        # Checked a column at a time; only a faulty relation is scanned in
        # the order given, so that the fault reported first does not depend
        # on the iteration order of a set.
        if set(map(len, rows)) - {len(attributes)} or any(
                set(map(attrgetter("kind"), column)) - {sort.kind}
                for column, (_, sort) in zip(zip(*rows), attributes)):
            for row in rows:
                if len(row) != len(attributes):
                    raise DefinitionError(
                        f"relation {self.name!r}: tuple {format_row(row)} has "
                        f"arity {len(row)}, schema has {len(attributes)}"
                    )
                for cell, (attr, sort) in zip(row, attributes):
                    if cell.kind != sort.kind:
                        raise SortMismatch(
                            f"relation {self.name!r}: {cell.text!r} is {cell.kind} "
                            f"but attribute {attr!r} has {sort.kind} sort "
                            f"{sort.name!r}"
                        )
        object.__setattr__(self, "tuples", frozenset(rows))

    def _require_distinct_names(self):
        names = [a for a, _ in self.attributes]
        if len(set(names)) != len(names):
            raise DefinitionError(f"relation {self.name!r} repeats an attribute name")

    # The algebra's operators, and only they, build a result with this:
    # from a tuple schema and a frozenset of tuple rows that already pass
    # the row checks above.  The names are checked again, as a projection
    # may list one twice.  Copy and pickle still rebuild it through __init__.
    @classmethod
    def from_checked_parts(cls, name, attributes, tuples) -> Relation:
        relation = object.__new__(cls)
        for field, part in zip(cls.fields, (name, attributes, tuples)):
            object.__setattr__(relation, field.name, part)
        relation._require_distinct_names()
        return relation

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

    # In Atom.order_key order.  A checked column holds atoms of one kind, so
    # a symbolic column is keyed by text and a numeric one by length, then
    # text.  Distinct rows have distinct keys, so no row is ever compared.
    # ``rows`` is zipped in last: a zero-arity relation keeps its one row.
    def sorted_tuples(self) -> list[Row]:
        rows, keys = list(self.tuples), []
        for column, (_, sort) in zip(zip(*rows), self.attributes):
            texts = list(map(_text, column))
            keys += [list(map(len, texts)), texts] if sort.kind == NUMERIC else [texts]
        return [keyed[-1] for keyed in sorted(zip(*keys, rows))]


# ---------------------------------------------------------------------------
# Query expressions (the surface the shell and System Exchange evaluate)


@record
class TermIdent:
    """An identifier in a query predicate, resolved per relation at run time:
    an attribute of the selected relation if one matches, else a constant."""

    name: str


@record
class RelName:
    name: str


@record
class Select:
    source: "RelExpr"
    pred: Predicate


@record
class Project:
    source: "RelExpr"
    attrs: tuple[str, ...]


@record
class JoinExpr:
    left: "RelExpr"
    right: "RelExpr"


@record
class UnionExpr:
    left: "RelExpr"
    right: "RelExpr"


@record
class DifferenceExpr:
    left: "RelExpr"
    right: "RelExpr"


@record
class OracleExpr:
    source: "RelExpr"
    index_attr: str
    index_value: Atom
    target_attr: str


RelExpr = Union[
    RelName, Select, Project, JoinExpr, UnionExpr, DifferenceExpr, OracleExpr
]

# The binary operators: ``word(left, right)`` is each one's text form, which
# the parser reads and the printer writes from this table.  Each word is
# also the name of the operator's function in :mod:`dodl.relational`.
OPERATORS = {"join": JoinExpr, "union": UnionExpr, "difference": DifferenceExpr}

# Each binary operator's record -> its word.
OPERATOR_WORDS = {node: word for word, node in OPERATORS.items()}
