"""Relations and the query syntax over them: what loading a workspace needs.

A :class:`Relation` is a named, typed set of tuples, and the query nodes are
what the parser builds from a relational expression.  The algebra that
evaluates them, and the indexing oracle, are in :mod:`dodl.relational`,
which a call imports only when it runs a query or the oracle.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Union

from .core import Atom, Sort, record
from .diagrams import Predicate
from .errors import DefinitionError, SortMismatch, UnknownAttribute

Row = tuple[Atom, ...]


def format_row(row: Row) -> str:
    return "(" + ", ".join(a.text for a in row) + ")"


@record
class Relation:
    """A named relation with an ordered schema and set-semantics tuples."""

    name: str
    attributes: tuple[tuple[str, Sort], ...]
    tuples: frozenset[Row]

    def __post_init__(self):
        attributes = tuple(self.attributes)
        object.__setattr__(self, "attributes", attributes)
        names = [a for a, _ in attributes]
        if len(set(names)) != len(names):
            raise DefinitionError(
                f"relation {self.name!r} repeats an attribute name"
            )
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

    def sorted_tuples(self) -> list[Row]:
        return sorted(self.tuples, key=lambda row: tuple(a.order_key() for a in row))


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
