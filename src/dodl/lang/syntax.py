"""Parsed statements, source spans and diagnostics."""

from __future__ import annotations

from typing import Union

from ..core import Atom, record
from ..diagrams import DiagramExpr, Predicate
from ..relational import RelExpr


@record
class Diagnostic:
    """A problem at a source location; the span slices the offending tokens."""

    message: str
    line: int
    col: int
    start: int
    end: int
    expected: tuple[str, ...] = ()
    path: str | None = None

    def render(self) -> str:
        where = f"{self.path or '<input>'}:{self.line}:{self.col}"
        text = f"{where}: {self.message}"
        if self.expected:
            text += " (expected " + " | ".join(self.expected) + ")"
        return text


@record
class Span:
    """Where a node was written: its position in the text at ``path``."""

    line: int
    col: int
    start: int
    end: int
    path: str | None


@record
class Ref:
    """A name occurrence with its exact source location."""

    name: str
    span: Span


@record
class SortDecl:
    name: Ref
    kind: str
    span: Span


@record
class DomainDecl:
    name: Ref
    sort: Ref
    atoms: tuple[Atom, ...]  # duplicates preserved for load accounting
    span: Span


@record
class RelationDecl:
    name: Ref
    attributes: tuple[tuple[str, Ref], ...]  # (attribute name, sort ref)
    rows: tuple[tuple[Atom, ...], ...]
    span: Span


@record
class FilterDecl:
    name: Ref
    index_var: str
    candidate_var: str
    body: Predicate
    # (relation name, pattern arity) of each membership test, in source order
    member_refs: tuple[tuple[Ref, int], ...]
    span: Span


@record
class PotentialDecl:
    name: Ref
    carrier: Ref
    index_domain: Ref
    filter: Ref
    span: Span


@record
class ConceptDecl:
    name: Ref
    parents: tuple[Ref, ...]
    attributes: tuple[tuple[str, Atom], ...]
    events: tuple[str, ...]
    menus: tuple[tuple[str, str], ...]
    encapsulated: tuple[str, ...]
    span: Span


@record
class ShapePart:
    """One component of an entry/exit shape: a domain name or ``bool``."""

    name: str
    span: Span

    @property
    def is_bool(self) -> bool:
        return self.name == "bool"


@record
class DiagramDecl:
    name: Ref
    entry: tuple[ShapePart, ...]
    path_a: tuple[DiagramExpr, ...]
    path_b: tuple[DiagramExpr, ...]
    exit: tuple[ShapePart, ...]
    filter_refs: tuple[Ref, ...]
    shift_refs: tuple[Ref, ...]  # potential object names used by shifts
    span: Span


@record
class ScriptDecl:
    name: Ref
    steps: tuple[tuple[Ref, Atom], ...]
    span: Span


@record
class EvolventDecl:
    name: Ref
    kind: str  # identity | script | composed
    script: Ref | None
    parts: tuple[Ref, ...]
    span: Span


@record
class TriggerCmd:
    po: Ref
    index: Atom
    span: Span


@record
class CheckCmd:
    diagram: Ref
    span: Span


@record
class QueryCmd:
    expr: RelExpr
    relation_refs: tuple[Ref, ...]
    span: Span


@record
class DumpCmd:
    span: Span


Declaration = Union[
    SortDecl, DomainDecl, RelationDecl, FilterDecl, PotentialDecl,
    ConceptDecl, DiagramDecl, ScriptDecl, EvolventDecl,
]
Command = Union[TriggerCmd, CheckCmd, QueryCmd, DumpCmd]
Statement = Union[Declaration, Command]


@record
class SourceUnit:
    """One parsed source: its statements plus any syntax diagnostics."""

    path: str | None
    text: str
    statements: tuple[Statement, ...]
    errors: tuple[Diagnostic, ...] = ()
