"""Parsed statements, source spans and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..core import Atom
from ..diagrams import DiagramExpr, Predicate
from ..relational import RelExpr


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Span:
    """Where a node was written: its position in the text at ``path``."""

    line: int
    col: int
    start: int
    end: int
    path: str | None


@dataclass(frozen=True)
class Ref:
    """A name occurrence with its exact source location."""

    name: str
    span: Span


@dataclass(frozen=True)
class SortDecl:
    name: Ref
    kind: str
    span: Span


@dataclass(frozen=True)
class DomainDecl:
    name: Ref
    sort: Ref
    atoms: tuple[Atom, ...]  # duplicates preserved for load accounting
    span: Span


@dataclass(frozen=True)
class RelationDecl:
    name: Ref
    attributes: tuple[tuple[str, Ref], ...]  # (attribute name, sort ref)
    rows: tuple[tuple[Atom, ...], ...]
    span: Span


@dataclass(frozen=True)
class FilterDecl:
    name: Ref
    index_var: str
    candidate_var: str
    body: Predicate
    # (relation name, pattern arity) of each membership test, in source order
    member_refs: tuple[tuple[Ref, int], ...]
    span: Span


@dataclass(frozen=True)
class PotentialDecl:
    name: Ref
    carrier: Ref
    index_domain: Ref
    filter: Ref
    span: Span


@dataclass(frozen=True)
class ConceptDecl:
    name: Ref
    parents: tuple[Ref, ...]
    attributes: tuple[tuple[str, Atom], ...]
    events: tuple[str, ...]
    menus: tuple[tuple[str, str], ...]
    encapsulated: tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class ShapePart:
    """One component of an entry/exit shape: a domain name or ``bool``."""

    name: str
    span: Span

    @property
    def is_bool(self) -> bool:
        return self.name == "bool"


@dataclass(frozen=True)
class DiagramDecl:
    name: Ref
    entry: tuple[ShapePart, ...]
    path_a: tuple[DiagramExpr, ...]
    path_b: tuple[DiagramExpr, ...]
    exit: tuple[ShapePart, ...]
    filter_refs: tuple[Ref, ...]
    shift_refs: tuple[Ref, ...]  # potential object names used by shifts
    span: Span


@dataclass(frozen=True)
class ScriptDecl:
    name: Ref
    steps: tuple[tuple[Ref, Atom], ...]
    span: Span


@dataclass(frozen=True)
class EvolventDecl:
    name: Ref
    kind: str  # identity | script | composed
    script: Ref | None
    parts: tuple[Ref, ...]
    span: Span


@dataclass(frozen=True)
class TriggerCmd:
    po: Ref
    index: Atom
    span: Span


@dataclass(frozen=True)
class CheckCmd:
    diagram: Ref
    span: Span


@dataclass(frozen=True)
class QueryCmd:
    expr: RelExpr
    relation_refs: tuple[Ref, ...]
    span: Span


@dataclass(frozen=True)
class DumpCmd:
    span: Span


Declaration = Union[
    SortDecl, DomainDecl, RelationDecl, FilterDecl, PotentialDecl,
    ConceptDecl, DiagramDecl, ScriptDecl, EvolventDecl,
]
Command = Union[TriggerCmd, CheckCmd, QueryCmd, DumpCmd]
Statement = Union[Declaration, Command]


@dataclass(frozen=True)
class SourceUnit:
    """One parsed source: its statements plus any syntax diagnostics."""

    path: str | None
    text: str
    statements: tuple[Statement, ...]
    errors: tuple[Diagnostic, ...] = ()
