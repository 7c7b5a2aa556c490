"""Parsed statements, source spans and diagnostics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from ..core import Atom, _refuse_delete, _refuse_set, record
from ..diagrams import DiagramExpr, Predicate
from ..relation import RelExpr

if TYPE_CHECKING:
    from .lexer import Lines


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


class Span:
    """Where a node was written: tokens ``first`` through ``last`` of the
    text ``lines`` holds.

    Its ``line``, ``col``, ``start``, ``end`` and ``path`` are worked out
    when read.  Written out by hand rather than as a :class:`Record`, whose
    fields are stored, but with the meaning of the record of those five:
    equality, hash and repr are theirs, and a span is immutable.
    """

    __slots__ = ("lines", "first", "last")

    def __init__(self, lines: Lines, first: int, last: int):
        _set_lines(self, lines)
        _set_first(self, first)
        _set_last(self, last)

    @property
    def start(self) -> int:
        return self.lines.token_start(self.first)

    @property
    def end(self) -> int:
        return self.lines.token_end(self.last)

    @property
    def line(self) -> int:
        return self.lines.position(self.start)[0]

    @property
    def col(self) -> int:
        return self.lines.position(self.start)[1]

    @property
    def path(self) -> str | None:
        return self.lines.path

    def _values(self) -> tuple[int, int, int, int, str | None]:
        """``(line, col, start, end, path)``."""
        start = self.start
        return (*self.lines.position(start), start, self.end, self.lines.path)

    def diagnostic(self, message: str, expected: tuple[str, ...] = ()) -> Diagnostic:
        """A diagnostic at this span."""
        line, col, start, end, path = self._values()
        return Diagnostic(message, line, col, start, end, expected, path)

    def __eq__(self, other):
        if other.__class__ is Span:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "Span(line={!r}, col={!r}, start={!r}, end={!r}, path={!r})".format(
            *self._values())

    def __reduce__(self):
        # copy and pickle rebuild a span through __init__.
        return Span, (self.lines, self.first, self.last)

    __setattr__ = _refuse_set
    __delattr__ = _refuse_delete


_set_lines, _set_first, _set_last = (
    Span.__dict__[name].__set__ for name in Span.__slots__)


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
class DiagramDecl:
    name: Ref
    entry: tuple[Ref, ...]  # domain names or 'bool'
    path_a: tuple[DiagramExpr, ...]
    path_b: tuple[DiagramExpr, ...]
    exit: tuple[Ref, ...]
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

    statements: tuple[Statement, ...]
    errors: tuple[Diagnostic, ...] = ()
