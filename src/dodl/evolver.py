"""Event triggering, scripts, evolvents and the System Exchange dispatcher.

The workspace is an immutable snapshot; triggering an event returns a new
snapshot with one more actual object and the stage advanced by one.  Writers
serialize through an :class:`Exchange`, which also keeps the audit log.
"""

from __future__ import annotations

from typing import Union

from .core import (
    ActualObject,
    Atom,
    Domain,
    Event,
    Field,
    PotentialObject,
    Sort,
    actual_name,
    record,
)
from .diagrams import DiagramSpec, Filter, run_filter
from .errors import (
    DefinitionError,
    DodlError,
    ScriptError,
    UnknownRequestKind,
    not_defined,
)
from .meta import ConceptRegistry
from .relational import Relation, RelExpr, eval_query

IDENTITY = "identity"
SCRIPT = "script"
COMPOSED = "composed"


@record
class EventScript:
    """An ordered list of (potential object, index) events."""

    name: str
    steps: tuple[tuple[str, Atom], ...]


@record
class Evolvent:
    """A named workspace transition: a no-op, one script, or a chain."""

    name: str
    kind: str
    script: str | None = None
    parts: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (IDENTITY, SCRIPT, COMPOSED):
            raise DefinitionError(f"unknown evolvent kind {self.kind!r}")
        if self.kind == SCRIPT and not self.script:
            raise DefinitionError(f"evolvent {self.name!r} names no script")
        if self.kind == COMPOSED and not self.parts:
            raise DefinitionError(f"evolvent {self.name!r} composes nothing")


@record
class Workspace:
    """All registries plus the derivation state (actual objects, stage)."""

    sorts: dict[str, Sort] = Field(default_factory=dict)
    domains: dict[str, Domain] = Field(default_factory=dict)
    relations: dict[str, Relation] = Field(default_factory=dict)
    filters: dict[str, Filter] = Field(default_factory=dict)
    potentials: dict[str, PotentialObject] = Field(default_factory=dict)
    concepts: ConceptRegistry = Field(default_factory=ConceptRegistry)
    diagrams: dict[str, DiagramSpec] = Field(default_factory=dict)
    scripts: dict[str, EventScript] = Field(default_factory=dict)
    evolvents: dict[str, Evolvent] = Field(default_factory=dict)
    ao_library: dict[str, ActualObject] = Field(default_factory=dict)
    stage: int = 0

    @staticmethod
    def empty() -> "Workspace":
        return Workspace()

    def with_actual(self, ao: ActualObject) -> "Workspace":
        library = dict(self.ao_library)
        library[ao.name] = ao
        return self.replace(ao_library=library, stage=self.stage + 1)

    def declarations_equal(self, other: "Workspace") -> bool:
        """Equality of the declared registries, ignoring derivation state."""
        return self.replace(ao_library={}, stage=0) == \
            other.replace(ao_library={}, stage=0)


# ---------------------------------------------------------------------------
# Derivation


def get_potential(state: Workspace, po_name: str) -> PotentialObject:
    po = state.potentials.get(po_name)
    if po is None:
        raise not_defined("potential object", po_name)
    return po


def derive_actual(state: Workspace, po: PotentialObject, index: Atom) -> ActualObject:
    """The actual object ``po`` yields at ``index``, without touching state."""
    event = Event(index, po.index_domain)
    elements = frozenset(
        candidate
        for candidate in po.carrier.elements
        if run_filter(po.filter, index, candidate, state)
    )
    return ActualObject(actual_name(po.name, index), elements, (po.name, event))


def trigger(state: Workspace, po_name: str, index: Atom) -> tuple[Workspace, ActualObject]:
    """Fire one event: derive the actual object and store it.

    Re-triggering the same (object, index) replaces the stored entry and
    still advances the stage.
    """
    po = get_potential(state, po_name)
    ao = derive_actual(state, po, index)
    return state.with_actual(ao), ao


def materialize_functor(state: Workspace, po_name: str) -> dict[Atom, ActualObject]:
    """Preview the whole index -> actual object map; state is unchanged."""
    po = get_potential(state, po_name)
    return {
        index: derive_actual(state, po, index)
        for index in po.index_domain.sorted_elements()
    }


def run_script(state: Workspace, script_name: str) -> Workspace:
    """Fold trigger over the script's steps; all-or-nothing."""
    script = state.scripts.get(script_name)
    if script is None:
        raise not_defined("script", script_name)
    current = state
    for position, (po_name, index) in enumerate(script.steps, start=1):
        try:
            current, _ = trigger(current, po_name, index)
        except DodlError as exc:
            raise ScriptError(script_name, position, exc) from exc
    return current


def apply_evolvent(state: Workspace, evolvent_name: str) -> Workspace:
    """Run a named transition: identity, a script, or a left-to-right chain.

    Composed parts are expanded on an explicit stack, so the depth of a
    composition is not bounded by the interpreter's recursion limit.
    """
    current = state
    pending = [evolvent_name]  # names still to run, the next one last
    while pending:
        name = pending.pop()
        evolvent = state.evolvents.get(name)
        if evolvent is None:
            raise not_defined("evolvent", name)
        if evolvent.kind == SCRIPT:
            current = run_script(current, evolvent.script)
        elif evolvent.kind == COMPOSED:
            pending.extend(reversed(evolvent.parts))
    return current


# ---------------------------------------------------------------------------
# System Exchange


@record
class GetPO:
    name: str


@record
class GetAO:
    name: str


@record
class GetConcept:
    name: str


@record
class Trigger:
    po_name: str
    index: Atom


@record
class Query:
    expr: RelExpr


Request = Union[GetPO, GetAO, GetConcept, Trigger, Query]


@record
class Response:
    ok: bool
    value: object = None
    error_kind: str | None = None
    message: str | None = None


@record
class AuditEntry:
    stage: int
    kind: str
    target: str
    outcome: str

    def line(self) -> str:
        return f"{self.stage}\t{self.kind}\t{self.target}\t{self.outcome}"


class Exchange:
    """Uniform request dispatcher over one evolving workspace.

    Every request/response pair lands in the audit log with the stage the
    request ran at.  Missing objects yield NotFound responses, not errors.
    """

    def __init__(self, state: Workspace):
        self.state = state
        self.audit: list[AuditEntry] = []

    def dispatch(self, request: Request) -> Response:
        if not isinstance(request, (GetPO, GetAO, GetConcept, Trigger, Query)):
            raise UnknownRequestKind(
                f"unknown request kind {type(request).__name__!r}"
            )
        kind = type(request).__name__
        stage = self.state.stage
        target = self._target(request)
        try:
            response = self._handle(request)
        except DodlError as exc:
            response = Response(
                False, error_kind=type(exc).__name__, message=str(exc)
            )
        outcome = "ok" if response.ok else response.error_kind
        self.audit.append(AuditEntry(stage, kind, target, outcome))
        return response

    @staticmethod
    def _target(request: Request) -> str:
        if isinstance(request, Trigger):
            return f"{request.po_name}[{request.index.text}]"
        if isinstance(request, Query):
            from .lang.printer import format_relexpr

            return format_relexpr(request.expr)
        return request.name

    def _handle(self, request: Request) -> Response:
        if isinstance(request, GetPO):
            return self._lookup(self.state.potentials, request.name)
        if isinstance(request, GetAO):
            return self._lookup(self.state.ao_library, request.name)
        if isinstance(request, GetConcept):
            registry = self.state.concepts
            if request.name in registry:
                return Response(True, registry.get(request.name))
            return self._not_found(request.name)
        if isinstance(request, Trigger):
            self.state, ao = trigger(self.state, request.po_name, request.index)
            return Response(True, ao)
        result = eval_query(request.expr, self.state.relations)
        return Response(True, result)

    @staticmethod
    def _lookup(registry, name) -> Response:
        if name in registry:
            return Response(True, registry[name])
        return Exchange._not_found(name)

    @staticmethod
    def _not_found(name: str) -> Response:
        return Response(False, error_kind="NotFound",
                        message=f"{name!r} is not present")

    def audit_text(self) -> str:
        """One tab-separated line per exchange, in dispatch order."""
        return "".join(entry.line() + "\n" for entry in self.audit)
