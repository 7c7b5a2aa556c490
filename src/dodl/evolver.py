"""Event triggering, scripts, evolvents and the System Exchange dispatcher.

The workspace is an immutable snapshot; triggering an event returns a new
snapshot with one more actual object and the stage advanced by one.  Writers
serialize through an :class:`Exchange`, which also keeps the audit log.
"""

from __future__ import annotations

import sys
from typing import Union

from .core import (
    ActualObject,
    Atom,
    Domain,
    Field,
    PotentialObject,
    Sort,
    deferred,
    not_in_domain,
    record,
)
from .diagrams import DiagramSpec, Filter
# Kept a name of this module: perfbench/tracing.py wraps it here.
from .diagrams import run_filter  # noqa: F401
from .errors import (
    DefinitionError,
    DodlError,
    DuplicateName,
    ScriptError,
    UnknownRequestKind,
    not_defined,
)
from .meta import ConceptRegistry
from .relation import Relation, RelExpr

# The relational algebra loads on the first query; Exchange reads
# eval_query through this module, so a wrapper set on it is what runs.
__getattr__, __dir__ = deferred(__name__, {"eval_query": ".relational"})
_this = sys.modules[__name__]

@record
class EventScript:
    """An ordered list of (potential object, index) events."""

    name: str
    steps: tuple[tuple[str, Atom], ...]


@record
class Evolvent:
    """A named workspace transition: one script, a chain of evolvents run
    left to right, or, when it names neither, the identity."""

    name: str
    script: str | None = None
    parts: tuple[str, ...] = ()

    def __post_init__(self):
        if self.script is not None and self.parts:
            raise DefinitionError(
                f"evolvent {self.name!r} names both a script and a chain")


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

    def with_actual(self, ao: ActualObject) -> "Workspace":
        library = dict(self.ao_library)
        _store_actual(library, ao)
        return self.replace(ao_library=library, stage=self.stage + 1)


def _store_actual(library: dict[str, ActualObject], ao: ActualObject) -> None:
    """Put ``ao`` in ``library`` under its name, replacing an earlier entry
    of the same event.  Two potential objects can derive one name (``P`` at
    ``x_1`` and ``P_x`` at ``1`` both give ``P_x_1``): storing over the
    other's entry raises :class:`DuplicateName`, naming both events."""
    held = library.get(ao.name)
    if held is not None and held.po_name != ao.po_name:
        raise DuplicateName(
            f"actual object {ao.name!r} of event {_event_text(ao)} is already "
            f"held for event {_event_text(held)}")
    library[ao.name] = ao


def _event_text(ao: ActualObject) -> str:
    return f"({ao.po_name}, {ao.index.text})"


# ---------------------------------------------------------------------------
# Derivation


def get_potential(state: Workspace, po_name: str) -> PotentialObject:
    po = state.potentials.get(po_name)
    if po is None:
        raise not_defined("potential object", po_name)
    return po


def derive_actual(state: Workspace, po: PotentialObject, index: Atom) -> ActualObject:
    """The actual object ``po`` yields at ``index``, without touching state:
    one run of the filter's plan over the whole carrier."""
    if index not in po.index_domain:
        raise not_in_domain(index, po.index_domain)
    return ActualObject(po.name, index,
                        po.filter._test(index, po.carrier.elements, state))


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
    """Trigger the script's steps in order; all-or-nothing.

    The result equals a left fold of :func:`trigger` over the steps.  A
    trigger changes only the library and the stage, and derivation reads
    neither, so every step derives from ``state`` into one copy of the
    library, and one new workspace is made at the end.
    """
    script = state.scripts.get(script_name)
    if script is None:
        raise not_defined("script", script_name)
    library = dict(state.ao_library)
    for position, (po_name, index) in enumerate(script.steps, start=1):
        try:
            _store_actual(library, derive_actual(
                state, get_potential(state, po_name), index))
        except DodlError as exc:
            raise ScriptError(script_name, position, exc) from exc
    return state.replace(ao_library=library, stage=state.stage + len(script.steps))


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
        if evolvent.script is not None:
            current = run_script(current, evolvent.script)
        pending.extend(reversed(evolvent.parts))
    return current


# The most steps one evolvent may expand to.  apply_evolvent takes one step
# for each evolvent it runs, composed and identity ones included, and one
# for each trigger of the scripts it runs.  A short text of repeated
# compositions could otherwise ask for exponentially many; the largest
# evolvent of the tests, the generated workspaces and the benchmark
# workloads takes 1,203 steps.
EVOLVENT_STEP_LIMIT = 100_000


def expanded_steps(evolvents: dict[str, Evolvent],
                   scripts: dict[str, EventScript]) -> dict[str, int]:
    """The steps :func:`apply_evolvent` takes for each evolvent, counted
    only up to ``EVOLVENT_STEP_LIMIT + 1``.

    The composition graph must be acyclic.  A compose graph is a
    straight-line program, so one memoised pass counts its expansion
    without expanding it (Lohrey, Groups Complex. Cryptol. 4(2), 2012); the
    pass keeps its own stack.  A name that has no evolvent or script counts
    one step, the one that raises.
    """
    cap = EVOLVENT_STEP_LIMIT + 1
    steps: dict[str, int] = {}
    for root in evolvents:
        pending = [root]
        while pending:
            name = pending[-1]
            if name in steps:
                pending.pop()
                continue
            evolvent = evolvents.get(name)
            parts = evolvent.parts if evolvent is not None else ()
            missing = [part for part in parts if part not in steps]
            if missing:
                pending.extend(missing)
                continue
            pending.pop()
            script = scripts.get(evolvent.script) if evolvent is not None else None
            triggers = len(script.steps) if script is not None else 0
            steps[name] = min(cap, 1 + triggers + sum(steps[part] for part in parts))
    return steps


# ---------------------------------------------------------------------------
# System Exchange


@record
class Trigger:
    po_name: str
    index: Atom


@record
class Query:
    expr: RelExpr


Request = Union[Trigger, Query]


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
    request ran at.  A request that fails with a :class:`DodlError` yields
    a response naming the error's kind, not an exception.
    """

    def __init__(self, state: Workspace):
        self.state = state
        self.audit: list[AuditEntry] = []

    def dispatch(self, request: Request) -> Response:
        if isinstance(request, Trigger):
            target = f"{request.po_name}[{request.index.text}]"
        elif isinstance(request, Query):
            from .lang.printer import format_relexpr

            target = format_relexpr(request.expr)
        else:
            raise UnknownRequestKind(
                f"unknown request kind {type(request).__name__!r}"
            )
        stage = self.state.stage
        try:
            if isinstance(request, Trigger):
                self.state, value = trigger(self.state, request.po_name,
                                            request.index)
            else:
                value = _this.eval_query(request.expr, self.state.relations)
            response = Response(True, value)
        except DodlError as exc:
            response = Response(
                False, error_kind=type(exc).__name__, message=str(exc)
            )
        outcome = "ok" if response.ok else response.error_kind
        self.audit.append(AuditEntry(stage, type(request).__name__, target,
                                     outcome))
        return response

    def audit_text(self) -> str:
        """One tab-separated line per exchange, in dispatch order."""
        return "".join(entry.line() + "\n" for entry in self.audit)
