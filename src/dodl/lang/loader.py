"""Two-pass loader: name collection, resolution/build, then commands.

Declarations may reference names declared later (or in another file of the
same batch); the loader collects every name first and resolves afterwards,
which is also what makes the canonical dump reloadable in block order.
Command statements run last, in textual order, through a System Exchange,
so their effects land in the audit log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..core import Domain, PotentialObject, Sort, not_in_domain
from ..diagrams import (
    DiagramSpec,
    Filter,
    Shape,
    arity_mismatch,
    check_commutes,
    enumerate_entry,
    expr_free_vars,
)
from ..errors import CycleDetected, DodlError, not_defined
from ..evolver import (
    EventScript,
    Evolvent,
    Exchange,
    Query,
    Trigger,
    Workspace,
)
from ..meta import Concept, ConceptRegistry, find_cycle
from ..relational import Relation
from .parser import parse
from .printer import dump, format_atom_set, format_query_result
from .syntax import (
    CheckCmd,
    ConceptDecl,
    Diagnostic,
    DiagramDecl,
    DomainDecl,
    DumpCmd,
    EvolventDecl,
    FilterDecl,
    PotentialDecl,
    QueryCmd,
    Ref,
    RelationDecl,
    ScriptDecl,
    ShapePart,
    SortDecl,
    SourceUnit,
    TriggerCmd,
)

# Each namespace of declared names: its declaration, the word messages use
# for it, and the Workspace field that holds what it declares.
_NAMESPACES = (
    (SortDecl, "sort", "sorts"),
    (DomainDecl, "domain", "domains"),
    (RelationDecl, "relation", "relations"),
    (FilterDecl, "filter", "filters"),
    (PotentialDecl, "potential object", "potentials"),
    (ConceptDecl, "concept", "concepts"),
    (DiagramDecl, "diagram", "diagrams"),
    (ScriptDecl, "script", "scripts"),
    (EvolventDecl, "evolvent", "evolvents"),
)


@dataclass
class LoadResult:
    """Outcome of a load: the exchange over the built workspace (if any),
    error diagnostics, informational notes, and command output blocks."""

    exchange: Exchange | None
    diagnostics: list[Diagnostic]
    notes: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exchange is not None and not self.diagnostics

    @property
    def workspace(self) -> Workspace | None:
        return self.exchange.state if self.exchange else None


class _Builder:
    def __init__(self, units: list[SourceUnit], base: Workspace | None):
        self.units = units
        self.base = base or Workspace.empty()
        self.diagnostics: list[Diagnostic] = []
        self.notes: list[str] = []
        self.decls: dict[type, dict[str, object]] = {
            cls: {} for cls, _, _ in _NAMESPACES
        }

    # -- helpers -------------------------------------------------------------

    def complain(self, anchor, message: str):
        """Record an error diagnostic at an anchor (a Ref, ShapePart or
        statement; anything carrying a span)."""
        span = anchor.span
        self.diagnostics.append(Diagnostic(
            message, span.line, span.col, span.start, span.end, (), span.path,
        ))

    def resolve(self, ref: Ref | ShapePart, names, kind: str) -> bool:
        """Whether ``names`` (a registry or a set of names) holds the name
        ``ref`` gives; if not, a diagnostic at ``ref`` says so."""
        if ref.name in names:
            return True
        self.complain(ref, str(not_defined(kind, ref.name)))
        return False

    def resolve_event(self, po_ref: Ref, index, potentials) -> bool:
        """Whether ``po_ref`` names a potential object whose index domain
        holds ``index``; if not, a diagnostic at ``po_ref`` says why."""
        if not self.resolve(po_ref, potentials, "potential object"):
            return False
        domain = potentials[po_ref.name].index_domain
        if index in domain:
            return True
        self.complain(po_ref, str(not_in_domain(index, domain)))
        return False

    # -- pass 1: collect names -------------------------------------------------

    def collect(self):
        namespace = {cls: (kind, field) for cls, kind, field in _NAMESPACES}
        for unit in self.units:
            for stmt in unit.statements:
                cls = type(stmt)
                if cls not in namespace:
                    continue
                kind, field = namespace[cls]
                name = stmt.name.name
                if name in self.decls[cls] or name in getattr(self.base, field):
                    self.complain(stmt, f"{kind} {name!r} is already defined")
                else:
                    self.decls[cls][name] = stmt

    # -- pass 2: resolve and build ----------------------------------------------

    def build_workspace(self) -> Workspace | None:
        sorts = dict(self.base.sorts)
        for name, decl in self.decls[SortDecl].items():
            sorts[name] = Sort(name, decl.kind)

        domains = dict(self.base.domains)
        for name, decl in self.decls[DomainDecl].items():
            if not self.resolve(decl.sort, sorts, "sort"):
                continue
            try:
                domain = Domain(name, sorts[decl.sort.name], frozenset(decl.atoms))
            except DodlError as exc:
                self.complain(decl, str(exc))
                continue
            dropped = len(decl.atoms) - len(domain.elements)
            if dropped:
                self.notes.append(
                    f"domain {name}: dropped {dropped} duplicate atom(s)"
                )
            domains[name] = domain

        relations = dict(self.base.relations)
        for name, decl in self.decls[RelationDecl].items():
            found = [self.resolve(ref, sorts, "sort") for _, ref in decl.attributes]
            if not all(found):
                continue
            schema = [(attr, sorts[ref.name]) for attr, ref in decl.attributes]
            try:
                relation = Relation(name, tuple(schema), frozenset(decl.rows))
            except DodlError as exc:
                self.complain(decl, str(exc))
                continue
            dropped = len(decl.rows) - len(relation.tuples)
            if dropped:
                self.notes.append(
                    f"relation {name}: dropped {dropped} duplicate tuple(s)"
                )
            relations[name] = relation

        filters = dict(self.base.filters)
        for name, decl in self.decls[FilterDecl].items():
            ok = True
            for ref, arity in decl.member_refs:
                if not self.resolve(ref, relations, "relation"):
                    ok = False
                elif arity != relations[ref.name].arity:
                    error = arity_mismatch(ref.name, arity, relations[ref.name].arity)
                    self.complain(ref, str(error))
                    ok = False
            if not ok:
                continue
            try:
                filters[name] = Filter(
                    name, decl.index_var, decl.candidate_var, decl.body
                )
            except DodlError as exc:
                self.complain(decl, str(exc))

        potentials = dict(self.base.potentials)
        for name, decl in self.decls[PotentialDecl].items():
            found = [
                self.resolve(decl.carrier, domains, "domain"),
                self.resolve(decl.index_domain, domains, "domain"),
                self.resolve(decl.filter, filters, "filter"),
            ]
            if not all(found):
                continue
            try:
                potentials[name] = PotentialObject(
                    name,
                    domains[decl.carrier.name],
                    domains[decl.index_domain.name],
                    filters[decl.filter.name],
                )
            except DodlError as exc:
                self.complain(decl.index_domain, str(exc))

        concepts = self._build_concepts()
        diagrams = self._build_diagrams(domains, filters, potentials)
        scripts = self._build_scripts(potentials)
        evolvents = self._build_evolvents(scripts)

        if self.diagnostics:
            return None
        return Workspace(
            sorts=sorts,
            domains=domains,
            relations=relations,
            filters=filters,
            potentials=potentials,
            concepts=concepts,
            diagrams=diagrams,
            scripts=scripts,
            evolvents=evolvents,
            ao_library=dict(self.base.ao_library),
            stage=self.base.stage,
        )

    def _build_concepts(self) -> ConceptRegistry:
        registry = ConceptRegistry()
        for name in self.base.concepts.names():
            registry.add(self.base.concepts.get(name))
        declared = set(self.decls[ConceptDecl]) | set(self.base.concepts.names())
        for name, decl in self.decls[ConceptDecl].items():
            for parent in decl.parents:
                self.resolve(parent, declared, "concept")
            if any(p.name == name for p in decl.parents):
                self.complain(decl, f"concept {name!r} inherits from itself")
        # Register in declaration order; the registry rejects whichever
        # declaration closes a cycle.
        for name, decl in self.decls[ConceptDecl].items():
            parents = tuple(
                p.name for p in decl.parents
                if p.name in declared and p.name != name
            )
            concept = Concept(
                name,
                parents,
                dict(decl.attributes),
                decl.events,
                decl.menus,
                frozenset(decl.encapsulated),
            )
            try:
                registry.add(concept)
            except CycleDetected as exc:
                self.complain(decl, str(exc))
        for name, decl in self.decls[ConceptDecl].items():
            if name in registry:
                for message in registry.encapsulation_problems(name):
                    self.complain(decl, message)
        return registry

    def _build_diagrams(self, domains, filters, potentials) -> dict[str, DiagramSpec]:
        diagrams = dict(self.base.diagrams)
        for name, decl in self.decls[DiagramDecl].items():
            found = [
                self.resolve(part, domains, "domain")
                for part in decl.entry + decl.exit if not part.is_bool
            ]
            found += [self.resolve(ref, filters, "filter")
                      for ref in decl.filter_refs]
            found += [self.resolve(ref, potentials, "potential object")
                      for ref in decl.shift_refs]
            ok = all(found)
            for steps, which in ((decl.path_a, "path_a"), (decl.path_b, "path_b")):
                for step in steps:
                    unbound = expr_free_vars(step)
                    if unbound:
                        self.complain(
                            decl,
                            f"diagram {name!r} {which}: unbound variable(s) "
                            + ", ".join(sorted(unbound)),
                        )
                        ok = False
            if not ok:
                continue
            diagrams[name] = DiagramSpec(
                name,
                Shape(tuple(p.name for p in decl.entry)),
                decl.path_a,
                decl.path_b,
                Shape(tuple(p.name for p in decl.exit)),
            )
        return diagrams

    def _build_scripts(self, potentials) -> dict[str, EventScript]:
        scripts = dict(self.base.scripts)
        for name, decl in self.decls[ScriptDecl].items():
            found = [self.resolve_event(po_ref, index, potentials)
                     for po_ref, index in decl.steps]
            if all(found):
                steps = tuple((po_ref.name, index) for po_ref, index in decl.steps)
                scripts[name] = EventScript(name, steps)
        return scripts

    def _build_evolvents(self, scripts) -> dict[str, Evolvent]:
        evolvents = dict(self.base.evolvents)
        declared = set(self.decls[EvolventDecl]) | set(evolvents)
        for name, decl in self.decls[EvolventDecl].items():
            if decl.kind == "identity":
                evolvents[name] = Evolvent(name, "identity")
            elif decl.kind == "script":
                if not self.resolve(decl.script, scripts, "script"):
                    continue
                evolvents[name] = Evolvent(name, "script", script=decl.script.name)
            else:
                found = [self.resolve(part, declared, "evolvent")
                         for part in decl.parts]
                if all(found):
                    evolvents[name] = Evolvent(
                        name, "composed",
                        parts=tuple(p.name for p in decl.parts),
                    )
        cycle = find_cycle(
            sorted(evolvents),
            lambda name: evolvents[name].parts if name in evolvents else (),
        )
        if cycle is not None:
            decl = self.decls[EvolventDecl].get(cycle[0])
            anchor = decl if decl is not None else next(
                d for d in self.decls[EvolventDecl].values()
                if d.name.name in cycle
            )
            self.complain(
                anchor, "evolvent composition cycle: " + " -> ".join(cycle)
            )
        return evolvents

    # -- commands ----------------------------------------------------------------

    def run_commands(self, exchange: Exchange) -> list[str]:
        outputs = []
        for unit in self.units:
            for stmt in unit.statements:
                if isinstance(stmt, TriggerCmd):
                    response = exchange.dispatch(
                        Trigger(stmt.po.name, stmt.index)
                    )
                    if not response.ok:
                        self.complain(stmt, response.message or "trigger failed")
                    else:
                        ao = response.value
                        outputs.append(
                            f"{ao.name} = {format_atom_set(ao.elements)}"
                        )
                elif isinstance(stmt, QueryCmd):
                    response = exchange.dispatch(Query(stmt.expr))
                    if not response.ok:
                        self.complain(stmt, response.message or "query failed")
                    else:
                        outputs.append(format_query_result(response.value))
                elif isinstance(stmt, CheckCmd):
                    spec = exchange.state.diagrams[stmt.diagram.name]
                    report = check_commutes(
                        spec, enumerate_entry(spec, exchange.state),
                        exchange.state,
                    )
                    outputs.append(f"{spec.name}: {report.summary()}")
                    if not report.commutes:
                        self.complain(
                            stmt,
                            f"diagram {spec.name!r} does not commute "
                            f"({report.summary()})",
                        )
                elif isinstance(stmt, DumpCmd):
                    outputs.append(dump(exchange.state).rstrip("\n"))
        return outputs

    def validate_commands(self, workspace: Workspace):
        """Static checks for command statements against the built workspace."""
        for unit in self.units:
            for stmt in unit.statements:
                if isinstance(stmt, TriggerCmd):
                    self.resolve_event(stmt.po, stmt.index, workspace.potentials)
                elif isinstance(stmt, CheckCmd):
                    self.resolve(stmt.diagram, workspace.diagrams, "diagram")
                elif isinstance(stmt, QueryCmd):
                    for ref in stmt.relation_refs:
                        self.resolve(ref, workspace.relations, "relation")


def build(units: list[SourceUnit], base: Workspace | None = None) -> LoadResult:
    """Validate a batch of units and build the workspace they describe.

    Syntax errors suppress the semantic passes.  Command statements run
    only when every declaration checks out; a failing ``check`` command
    surfaces as a diagnostic on an otherwise loadable workspace.
    """
    syntax_errors = [d for unit in units for d in unit.errors]
    if syntax_errors:
        return LoadResult(None, syntax_errors)

    builder = _Builder(units, base)
    builder.collect()
    workspace = builder.build_workspace()
    if workspace is None:
        return LoadResult(None, builder.diagnostics, builder.notes)

    builder.validate_commands(workspace)
    if builder.diagnostics:
        return LoadResult(None, builder.diagnostics, builder.notes)

    exchange = Exchange(workspace)
    outputs = builder.run_commands(exchange)
    return LoadResult(exchange, builder.diagnostics, builder.notes, outputs)


def validate(unit: SourceUnit, workspace: Workspace | None = None) -> list[Diagnostic]:
    """Name resolution, arity, sort and acyclicity checks for one unit.

    An empty list means the unit would load against ``workspace``.
    Command statements are dry-run checked but not executed.
    """
    if unit.errors:
        return list(unit.errors)
    builder = _Builder([unit], workspace)
    builder.collect()
    built = builder.build_workspace()
    if built is not None:
        builder.validate_commands(built)
    return builder.diagnostics


def load_texts(named_texts: list[tuple[str | None, str]],
               base: Workspace | None = None) -> LoadResult:
    units = [parse(text, path) for path, text in named_texts]
    return build(units, base)


def load_files(paths: list[str | Path], base: Workspace | None = None) -> LoadResult:
    named = []
    for path in paths:
        p = Path(path)
        named.append((str(p), p.read_text(encoding="utf-8")))
    return load_texts(named, base)
