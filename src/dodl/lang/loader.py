"""Two-pass loader: name collection, resolution/build, then commands.

Declarations may reference names declared later (or in another file of the
same batch); the loader collects every name first and resolves afterwards,
which is also what makes the canonical dump reloadable in block order.
Command statements run last, in textual order; trigger and query
statements go through a System Exchange, so they land in the audit log.
A check, dump or query statement imports the checker, the printer or
(through the exchange) the relational algebra when it runs, so a text
without such statements loads without them.
"""

from __future__ import annotations

from pathlib import Path
from stat import S_ISDIR, S_ISFIFO, S_ISREG

from ..core import Domain, Field, PotentialObject, Sort, not_in_domain, record
from ..diagrams import (
    DiagramSpec,
    Filter,
    Shape,
    arity_mismatch,
    expr_free_vars,
    format_actual,
)
from ..errors import CheckTooLarge, CycleDetected, DodlError, not_defined
from ..evolver import (
    EVOLVENT_STEP_LIMIT,
    EventScript,
    Evolvent,
    Exchange,
    Query,
    Trigger,
    Workspace,
    expanded_steps,
    too_many_steps,
)
from ..meta import Concept, ConceptRegistry
from ..relation import Relation
from .parser import parse
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
    SortDecl,
    SourceUnit,
    TriggerCmd,
)

# Each namespace of declared names: its declaration and the word messages
# use for it.
_NAMESPACES = {
    SortDecl: "sort",
    DomainDecl: "domain",
    RelationDecl: "relation",
    FilterDecl: "filter",
    PotentialDecl: "potential object",
    ConceptDecl: "concept",
    DiagramDecl: "diagram",
    ScriptDecl: "script",
    EvolventDecl: "evolvent",
}


@record
class LoadResult:
    """Outcome of a load: the exchange over the built workspace (if any),
    error diagnostics, informational notes, and command output blocks."""

    exchange: Exchange | None
    diagnostics: list[Diagnostic]
    notes: list[str] = Field(default_factory=list)
    outputs: list[str] = Field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exchange is not None and not self.diagnostics

    @property
    def workspace(self) -> Workspace | None:
        return self.exchange.state if self.exchange else None


class _Builder:
    def __init__(self, units: list[SourceUnit]):
        self.units = units
        self.diagnostics: list[Diagnostic] = []
        self.notes: list[str] = []
        self.decls: dict[type, dict[str, object]] = {cls: {} for cls in _NAMESPACES}

    # -- helpers -------------------------------------------------------------

    def complain(self, anchor, message: str):
        """Record an error diagnostic at an anchor (a Ref or a statement;
        anything carrying a span)."""
        self.diagnostics.append(anchor.span.diagnostic(message))

    def resolve(self, ref: Ref, names, kind: str) -> bool:
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
        for unit in self.units:
            for stmt in unit.statements:
                cls = type(stmt)
                if cls not in _NAMESPACES:
                    continue
                name = stmt.name.name
                if name in self.decls[cls]:
                    self.complain(stmt, f"{_NAMESPACES[cls]} {name!r} is already defined")
                else:
                    self.decls[cls][name] = stmt

    # -- pass 2: resolve and build ----------------------------------------------

    def build_workspace(self) -> Workspace | None:
        sorts = {}
        for name, decl in self.decls[SortDecl].items():
            sorts[name] = Sort(name, decl.kind)

        domains = {}
        for name, decl in self.decls[DomainDecl].items():
            if not self.resolve(decl.sort, sorts, "sort"):
                continue
            try:
                domain = Domain(name, sorts[decl.sort.name], decl.atoms)
            except DodlError as exc:
                self.complain(decl, str(exc))
                continue
            dropped = len(decl.atoms) - len(domain.elements)
            if dropped:
                self.notes.append(
                    f"domain {name}: dropped {dropped} duplicate atom(s)"
                )
            domains[name] = domain

        relations = {}
        for name, decl in self.decls[RelationDecl].items():
            found = [self.resolve(ref, sorts, "sort") for _, ref in decl.attributes]
            if not all(found):
                continue
            schema = [(attr, sorts[ref.name]) for attr, ref in decl.attributes]
            try:
                relation = Relation(name, schema, decl.rows)
            except DodlError as exc:
                self.complain(decl, str(exc))
                continue
            dropped = len(decl.rows) - len(relation.tuples)
            if dropped:
                self.notes.append(
                    f"relation {name}: dropped {dropped} duplicate tuple(s)"
                )
            relations[name] = relation

        filters = {}
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

        potentials = {}
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
        )

    def _build_concepts(self) -> ConceptRegistry:
        registry = ConceptRegistry()
        declared = self.decls[ConceptDecl]
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
            try:
                registry.add(Concept(name, parents, dict(decl.attributes),
                                     decl.events, decl.menus,
                                     frozenset(decl.encapsulated)))
            except DodlError as exc:
                # A repeated parent, or a cycle this declaration closes.
                self.complain(decl, str(exc))
        for name, decl in self.decls[ConceptDecl].items():
            if name in registry:
                for message in registry.encapsulation_problems(name):
                    self.complain(decl, message)
        return registry

    def _build_diagrams(self, domains, filters, potentials) -> dict[str, DiagramSpec]:
        diagrams = {}
        for name, decl in self.decls[DiagramDecl].items():
            found = [
                self.resolve(part, domains, "domain")
                for part in decl.entry + decl.exit if part.name != "bool"
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
        scripts = {}
        for name, decl in self.decls[ScriptDecl].items():
            found = [self.resolve_event(po_ref, index, potentials)
                     for po_ref, index in decl.steps]
            if all(found):
                steps = tuple((po_ref.name, index) for po_ref, index in decl.steps)
                scripts[name] = EventScript(name, steps)
        return scripts

    def _build_evolvents(self, scripts) -> dict[str, Evolvent]:
        evolvents = {}
        declared = self.decls[EvolventDecl]
        for name, decl in self.decls[EvolventDecl].items():
            if decl.script is not None:
                if self.resolve(decl.script, scripts, "script"):
                    evolvents[name] = Evolvent(name, script=decl.script.name)
            elif all([self.resolve(part, declared, "evolvent")
                      for part in decl.parts]):
                evolvents[name] = Evolvent(
                    name, parts=tuple(p.name for p in decl.parts))
        try:
            steps = expanded_steps(evolvents, scripts)
        except CycleDetected as exc:
            # Each evolvent built here was declared here.
            self.complain(self.decls[EvolventDecl][exc.cycle[0]], str(exc))
            return evolvents
        # Each evolvent whose count first passes the limit is reported; the
        # ones composed from it are not.
        over = {name for name in self.decls[EvolventDecl]
                if steps.get(name, 0) > EVOLVENT_STEP_LIMIT}
        for name, decl in self.decls[EvolventDecl].items():
            if name in over and over.isdisjoint(evolvents[name].parts):
                self.complain(decl, str(too_many_steps(name)))
        return evolvents

    def check(self) -> Workspace | None:
        """Collect, build, then check the command statements statically:
        the workspace, or None once any of it gave a diagnostic."""
        self.collect()
        workspace = self.build_workspace()
        if workspace is not None:
            self.validate_commands(workspace)
        return None if self.diagnostics else workspace

    # -- commands ----------------------------------------------------------------

    def run_commands(self, exchange: Exchange) -> list[str]:
        outputs = []
        for unit in self.units:
            for stmt in unit.statements:
                if isinstance(stmt, (TriggerCmd, QueryCmd)):
                    if isinstance(stmt, TriggerCmd):
                        request = Trigger(stmt.po.name, stmt.index)
                        show = format_actual
                    else:
                        from .printer import format_query_result

                        request, show = Query(stmt.expr), format_query_result
                    response = exchange.dispatch(request)
                    if response.ok:
                        outputs.append(show(response.value))
                    else:
                        self.complain(stmt, response.message)
                elif isinstance(stmt, CheckCmd):
                    from ..checker import check_commutes, enumerate_entry

                    spec = exchange.state.diagrams[stmt.diagram.name]
                    try:
                        entries = enumerate_entry(spec, exchange.state)
                    except CheckTooLarge as exc:
                        self.complain(stmt, str(exc))
                        continue
                    report = check_commutes(spec, entries, exchange.state)
                    outputs.append(f"{spec.name}: {report.summary()}")
                    if not report.commutes:
                        self.complain(
                            stmt,
                            f"diagram {spec.name!r} does not commute "
                            f"({report.summary()})",
                        )
                elif isinstance(stmt, DumpCmd):
                    from .printer import dump

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


def build(units: list[SourceUnit]) -> LoadResult:
    """Validate a batch of units and build the workspace they describe.

    Syntax errors suppress the semantic passes.  Command statements run
    only when every declaration checks out; a failing ``check`` command
    surfaces as a diagnostic on an otherwise loadable workspace.
    """
    syntax_errors = [d for unit in units for d in unit.errors]
    if syntax_errors:
        return LoadResult(None, syntax_errors)

    builder = _Builder(units)
    workspace = builder.check()
    if workspace is None:
        return LoadResult(None, builder.diagnostics, builder.notes)

    exchange = Exchange(workspace)
    outputs = builder.run_commands(exchange)
    return LoadResult(exchange, builder.diagnostics, builder.notes, outputs)


def validate(unit: SourceUnit) -> list[Diagnostic]:
    """Name resolution, arity, sort and acyclicity checks for one unit.

    An empty list means the unit would load.  Command statements are
    checked as :func:`build` checks them, but not run.
    """
    if unit.errors:
        return list(unit.errors)
    builder = _Builder([unit])
    builder.check()
    return builder.diagnostics


def load_texts(named_texts: list[tuple[str | None, str]]) -> LoadResult:
    units = [parse(text, path) for path, text in named_texts]
    return build(units)


def load_files(paths: list[str | Path]) -> LoadResult:
    """Load source files as :func:`load_texts` loads texts.

    A file that cannot be read (missing, a directory, not a regular file,
    not readable, not UTF-8, or a path holding a NUL character) is a
    diagnostic naming its path, and stops the build as a syntax error does.
    """
    units = []
    for path in paths:
        p = Path(path)
        name = str(p)
        try:
            mode = p.stat().st_mode
            if not (S_ISREG(mode) or S_ISDIR(mode)):
                # Refused unopened: reading a FIFO waits for a writer, and a
                # device such as /dev/zero may never end.
                units.append(_unreadable(name, "is a FIFO" if S_ISFIFO(mode)
                                         else "is not a regular file"))
                continue
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            # The whole file is decoded at once, so the error's offsets are
            # offsets into the file, and every byte before it decoded.
            prefix = exc.object[:exc.start].decode("utf-8")
            units.append(SourceUnit((), (Diagnostic(
                f"not UTF-8 text: {exc.reason}", prefix.count("\n") + 1,
                len(prefix) - prefix.rfind("\n"), exc.start, exc.end,
                path=name),)))
        except OSError as exc:
            units.append(_unreadable(
                name, (exc.strerror or type(exc).__name__).lower()))
        except ValueError as exc:
            # open() refuses a path holding a NUL character.
            units.append(_unreadable(name, str(exc)))
        else:
            units.append(parse(text, name))
    return build(units)


def _unreadable(path: str, reason: str) -> SourceUnit:
    return SourceUnit((), (Diagnostic(
        f"cannot read file: {reason}", 1, 1, 0, 0, path=path),))
