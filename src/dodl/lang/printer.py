"""Canonical printer: the bit-exact dump format.

One statement per line.  Blocks come in dependency order (sorts, domains,
relations, filters, potentials, concepts, diagrams, scripts, evolvents), the
order of the one table ``_BLOCKS``; names sort lexicographically within a
block, except concepts, which come in topological order (parents first) with
lexicographic ties so inheritance reads top-down.  Atoms and tuples sort
numerically or byte-wise per kind.  Loading a dump and dumping again
reproduces the same bytes.

Only ``dump``, query output and audit targets load this module;
``format_atom_set`` is defined in :mod:`dodl.diagrams` and re-exported.
"""

from __future__ import annotations

import heapq
from operator import attrgetter

from ..core import Atom, Domain, PotentialObject, Sort
from ..diagrams import (
    COMBINATOR_WORDS,
    EXPR,
    And,
    Const,
    DiagramExpr,
    DiagramSpec,
    Eq,
    FalsePred,
    Filter,
    FilterRef,
    Input,
    Member,
    Not,
    Or,
    Predicate,
    TruePred,
    Var,
    Wildcard,
    format_atom_set,
    format_list,
)
from ..evolver import EventScript, Evolvent, Workspace
from ..meta import Concept, ConceptRegistry
from ..relation import (
    OPERATOR_WORDS,
    OracleExpr,
    Project,
    RelExpr,
    Relation,
    RelName,
    Select,
    TermIdent,
    format_row,
)


def _values(node) -> list:
    """A record's field values, in field order."""
    return [getattr(node, f.name) for f in node.fields]


def format_term(term) -> str:
    if isinstance(term, Wildcard):
        return "_"
    if isinstance(term, Var):
        return term.name
    if isinstance(term, TermIdent):
        return term.name
    return term.atom.text


def format_predicate(pred: Predicate) -> str:
    if isinstance(pred, TruePred):
        return "true"
    if isinstance(pred, FalsePred):
        return "false"
    if isinstance(pred, Not):
        return "not " + format_predicate(pred.operand)
    if isinstance(pred, And):
        return f"({format_predicate(pred.left)} and {format_predicate(pred.right)})"
    if isinstance(pred, Or):
        return f"({format_predicate(pred.left)} or {format_predicate(pred.right)})"
    if isinstance(pred, Eq):
        return f"{format_term(pred.left)} = {format_term(pred.right)}"
    if isinstance(pred, Member):
        pattern = ", ".join(format_term(t) for t in pred.pattern)
        return f"member {pred.relation} ({pattern})"
    raise ValueError(f"unknown predicate node {pred!r}")


def format_diagram_expr(expr: DiagramExpr) -> str:
    if isinstance(expr, Input):
        return "input"
    if isinstance(expr, Var):
        return f"var {expr.name}"
    if isinstance(expr, Const):
        return f"const {expr.atom.text}"
    if isinstance(expr, FilterRef):
        return f"filter {expr.name}"
    word, kinds = COMBINATOR_WORDS.get(expr.__class__, (None, ()))
    if word is None:
        raise ValueError(f"unknown expression node {expr!r}")
    args = (format_diagram_expr(value) if kind == EXPR else value
            for kind, value in zip(kinds, _values(expr)))
    return f"{word}({', '.join(args)})"


def format_relexpr(expr: RelExpr) -> str:
    if isinstance(expr, RelName):
        return expr.name
    if isinstance(expr, Select):
        return (f"select {format_relexpr(expr.source)} "
                f"where {format_predicate(expr.pred)}")
    if isinstance(expr, Project):
        return (f"project {format_relexpr(expr.source)} "
                f"[{', '.join(expr.attrs)}]")
    if isinstance(expr, OracleExpr):
        return (f"oracle({format_relexpr(expr.source)}, {expr.index_attr} = "
                f"{expr.index_value.text}, {expr.target_attr})")
    word = OPERATOR_WORDS.get(expr.__class__)
    if word is None:
        raise ValueError(f"unknown query node {expr!r}")
    return f"{word}({', '.join(format_relexpr(side) for side in _values(expr))})"


def format_relation(relation: Relation, style: str = "text") -> str:
    """A relation as a header line plus one line per tuple."""
    if style == "tsv":
        text = attrgetter("text")
        lines = ["\t".join(relation.attribute_names)]
        lines += ["\t".join(map(text, row)) for row in relation.sorted_tuples()]
    else:
        lines = [", ".join(relation.attribute_names)]
        lines += [format_row(row) for row in relation.sorted_tuples()]
    return "\n".join(lines)


def format_query_result(result, style: str = "text") -> str:
    """Render a query outcome: a relation, or an atom set from the oracle."""
    if isinstance(result, Relation):
        return format_relation(result, style)
    if style == "tsv":
        return "\n".join(a.text for a in sorted(result, key=Atom.order_key))
    return format_atom_set(result)


def _sort_stmt(sort: Sort) -> str:
    return f"sort {sort.name} : {sort.kind};"


def _domain_stmt(domain: Domain) -> str:
    return f"domain {domain.name} : {domain.sort.name} = {format_atom_set(domain.elements)};"


def _relation_stmt(relation: Relation) -> str:
    attrs = ", ".join(f"{name} : {sort.name}" for name, sort in relation.attributes)
    body = format_list(format_row(row) for row in relation.sorted_tuples())
    return f"relation {relation.name} ({attrs}) = {body};"


def _filter_stmt(f: Filter) -> str:
    return (f"filter {f.name} ({f.index_var}, {f.candidate_var}) = "
            f"{format_predicate(f.body)};")


def _potential_stmt(po: PotentialObject) -> str:
    return (f"potential {po.name} carrier {po.carrier.name} "
            f"index {po.index_domain.name} filter {po.filter.name};")


def _concept_stmt(concept: Concept) -> str:
    head = f"concept {concept.name}"
    if concept.parents:
        head += " : " + ", ".join(concept.parents)
    items = []
    for attr in sorted(concept.own_attributes):
        items.append(f"attr {attr} = {concept.own_attributes[attr].text};")
    for event in concept.events:
        items.append(f"event {event};")
    for label, event in concept.menus:
        items.append(f"menu {label} -> {event};")
    if concept.encapsulated:
        items.append("encapsulated " + ", ".join(sorted(concept.encapsulated)) + ";")
    return f"{head} {format_list(items, separator=' ')};"


def _shape_text(parts: tuple[str, ...]) -> str:
    if len(parts) == 2:
        return f"pair({parts[0]}, {parts[1]})"
    return parts[0]


def _path_text(steps) -> str:
    return format_list(map(format_diagram_expr, steps), "[]")


def _diagram_stmt(spec: DiagramSpec) -> str:
    return (f"diagram {spec.name} entry {_shape_text(spec.entry.parts)} "
            f"path_a {_path_text(spec.path_a)} "
            f"path_b {_path_text(spec.path_b)} "
            f"exit {_shape_text(spec.exit.parts)};")


def _script_stmt(script: EventScript) -> str:
    steps = format_list((f"({po}, {index.text})" for po, index in script.steps),
                        "[]")
    return f"script {script.name} = {steps};"


def _evolvent_stmt(evolvent: Evolvent) -> str:
    if evolvent.script is not None:
        body = f"script {evolvent.script}"
    elif evolvent.parts:
        body = "compose(" + ", ".join(evolvent.parts) + ")"
    else:
        body = "identity"
    return f"evolvent {evolvent.name} = {body};"


def _concept_order(registry: ConceptRegistry) -> list[str]:
    """Topological order, parents before children, ties lexicographic."""
    names = registry.names()
    pending: dict[str, set[str]] = {}
    children: dict[str, list[str]] = {name: [] for name in names}
    for name in names:
        parents = {p for p in registry.get(name).parents if p in children}
        pending[name] = parents
        for parent in parents:
            children[parent].append(name)
    ready = [name for name in names if not pending[name]]
    heapq.heapify(ready)
    out = []
    while ready:
        name = heapq.heappop(ready)
        out.append(name)
        for child in children[name]:
            pending[child].discard(name)
            if not pending[child]:
                heapq.heappush(ready, child)
    return out


# The dump's blocks in dependency order: each workspace registry and the
# printer of its statements.
_BLOCKS = (
    ("sorts", _sort_stmt), ("domains", _domain_stmt),
    ("relations", _relation_stmt), ("filters", _filter_stmt),
    ("potentials", _potential_stmt), ("concepts", _concept_stmt),
    ("diagrams", _diagram_stmt), ("scripts", _script_stmt),
    ("evolvents", _evolvent_stmt),
)


def dump(workspace: Workspace) -> str:
    """Canonical text of all declarations in the workspace."""
    lines = []
    for field, statement in _BLOCKS:
        registry = getattr(workspace, field)
        names = (_concept_order(registry) if isinstance(registry, ConceptRegistry)
                 else sorted(registry))
        lines += [statement(registry.get(name)) for name in names]
    return "".join(line + "\n" for line in lines)
