"""Concepts: metadata objects in a partial order with attribute inheritance.

Ancestor concepts hold attributes, events and menus; descendants inherit
them and may override attributes.  Lookup is depth-first in parent
declaration order, nearest definition first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Atom
from .errors import (
    CycleDetected,
    DuplicateName,
    EncapsulationViolation,
    UnknownAttribute,
    not_defined,
)


def find_cycle(roots, successors) -> list[str] | None:
    """The first cycle a depth-first walk from ``roots`` meets, or None.

    ``successors(name)`` gives a node's out-edges in visiting order (empty
    for a name outside the graph).  A cycle comes back closed, as
    ``[a, b, ..., a]``.  Each node is finished once and the walk keeps its
    own stack, so it takes time linear in the edges it follows and no
    recursion (Tarjan, SIAM J. Comput. 1(2), 1972).
    """
    path: list[str] = []
    position: dict[str, int] = {}
    finished: set[str] = set()
    pending = [iter(roots)]  # the roots, then one edge iterator per path node
    while pending:
        name = next(pending[-1], None)
        if name is None:
            pending.pop()
            if path:
                done = path.pop()
                del position[done]
                finished.add(done)
        elif name in position:
            return path[position[name]:] + [name]
        elif name not in finished:
            position[name] = len(path)
            path.append(name)
            pending.append(iter(successors(name)))
    return None


@dataclass(frozen=True)
class Concept:
    """A metadata object node.

    ``parents`` keeps declaration order (it drives lookup); the other
    collections are normalized to canonical order so equal declarations
    compare equal regardless of how they were written.
    """

    name: str
    parents: tuple[str, ...] = ()
    own_attributes: dict[str, Atom] = field(default_factory=dict)
    events: tuple[str, ...] = ()
    menus: tuple[tuple[str, str], ...] = ()
    encapsulated: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "own_attributes", dict(self.own_attributes))
        object.__setattr__(self, "events", tuple(sorted(set(self.events))))
        object.__setattr__(self, "menus", tuple(sorted(set(self.menus))))
        object.__setattr__(self, "encapsulated", frozenset(self.encapsulated))
        if len(set(self.parents)) != len(self.parents):
            raise DuplicateName(f"concept {self.name!r} repeats a parent")


class ConceptRegistry:
    """Single-writer registry of concepts.

    Reads never change the concepts it holds; they may fill a cache, which
    every :meth:`add` empties.
    """

    def __init__(self):
        self._concepts: dict[str, Concept] = {}
        # Every name some registered concept lists as a parent.
        self._named_parents: set[str] = set()
        # (concept, attribute) -> whether the concept or a registered
        # ancestor defines the attribute.  An addition can give registered
        # concepts new ancestors, so add() empties it.
        self._defines: dict[tuple[str, str], bool] = {}

    def __eq__(self, other):
        return isinstance(other, ConceptRegistry) and \
            self._concepts == other._concepts

    def __contains__(self, name: str) -> bool:
        return name in self._concepts

    def __len__(self) -> int:
        return len(self._concepts)

    def names(self) -> list[str]:
        return sorted(self._concepts)

    def get(self, name: str) -> Concept:
        try:
            return self._concepts[name]
        except KeyError:
            raise not_defined("concept", name) from None

    def add(self, concept: Concept) -> Concept:
        """Register a concept; rejects duplicate names and parent cycles.

        Parents may be declared later (forward references); a cycle is
        rejected at whichever registration closes it.
        """
        if concept.name in self._concepts:
            raise DuplicateName(f"concept {concept.name!r} is already defined")
        self._concepts[concept.name] = concept
        # Any cycle the addition closes passes through the new node, and so
        # through an edge into it: none exists unless a registered concept,
        # the new one included, names it as a parent.  Walking parent edges
        # from the new node alone then finds the cycle.
        if concept.name in self._named_parents or concept.name in concept.parents:
            concepts = self._concepts
            cycle = find_cycle(
                (concept.name,),
                lambda name: concepts[name].parents if name in concepts else (),
            )
            if cycle is not None:
                del self._concepts[concept.name]
                raise CycleDetected(
                    "concept inheritance cycle: " + " -> ".join(cycle)
                )
        self._named_parents.update(concept.parents)
        self._defines.clear()
        return concept

    def derive(self, apo: str, dpo_name: str, overrides: dict[str, Atom]) -> Concept:
        """Create and register a descendant of ``apo`` with its own overrides.

        Events and menus are not copied; they stay reachable through the
        ancestor chain.
        """
        if apo not in self._concepts:
            raise not_defined("concept", apo)
        return self.add(Concept(dpo_name, (apo,), dict(overrides)))

    def ancestors(self, name: str) -> list[str]:
        """Depth-first, declaration-order ancestor names, first visit kept.

        One parent iterator per concept on the path, on an explicit stack.
        """
        out: list[str] = []
        seen = {name}
        pending = [iter(self.get(name).parents)]
        while pending:
            parent = next(pending[-1], None)
            if parent is None:
                pending.pop()
            elif parent not in seen:
                seen.add(parent)
                out.append(parent)
                pending.append(iter(self.get(parent).parents))
        return out

    def _lineage(self, name: str) -> list[str]:
        return [name] + self.ancestors(name)

    def effective_encapsulated(self, name: str) -> frozenset[str]:
        hidden: set[str] = set()
        for node in self._lineage(name):
            hidden |= self.get(node).encapsulated
        return frozenset(hidden)

    def resolve_attribute(self, name: str, attr: str, caller: str | None = None) -> Atom:
        """Nearest-definition attribute lookup with encapsulation checks.

        ``caller`` names the concept on whose behalf resolution runs; when
        absent the caller is external and sees no encapsulated attribute.
        """
        if attr in self.effective_encapsulated(name):
            allowed = caller == name or (
                caller in self._concepts and name in self.ancestors(caller)
            )
            if not allowed:
                raise EncapsulationViolation(
                    f"attribute {attr!r} of {name!r} is encapsulated"
                )
        for node in self._lineage(name):
            own = self.get(node).own_attributes
            if attr in own:
                return own[attr]
        raise UnknownAttribute(
            f"no ancestor of {name!r} defines attribute {attr!r}"
        )

    def effective_events(self, name: str) -> list[str]:
        out: list[str] = []
        for node in self._lineage(name):
            for event in self.get(node).events:
                if event not in out:
                    out.append(event)
        return out

    def effective_menus(self, name: str) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        labels: set[str] = set()
        for node in self._lineage(name):
            for label, event in self.get(node).menus:
                if label not in labels:
                    labels.add(label)
                    out.append((label, event))
        return out

    def validate(self) -> list[str]:
        """Registry-wide consistency problems as human-readable strings."""
        problems = []
        for name in sorted(self._concepts):
            concept = self._concepts[name]
            for parent in concept.parents:
                if parent not in self._concepts:
                    problems.append(
                        f"concept {name!r} inherits from unknown concept "
                        f"{parent!r}"
                    )
            problems.extend(self.encapsulation_problems(name))
        return problems

    def encapsulation_problems(self, name: str) -> list[str]:
        """One message per attribute ``name`` encapsulates but neither
        defines nor inherits, in attribute order; parents that are not
        registered are skipped."""
        return [
            f"concept {name!r} encapsulates undefined attribute {attr!r}"
            for attr in sorted(self._concepts[name].encapsulated)
            if not self._defines_in_lineage(name, attr)
        ]

    def _defines_in_lineage(self, name: str, attr: str) -> bool:
        """Whether ``name`` or a registered ancestor defines ``attr``.

        Each (concept, attribute) pair is decided once and cached, on an
        explicit stack: a concept waits on the stack until every registered
        parent is decided, unless its own or a decided parent's definition
        settles it first.
        """
        concepts, defines = self._concepts, self._defines
        stack = [name]
        while stack:
            node = stack[-1]
            if (node, attr) in defines:
                stack.pop()
                continue
            concept = concepts[node]
            parents = [p for p in concept.parents if p in concepts]
            if attr in concept.own_attributes or any(
                defines.get((p, attr)) for p in parents
            ):
                defines[node, attr] = True
            else:
                undecided = [p for p in parents if (p, attr) not in defines]
                if undecided:
                    stack.extend(undecided)
                    continue
                defines[node, attr] = False
            stack.pop()
        return defines[name, attr]
