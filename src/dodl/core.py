"""Foundational value types: atoms, sorts, domains, events and objects.

Everything here is immutable after construction. Derivation state lives in
:mod:`dodl.evolver`; this module only knows about single values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DefinitionError,
    IndexNotInDomain,
    ReservedCharacter,
    SortMismatch,
)

if TYPE_CHECKING:
    from .diagrams import Filter

SYMBOLIC = "symbolic"
NUMERIC = "numeric"
KINDS = (SYMBOLIC, NUMERIC)

# Characters with syntactic meaning in the definition language; they can
# never occur inside an atom.
RESERVED_CHARS = set("{}(),;")
# What an ASCII atom may not contain: the reserved characters plus every
# ASCII character for which str.isspace() holds.
_FORBIDDEN_IN_ATOM = frozenset(
    RESERVED_CHARS | {ch for ch in map(chr, range(128)) if ch.isspace()}
)


@dataclass(frozen=True)
class Atom:
    """A flat element value: a symbol or a base-10 integer."""

    text: str
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DefinitionError(f"unknown atom kind {self.kind!r}")
        if not self.text:
            raise ReservedCharacter("atom text must be nonempty")
        if not self.text.isascii():
            # isdigit() accepts digits of other scripts, which int() rejects
            # ("²") or folds into another atom's text ("١٢" -> "12").
            raise ReservedCharacter(
                f"atom {self.text!r} contains a non-ASCII character"
            )
        if not _FORBIDDEN_IN_ATOM.isdisjoint(self.text):
            ch = next(ch for ch in self.text if ch in _FORBIDDEN_IN_ATOM)
            raise ReservedCharacter(
                f"atom {self.text!r} contains reserved character {ch!r}"
            )
        if self.kind == NUMERIC:
            if not self.text.isdigit():
                raise ReservedCharacter(
                    f"numeric atom {self.text!r} is not a base-10 integer"
                )
            # Canonical form: no leading zeros, so "007" and "7" are one atom.
            object.__setattr__(self, "text", str(int(self.text)))
        elif self.text[0].isdigit():
            raise ReservedCharacter(
                f"symbolic atom {self.text!r} may not begin with a digit"
            )

    @staticmethod
    def parse(text: str) -> Atom:
        """Classify ``text`` as numeric (all digits) or symbolic."""
        kind = NUMERIC if text[:1].isdigit() else SYMBOLIC
        return Atom(text, kind)

    @property
    def value(self) -> int:
        if self.kind != NUMERIC:
            raise SortMismatch(f"atom {self.text!r} is not numeric")
        return int(self.text)

    def order_key(self):
        # Numeric atoms order by integer value, symbolic ones byte-wise.
        if self.kind == NUMERIC:
            return (0, int(self.text), "")
        return (1, 0, self.text)

    def __str__(self):
        return self.text


def symbol(text: str) -> Atom:
    return Atom(text, SYMBOLIC)


def number(value: int) -> Atom:
    return Atom(str(value), NUMERIC)


@dataclass(frozen=True)
class Sort:
    """A generic type; domains and relation attributes refer to one."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DefinitionError(f"unknown sort kind {self.kind!r}")


@dataclass(frozen=True)
class Domain:
    """A named finite set of atoms, all conforming to one sort."""

    name: str
    sort: Sort
    elements: frozenset[Atom]

    def __post_init__(self):
        object.__setattr__(self, "elements", frozenset(self.elements))
        for atom in self.elements:
            if atom.kind != self.sort.kind:
                raise SortMismatch(
                    f"atom {atom.text!r} is {atom.kind} but domain "
                    f"{self.name!r} has {self.sort.kind} sort {self.sort.name!r}"
                )

    def sorted_elements(self) -> list[Atom]:
        return sorted(self.elements, key=Atom.order_key)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.elements


@dataclass(frozen=True)
class Event:
    """The selection of one index atom out of an index domain."""

    index_atom: Atom
    index_domain: Domain

    def __post_init__(self):
        if self.index_atom not in self.index_domain:
            raise not_in_domain(self.index_atom, self.index_domain)


def not_in_domain(atom: Atom, domain: Domain) -> IndexNotInDomain:
    """The error for an index atom outside the domain it must come from."""
    return IndexNotInDomain(f"{atom.text!r} is not in domain {domain.name!r}")


@dataclass(frozen=True)
class PotentialObject:
    """An intensional object: candidates plus a filter, awaiting an index.

    No extension exists until an event fires; see :func:`dodl.evolver.trigger`.
    """

    name: str
    carrier: Domain
    index_domain: Domain
    filter: "Filter"

    def __post_init__(self):
        if self.carrier.name == self.index_domain.name:
            raise DefinitionError(
                f"potential object {self.name!r} must use distinct carrier "
                f"and index domains"
            )


def actual_name(po_name: str, index: Atom) -> str:
    """Canonical identity of a derived object: ``<po>_<index>``."""
    return f"{po_name}_{index.text}"


@dataclass(frozen=True)
class ActualObject:
    """The extension a potential object yields at one index."""

    name: str
    elements: frozenset[Atom]
    provenance: tuple[str, Event]

    def __post_init__(self):
        object.__setattr__(self, "elements", frozenset(self.elements))
        po_name, event = self.provenance
        if self.name != actual_name(po_name, event.index_atom):
            raise DefinitionError(
                f"actual object name {self.name!r} does not follow from its "
                f"provenance ({po_name!r}, {event.index_atom.text!r})"
            )

    def sorted_elements(self) -> list[Atom]:
        return sorted(self.elements, key=Atom.order_key)
