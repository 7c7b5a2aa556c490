"""Foundational value types: atoms, sorts, domains, events and objects.

Everything here is immutable after construction. Derivation state lives in
:mod:`dodl.evolver`; this module only knows about single values.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable

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
_set_attribute = object.__setattr__


# The default of a Field that has none.
MISSING = object()


class Field:
    """One declared field of a :class:`Record`.

    A hidden field is kept out of ``__init__``, eq, hash and repr: its
    ``default``, its ``default_factory`` or the class's ``__post_init__``
    gives it its value.
    """

    __slots__ = ("name", "default", "default_factory", "hidden")

    def __init__(self, *, default=MISSING, default_factory: Callable | None = None,
                 hidden: bool = False):
        self.name = ""
        self.default = default
        self.default_factory = default_factory
        self.hidden = hidden


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """Base of the value and syntax classes, which :func:`record` makes.

    ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` are built for
    each class from closures, with the meaning
    ``dataclasses.dataclass(frozen=True)`` gives them:

    - ``__init__`` takes the fields that are not hidden, by position or
      keyword, fills defaults, then runs the class's ``__post_init__``;
    - two records are equal when they are of the same class and their
      fields that are not hidden are equal; against another class ``==``
      returns ``NotImplemented``;
    - the hash is ``hash`` of the tuple of those fields, and ``repr`` is
      ``Cls(a=..., b=...)``;
    - instances are immutable: assigning or deleting an attribute raises
      ``AttributeError``, so ``__post_init__`` normalizes a field through
      ``object.__setattr__``.

    :attr:`fields` lists the fields in declaration order, and
    :meth:`replace` copies a record with some fields changed.  The fields
    are read from the class body's ``__annotations__`` dict, so a module
    that declares records starts with ``from __future__ import
    annotations``; where annotations are evaluated lazily (PEP 649) and no
    such dict exists, :func:`record` raises ``TypeError``.
    """

    __slots__ = ()
    fields: tuple[Field, ...] = ()

    def replace(self, **changes):
        """A copy with ``changes`` applied, like ``dataclasses.replace``."""
        for f in self.fields:
            if not f.hidden and f.name not in changes:
                changes[f.name] = getattr(self, f.name)
        return self.__class__(**changes)


def record(cls):
    """Makes ``cls`` a :class:`Record`: slots and methods from its fields.

    Fields are the class body's annotations, each with an optional default
    value or :class:`Field`.  Slots need the fields before the class
    exists, so the decorator builds the class anew from the body's
    namespace, as ``dataclass(slots=True)`` does.  A metaclass could add
    them up front, but every ``isinstance`` test against a class with a
    metaclass other than ``type`` takes a slow path, about three times
    slower on CPython 3.11 for an object of another class.
    """
    namespace = dict(cls.__dict__)
    name = cls.__name__
    if cls.__bases__ != (object,):
        raise TypeError(f"record {name} may not derive from another class: "
                        f"fields are not inherited")
    if "__annotations__" not in namespace and (
            "__annotate__" in namespace or "__annotate_func__" in namespace):
        # Lazily evaluated annotations (PEP 649) keep no dict to read.
        raise TypeError(f"record {name} needs "
                        f"'from __future__ import annotations' in its module")
    fields = []
    for field_name in namespace.get("__annotations__", {}):
        spec = namespace.pop(field_name, MISSING)
        if not isinstance(spec, Field):
            spec = Field(default=spec)
        spec.name = field_name
        fields.append(spec)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = tuple(f.name for f in fields)
    namespace["__qualname__"] = cls.__qualname__
    cls = type(name, (Record,), namespace)
    cls.fields = tuple(fields)
    _add_methods(cls, fields)
    return cls


def _add_methods(cls, fields):
    shown = [f for f in fields if not f.hidden]
    names = tuple(f.name for f in shown)
    if len(names) == 1:
        get = attrgetter(names[0])
        values = lambda self: (get(self),)  # noqa: E731
    else:
        values = attrgetter(*names) if names else lambda self: ()
    # Each field is set through its slot's own setter, which is quicker
    # than object.__setattr__ by name and skips the refusing __setattr__.
    setters = tuple(cls.__dict__[name].__set__ for name in names)
    # Hidden fields with a default; the others are left to __post_init__.
    made = tuple((cls.__dict__[f.name].__set__, f.default, f.default_factory)
                 for f in fields if f.hidden
                 and (f.default is not MISSING or f.default_factory is not None))
    post_init = cls.__dict__.get("__post_init__")
    count = len(names)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        """Positional and keyword arguments as one value per shown field."""
        if len(args) > count:
            raise TypeError(f"{qualname}() takes {count} positional "
                            f"arguments but {len(args)} were given")
        bound = list(args)
        for f in shown[len(args):]:
            if f.name in kwargs:
                bound.append(kwargs.pop(f.name))
            elif f.default_factory is not None:
                bound.append(f.default_factory())
            elif f.default is not MISSING:
                bound.append(f.default)
            else:
                raise TypeError(f"{qualname}() missing argument {f.name!r}")
        if kwargs:
            raise TypeError(f"{qualname}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        return bound

    # The loop over the setters costs more than the stores themselves, so
    # records of one or two fields and nothing else to do, such as the
    # values a diagram check builds for every entry, get it unrolled.
    plain = not made and post_init is None
    if plain and count == 1:
        (set_first,) = setters

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 1:
                args = bind(args, kwargs)
            set_first(self, args[0])
    elif plain and count == 2:
        set_first, set_second = setters

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 2:
                args = bind(args, kwargs)
            first, second = args
            set_first(self, first)
            set_second(self, second)
    else:
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = bind(args, kwargs)
            for setter, value in zip(setters, args):
                setter(self, value)
            for setter, default, factory in made:
                setter(self, default if factory is None else factory())
            if post_init is not None:
                post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values(self))
        ) + ")"

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__.
        return self.__class__, values(self)

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__reduce__": __reduce__, "__hash__": lambda self: hash(values(self)),
               "__setattr__": _refuse_set, "__delattr__": _refuse_delete}
    for name, method in methods.items():
        setattr(cls, name, method)


class Atom:
    """A flat element value: a symbol or a base-10 integer.

    Written out by hand rather than as a :class:`Record`: atoms are built,
    hashed and compared in every tuple, probe and filter, where the record
    base's generic closures would cost about twice as much per call.  The
    methods keep the record meaning: equal text and kind,
    ``hash((text, kind))``, immutable.  The hash is computed once, in
    ``__init__``, and kept in a third slot that is not a field.
    """

    __slots__ = ("text", "kind", "_hash")

    def __init__(self, text: str, kind: str):
        if kind not in KINDS:
            raise DefinitionError(f"unknown atom kind {kind!r}")
        if not text:
            raise ReservedCharacter("atom text must be nonempty")
        if not text.isascii():
            # isdigit() accepts digits of other scripts, which int() rejects
            # ("²") or folds into another atom's text ("١٢" -> "12").
            raise ReservedCharacter(
                f"atom {text!r} contains a non-ASCII character"
            )
        if not _FORBIDDEN_IN_ATOM.isdisjoint(text):
            ch = next(ch for ch in text if ch in _FORBIDDEN_IN_ATOM)
            raise ReservedCharacter(
                f"atom {text!r} contains reserved character {ch!r}"
            )
        if kind == NUMERIC:
            if not text.isdigit():
                raise ReservedCharacter(
                    f"numeric atom {text!r} is not a base-10 integer"
                )
            # Canonical form: no leading zeros, so "007" and "7" are one atom.
            # Stripped as text: int() refuses more than 4300 digits.
            text = text.lstrip("0") or "0"
        elif text[0].isdigit():
            raise ReservedCharacter(
                f"symbolic atom {text!r} may not begin with a digit"
            )
        _set_attribute(self, "text", text)
        _set_attribute(self, "kind", kind)
        _set_attribute(self, "_hash", hash((text, kind)))

    def __eq__(self, other):
        if other.__class__ is Atom:
            return self.text == other.text and self.kind == other.kind
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Atom(text={self.text!r}, kind={self.kind!r})"

    def __reduce__(self):
        # copy and pickle rebuild an atom through __init__.
        return Atom, (self.text, self.kind)

    __setattr__ = _refuse_set
    __delattr__ = _refuse_delete

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
        # Numeric atoms order by integer value, symbolic ones byte-wise.  A
        # canonical numeral with more digits is the larger number.
        if self.kind == NUMERIC:
            return (0, len(self.text), self.text)
        return (1, 0, self.text)

    def __str__(self):
        return self.text


def symbol(text: str) -> Atom:
    return Atom(text, SYMBOLIC)


def number(value: int) -> Atom:
    return Atom(str(value), NUMERIC)


@record
class Sort:
    """A generic type; domains and relation attributes refer to one."""

    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DefinitionError(f"unknown sort kind {self.kind!r}")


@record
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


@record
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


@record
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


@record
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
