"""Foundational value types: atoms, sorts, domains and objects.

Everything here is immutable after construction. Derivation state lives in
:mod:`dodl.evolver`; this module only knows about single values.
"""

from __future__ import annotations

import importlib
import sys
from operator import attrgetter, is_
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
    """One declared field of a :class:`Record`."""

    __slots__ = ("name", "default", "default_factory")

    def __init__(self, *, default=MISSING, default_factory: Callable | None = None):
        self.name = ""
        self.default = default
        self.default_factory = default_factory


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    """Base of the value and syntax classes, which :func:`record` makes.

    ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` are built for
    each class from closures, with the meaning
    ``dataclasses.dataclass(frozen=True)`` gives them:

    - ``__init__`` takes the fields by position or keyword, fills
      defaults, then runs the class's ``__post_init__``;
    - two records are equal when they are of the same class and their
      fields are equal; against another class ``==`` returns
      ``NotImplemented``;
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
            if f.name not in changes:
                changes[f.name] = getattr(self, f.name)
        return self.__class__(**changes)


def record(cls):
    """Makes ``cls`` a :class:`Record`: slots and methods from its fields.

    Fields are the class body's annotations, each with an optional default
    value or :class:`Field`.  Names the body lists in ``__slots__`` are
    slots after the fields', out of ``__init__``, eq, hash, repr and
    :attr:`~Record.fields`.  Slots need the fields before the class exists,
    so the decorator builds the class anew from the body's namespace, as
    ``dataclass(slots=True)`` does.  A metaclass could add them up front,
    but every ``isinstance`` test against a class with a metaclass other
    than ``type`` takes a slow path, about three times slower on CPython
    3.11 for an object of another class.
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
    extra = namespace.pop("__slots__", ())
    extra = (extra,) if isinstance(extra, str) else tuple(extra)
    for slot in extra:
        del namespace[slot]  # the body class's descriptor
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    namespace["__slots__"] = tuple(f.name for f in fields) + extra
    namespace["__qualname__"] = cls.__qualname__
    cls = type(name, (Record,), namespace)
    cls.fields = tuple(fields)
    _add_methods(cls, fields)
    return cls


def _add_methods(cls, fields):
    names = tuple(f.name for f in fields)
    if len(names) == 1:
        get = attrgetter(names[0])
        values = lambda self: (get(self),)  # noqa: E731
    else:
        values = attrgetter(*names) if names else lambda self: ()
    # Each field is set through its slot's own setter, which is quicker
    # than object.__setattr__ by name and skips the refusing __setattr__.
    setters = tuple(cls.__dict__[name].__set__ for name in names)
    post_init = cls.__dict__.get("__post_init__")
    count = len(names)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        """Positional and keyword arguments as one value per field."""
        if len(args) > count:
            raise TypeError(f"{qualname}() takes {count} positional "
                            f"arguments but {len(args)} were given")
        bound = list(args)
        for f in fields[len(args):]:
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
    # records of up to six fields and nothing else to do get it unrolled:
    # the parser builds a ``Ref`` for every name it reads and a record for
    # each statement.  Two fields are stored as they are; a
    # record of one or of three to five fields pads the stores with
    # ``operator.is_``, which stores nothing.
    if post_init is None and count == 2:
        set_first, set_second = setters

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != 2:
                args = bind(args, kwargs)
            first, second = args
            set_first(self, first)
            set_second(self, second)
    elif post_init is None and 0 < count <= 6:
        set_1, set_2, set_3, set_4, set_5, set_6 = setters + (is_,) * (6 - count)
        padding = (None,) * (6 - count)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = tuple(bind(args, kwargs))
            a1, a2, a3, a4, a5, a6 = args + padding
            set_1(self, a1)
            set_2(self, a2)
            set_3(self, a3)
            set_4(self, a4)
            set_5(self, a5)
            set_6(self, a6)
    else:
        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = bind(args, kwargs)
            for setter, value in zip(setters, args):
                setter(self, value)
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

    def order_key(self):
        # Numeric atoms order by integer value, symbolic ones byte-wise.  A
        # canonical numeral with more digits is the larger number.
        if self.kind == NUMERIC:
            return (0, len(self.text), self.text)
        return (1, 0, self.text)


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
        # Checked in the order given, then frozen: the atom a fault names
        # does not depend on the iteration order of a set.
        elements = tuple(self.elements)
        for atom in elements:
            if atom.kind != self.sort.kind:
                raise SortMismatch(
                    f"atom {atom.text!r} is {atom.kind} but domain "
                    f"{self.name!r} has {self.sort.kind} sort {self.sort.name!r}"
                )
        object.__setattr__(self, "elements", frozenset(elements))

    def sorted_elements(self) -> list[Atom]:
        return sorted(self.elements, key=Atom.order_key)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.elements


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
    """The extension a potential object yields at one event: the choice of
    ``index`` from its index domain."""

    po_name: str
    index: Atom
    elements: frozenset[Atom]

    @property
    def name(self) -> str:
        return actual_name(self.po_name, self.index)

    def sorted_elements(self) -> list[Atom]:
        return sorted(self.elements, key=Atom.order_key)


def deferred(module_name: str, sources: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for module ``module_name``.

    ``sources`` maps each deferred name to its defining module, relative to
    the package.  The first read imports it and stores it in the module's
    globals, so a wrapper set there later is what callers get.  The module's
    own code reads it through the module object: a bare global read never
    reaches ``__getattr__``.
    """
    module = sys.modules[module_name]

    def __getattr__(name):
        source = sources.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source, module.__package__), name)
        setattr(module, name, value)
        return value

    def __dir__():
        return sorted(set(vars(module)) | set(sources))

    return __getattr__, __dir__
