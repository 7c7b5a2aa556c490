"""The record base against the standard library's dataclasses.

Every value and syntax class is a ``core.Record`` (``Atom`` is written out by
hand).  Each one is checked against ``reference_dataclass``, a real dataclass
with the same fields: construction by position and keyword, defaults,
equality, hash, repr, the hidden fields and immutability.  The values are
every record reached from a loaded workspace and a parsed source that use
each class, plus random values for the classes with no ``__post_init__``.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEACHING
from dodl import core
from dodl.core import MISSING, Atom, Field, Record, symbol
from dodl.diagrams import (
    Const,
    FilterRef,
    IndexShift,
    check_commutes,
    enumerate_entry,
)
from dodl.evolver import Exchange, GetAO, GetConcept, GetPO, Query, Trigger
from dodl.lang import load_texts, parse, parse_query
from dodl.meta import ConceptRegistry
from reference import eval_expr, reference_dataclass

# The demo plus one statement for each syntax form the demo lacks.
EXTRA = """
filter Odd (i, x) = not (x = Smith or false) and true;
trigger Tch Logic;
check Fig4;
query oracle(Relationship1, Course = Logic, Name);
query union(project Relationship1 [Name], project Relationship1 [Name]);
query difference(select Relationship1 where Course = Logic,
                 join(Relationship1, Relationship1));
dump;
"""


def all_records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("dodl."):
            yield sub
        yield from all_records(sub)


RECORDS = sorted(all_records(), key=lambda cls: (cls.__module__, cls.__qualname__))
REFERENCE = {cls: reference_dataclass(cls) for cls in [Atom, *RECORDS]}


def walk(value, found):
    """Collect every record and atom reachable from ``value`` by class."""
    if isinstance(value, (Record, Atom)):
        if value in found.setdefault(type(value), []):
            return
        found[type(value)].append(value)
        if isinstance(value, Atom):
            return
        for f in value.fields:
            walk(getattr(value, f.name), found)
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            walk(item, found)
    elif isinstance(value, dict):
        for key, item in value.items():
            walk(key, found)
            walk(item, found)
    elif isinstance(value, ConceptRegistry):
        walk([value.get(name) for name in value.names()], found)
    elif isinstance(value, Exchange):
        walk(value.state, found)
        walk(value.audit, found)


def samples():
    text = TEACHING.read_text(encoding="utf-8") + EXTRA
    result = load_texts([("demo.dodl", text)])
    assert result.ok, [d.render() for d in result.diagnostics]
    ws = result.workspace
    requests = [GetPO("Tch"), GetAO("Ghost"), GetConcept("LogicPost"),
                Trigger("Tch", symbol("Informatics")),
                Query(parse_query("Relationship1"))]
    responses = [result.exchange.dispatch(request) for request in requests]
    spec = ws.diagrams["Fig4"]
    found = {}
    walk([
        requests,
        responses,
        parse(text, "demo.dodl"),
        result,
        load_texts([("bad.dodl", "domain D : Ghost = { a };")]),
        check_commutes(spec, enumerate_entry(spec, ws), ws),
        eval_expr(FilterRef("TchFilter"), ws),
        eval_expr(IndexShift("Tch", Const(symbol("Logic"))), ws),
    ], found)
    return found


SAMPLES = samples()


def shown(cls):
    if cls is Atom:
        return ["text", "kind"]
    return [f.name for f in cls.fields if not f.hidden]


def values(record, names):
    return [getattr(record, name) for name in names]


def attempt(fn, *args, **kwargs):
    """What a call returns, or the type of what it raises."""
    try:
        return fn(*args, **kwargs)
    except TypeError:
        return TypeError


def test_every_record_class_has_samples():
    assert set(SAMPLES) == {Atom, *RECORDS}


@pytest.mark.parametrize("cls", [Atom, *RECORDS], ids=lambda c: c.__qualname__)
def test_samples_match_the_reference(cls):
    reference = REFERENCE[cls]
    names = shown(cls)
    others = [x for other, xs in SAMPLES.items() if other is not cls for x in xs[:1]]
    for record in SAMPLES[cls]:
        args = values(record, names)
        ref = reference(*args)
        assert cls(*args) == record
        assert cls(**dict(zip(names, args))) == record
        assert repr(record) == repr(ref)
        assert attempt(hash, record) == attempt(hash, ref) == \
            attempt(hash, cls(*args))
        for other in others:
            assert record.__eq__(other) is NotImplemented
            assert record != other
        assert copy.copy(record) == record
        if cls is not Atom:
            assert record.replace() == record
            assert record.replace() is not record


@pytest.mark.parametrize("cls", [Atom, *RECORDS], ids=lambda c: c.__qualname__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = SAMPLES[cls][0]
    ref = REFERENCE[cls](*values(record, shown(cls)))
    names = [f.name for f in getattr(cls, "fields", ())] or shown(cls)
    for target in (record, ref):
        for name in names + ["unknown"]:
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if any(f.hidden for f in c.fields)],
                         ids=lambda c: c.__qualname__)
def test_hidden_fields_are_out_of_eq_hash_and_repr(cls):
    record = SAMPLES[cls][0]
    twin = cls(*values(record, shown(cls)))
    before = repr(record), hash(record)
    hidden = {f.name: getattr(record, f.name) for f in cls.fields if f.hidden}
    try:
        for name in hidden:
            object.__setattr__(record, name, object())
        assert record == twin
        assert (repr(record), hash(record)) == before
    finally:
        for name, value in hidden.items():
            object.__setattr__(record, name, value)


def has_default(f):
    return f.default is not MISSING or f.default_factory is not None


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if any(has_default(f) for f in c.fields
                                        if not f.hidden)],
                         ids=lambda c: c.__qualname__)
def test_defaults_match_the_reference(cls):
    reference = REFERENCE[cls]
    names = shown(cls)
    required = [f.name for f in cls.fields
                if not f.hidden and not has_default(f)]
    args = values(SAMPLES[cls][0], required)
    record, ref = cls(*args), reference(*args)
    assert values(record, names) == values(ref, names)
    again = cls(*args)
    for f in cls.fields:
        if f.default_factory is not None:
            assert getattr(record, f.name) is not getattr(again, f.name)


# -- random values -----------------------------------------------------------

HASHABLE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("ab", max_size=2),
    lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=2),
    max_leaves=4,
)
PLAIN = [cls for cls in RECORDS if "__post_init__" not in cls.__dict__]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PLAIN), st.data())
def test_random_values_match_the_reference(cls, data):
    reference = REFERENCE[cls]
    names = shown(cls)
    row = st.lists(HASHABLE, min_size=len(names), max_size=len(names))
    a = data.draw(row)
    b = data.draw(st.just(list(a)) | row)
    x, y, rx, ry = cls(*a), cls(*b), reference(*a), reference(*b)
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    assert repr(x) == repr(rx)
    assert cls(**dict(zip(names, a))) == x
    assert hash(x) == hash(rx)
    with pytest.raises(AttributeError):
        setattr(x, names[0] if names else "unknown", None)
    if names:
        name = data.draw(st.sampled_from(names))
        value = data.draw(HASHABLE)
        assert repr(x.replace(**{name: value})) == \
            repr(dataclasses.replace(rx, **{name: value}))


@core.record
class Sample:
    a: object
    b: object = 0
    c: list = Field(default_factory=list)
    d: object = Field(default="d", hidden=True)
    e: dict = Field(default_factory=dict, hidden=True)


# One and two fields take their own unrolled __init__.
@core.record
class Single:
    a: object = Field(default_factory=list)


@core.record
class Couple:
    a: object
    b: object = 0


def test_a_record_cannot_inherit_fields():
    with pytest.raises(TypeError):
        @core.record
        class Wider(Sample):
            f: object


def test_lazily_evaluated_annotations_are_refused():
    # A class body with lazily evaluated annotations (PEP 649) keeps an
    # annotate function and no __annotations__ dict: no field to read.
    with pytest.raises(TypeError, match="from __future__ import annotations"):
        core.record(type("Lazy", (), {"__annotate__": lambda format: {}}))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Sample, Single, Couple]), st.data())
def test_every_field_option_matches_the_reference(cls, data):
    reference = reference_dataclass(cls)
    names = [f.name for f in cls.fields]
    args = data.draw(st.lists(HASHABLE, max_size=len(shown(cls)) + 1))
    keys = data.draw(st.lists(st.sampled_from(names + ["z"]), unique=True))
    kwargs = {key: data.draw(HASHABLE) for key in keys}
    record = attempt(cls, *args, **kwargs)
    ref = attempt(reference, *args, **kwargs)
    if ref is TypeError:
        assert record is TypeError
        return
    assert values(record, names) == values(ref, names)
    assert repr(record) == repr(ref)
    assert attempt(hash, record) == attempt(hash, ref)
    again = cls(*args, **kwargs)
    assert again == record
    given = set(shown(cls)[:len(args)]) | set(kwargs)
    for f in cls.fields:
        if f.default_factory is not None and f.name not in given:
            assert getattr(again, f.name) is not getattr(record, f.name)
