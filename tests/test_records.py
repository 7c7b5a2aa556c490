"""The record base against the standard library's dataclasses.

Every value and syntax class is a ``core.Record`` (``Atom`` and ``Span`` are
written out by hand).  Each one is checked against ``reference_dataclass``, a
real dataclass with the same fields: construction by position and keyword,
defaults, equality, hash, repr, the slots that are no field and immutability.
The values are every record reached from a loaded workspace and a parsed
source that use each class, plus random values for the classes with no
``__post_init__``.
A ``Span`` stores token indexes and works its fields out when read; it is
checked against a dataclass of those fields, summed from its text.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEACHING
from dodl import core
from dodl.core import MISSING, Atom, Field, Record, symbol
from dodl.checker import check_commutes, enumerate_entry
from dodl.diagrams import Const, FilterRef, IndexShift
from dodl.evolver import Exchange, Query, Trigger
from dodl.lang import load_texts, parse, parse_query
from dodl.lang.syntax import Diagnostic, Span
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
    if isinstance(value, (Record, Atom, Span)):
        if value in found.setdefault(type(value), []):
            return
        found[type(value)].append(value)
        if not isinstance(value, Record):
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
    requests = [Trigger("Tch", symbol("Informatics")),
                Trigger("Tch", symbol("Algebra")),
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


SPAN_FIELDS = ["line", "col", "start", "end", "path"]
SpanReference = dataclasses.make_dataclass("Span", SPAN_FIELDS, frozen=True)


def eager(span: Span) -> SpanReference:
    """The record the parser once stored for ``span``: its offsets summed
    from the pieces of its text, its line and column counted in it."""
    lines = span.lines
    piece_starts = list(accumulate(map(len, lines.pieces), initial=0))
    start = piece_starts[2 * span.first + 1]
    end = piece_starts[2 * span.last + 2]
    text = lines.text
    return SpanReference(text.count("\n", 0, start) + 1,
                         start - text.rfind("\n", 0, start), start, end,
                         lines.path)


def shown(cls):
    if cls is Atom:
        return ["text", "kind"]
    if cls is Span:
        return SPAN_FIELDS
    return [f.name for f in cls.fields]


def arguments(cls):
    """The names a value of ``cls`` is built from."""
    return list(Span.__slots__) if cls is Span else shown(cls)


def reference_of(record):
    """``record`` as a value of its reference dataclass."""
    if type(record) is Span:
        return eager(record)
    return REFERENCE[type(record)](*values(record, shown(type(record))))


def values(record, names):
    return [getattr(record, name) for name in names]


def attempt(fn, *args, **kwargs):
    """What a call returns, or the type of what it raises."""
    try:
        return fn(*args, **kwargs)
    except TypeError:
        return TypeError


def test_every_record_class_has_samples():
    assert set(SAMPLES) == {Atom, Span, *RECORDS}


@pytest.mark.parametrize("cls", [Atom, Span, *RECORDS], ids=lambda c: c.__qualname__)
def test_samples_match_the_reference(cls):
    names = arguments(cls)
    others = [x for other, xs in SAMPLES.items() if other is not cls for x in xs[:1]]
    for record in SAMPLES[cls]:
        args = values(record, names)
        ref = reference_of(record)
        assert cls(*args) == record
        assert cls(**dict(zip(names, args))) == record
        assert repr(record) == repr(ref)
        assert attempt(hash, record) == attempt(hash, ref) == \
            attempt(hash, cls(*args))
        for other in others:
            assert record.__eq__(other) is NotImplemented
            assert record != other
        assert copy.copy(record) == record
        if cls not in (Atom, Span):
            assert record.replace() == record
            assert record.replace() is not record


@pytest.mark.parametrize("cls", [Atom, Span, *RECORDS], ids=lambda c: c.__qualname__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = SAMPLES[cls][0]
    ref = reference_of(record)
    names = [f.name for f in getattr(cls, "fields", ())] or shown(cls)
    for target in (record, ref):
        for name in names + ["unknown"]:
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)


def test_spans_keep_the_meaning_of_their_record():
    # Construction, repr, hash, copy and refused fields are checked with
    # the records above; here the values, equality and the stored slots.
    spans = SAMPLES[Span]
    for span, neighbour in zip(spans, spans[1:] + spans[:1]):
        ref = eager(span)
        assert values(span, SPAN_FIELDS) == values(ref, SPAN_FIELDS)
        assert (span == neighbour) == (ref == eager(neighbour))
        assert pickle.loads(pickle.dumps(span)) == span
        for name in Span.__slots__:
            with pytest.raises(AttributeError):
                setattr(span, name, None)
            with pytest.raises(AttributeError):
                delattr(span, name)


def test_a_span_diagnostic_is_the_eager_one():
    for span in SAMPLES[Span]:
        ref = eager(span)
        for expected in ((), ("'x'", "identifier")):
            assert span.diagnostic("message", expected) == Diagnostic(
                "message", ref.line, ref.col, ref.start, ref.end, expected,
                ref.path)


def body_slots(cls):
    """The slots the class body declares, after the fields' own."""
    return cls.__slots__[len(cls.fields):]


@pytest.mark.parametrize("cls", [c for c in RECORDS if body_slots(c)],
                         ids=lambda c: c.__qualname__)
def test_body_slots_are_out_of_eq_hash_and_repr(cls):
    record = SAMPLES[cls][0]
    twin = cls(*values(record, shown(cls)))
    before = repr(record), hash(record)
    kept = {name: getattr(record, name) for name in body_slots(cls)}
    try:
        for name in kept:
            object.__setattr__(record, name, object())
        assert record == twin
        assert (repr(record), hash(record)) == before
    finally:
        for name, value in kept.items():
            object.__setattr__(record, name, value)


def has_default(f):
    return f.default is not MISSING or f.default_factory is not None


@pytest.mark.parametrize("cls", [c for c in RECORDS
                                 if any(has_default(f) for f in c.fields)],
                         ids=lambda c: c.__qualname__)
def test_defaults_match_the_reference(cls):
    reference = REFERENCE[cls]
    names = shown(cls)
    required = [f.name for f in cls.fields if not has_default(f)]
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
    __slots__ = ("d",)

    def __post_init__(self):
        object.__setattr__(self, "d", ("d", self.a))


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


def test_a_slot_the_body_declares_is_no_field():
    record = Sample(1, 0, ())
    assert Sample.__slots__ == ("a", "b", "c", "d")
    assert [f.name for f in Sample.fields] == ["a", "b", "c"]
    assert record.d == ("d", 1)
    assert attempt(Sample, 1, 0, (), "d") is TypeError
    assert attempt(Sample, 1, d="d") is TypeError
    twin = Sample(1, 0, ())
    object.__setattr__(twin, "d", "other")
    assert twin == record
    assert hash(twin) == hash(record)
    assert repr(twin) == repr(record) == "Sample(a=1, b=0, c=())"
    assert copy.copy(twin).d == twin.replace().d == ("d", 1)
    assert record.replace(a=2).d == ("d", 2)
    with pytest.raises(AttributeError):
        record.d = None
    # A single name may be given as a string, as for any class.
    alone = core.record(type("Alone", (), {"__annotations__": {"a": "object"},
                                           "__slots__": "z"}))
    assert alone.__slots__ == ("a", "z")


def test_lazily_evaluated_annotations_are_refused():
    # A class body with lazily evaluated annotations (PEP 649) keeps an
    # annotate function and no __annotations__ dict: no field to read.
    with pytest.raises(TypeError, match="from __future__ import annotations"):
        core.record(type("Lazy", (), {"__annotate__": lambda format: {}}))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Sample, Single, Couple]), st.data())
def test_every_field_option_matches_the_reference(cls, data):
    reference = reference_dataclass(cls, post_init="__post_init__" in vars(cls))
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
