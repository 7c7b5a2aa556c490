import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dodl.core import (
    NUMERIC,
    SYMBOLIC,
    Atom,
    Domain,
    PotentialObject,
    Sort,
    actual_name,
    number,
    symbol,
)
from dodl import errors
from dodl.diagrams import Filter, TruePred
from dodl.errors import (
    DefinitionError,
    ReservedCharacter,
    SortMismatch,
)

NAME = Sort("Name", SYMBOLIC)
H = Sort("H", NUMERIC)


class TestAtom:
    def test_parse_classifies_by_leading_digit(self):
        assert Atom.parse("Johnes").kind == SYMBOLIC
        assert Atom.parse("20").kind == NUMERIC

    def test_numeric_text_is_canonical(self):
        assert Atom("007", NUMERIC).text == "7"
        assert Atom("007", NUMERIC) == number(7)

    @pytest.mark.parametrize("bad", ["", "a b", "x,y", "{x", "x}", "a(", ")b", "x;"])
    def test_reserved_characters_rejected(self, bad):
        with pytest.raises(ReservedCharacter):
            Atom(bad, SYMBOLIC)

    @pytest.mark.parametrize("ch", list("{}(),;\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "))
    def test_each_reserved_or_space_character_is_named(self, ch):
        text = f"a{ch}b"
        with pytest.raises(ReservedCharacter) as info:
            Atom(text, SYMBOLIC)
        assert str(info.value) == (
            f"atom {text!r} contains reserved character {ch!r}"
        )

    def test_first_offending_character_is_named(self):
        with pytest.raises(ReservedCharacter) as info:
            Atom("a;b c", SYMBOLIC)
        assert str(info.value) == "atom 'a;b c' contains reserved character ';'"

    def test_symbolic_may_not_start_with_digit(self):
        with pytest.raises(ReservedCharacter):
            Atom("2nd", SYMBOLIC)

    def test_non_integer_numeric_rejected(self):
        with pytest.raises(ReservedCharacter):
            Atom("twenty", NUMERIC)

    @pytest.mark.parametrize("text, kind", [
        ("\u00b22", NUMERIC),            # superscript two: isdigit, not int()
        ("\u0661\u0662", NUMERIC),       # Arabic-Indic digits, not 12
        ("Caf\u00e9", SYMBOLIC),
    ])
    def test_non_ascii_rejected(self, text, kind):
        with pytest.raises(ReservedCharacter):
            Atom(text, kind)
        with pytest.raises(ReservedCharacter):
            Atom.parse(text)

    def test_order_numeric_by_value_symbolic_bytewise(self):
        assert number(2).order_key() < number(10).order_key()
        assert symbol("Doe").order_key() < symbol("Smith").order_key()

    @given(st.lists(st.text("0123456789", min_size=1, max_size=40),
                    min_size=1, max_size=8))
    def test_numerals_keep_the_integer_text_and_order(self, numerals):
        atoms = [Atom(text, NUMERIC) for text in numerals]
        assert [a.text for a in atoms] == [str(int(t)) for t in numerals]
        assert [a.text for a in sorted(atoms, key=Atom.order_key)] == \
            [str(n) for n in sorted(int(t) for t in numerals)]

    def test_a_numeral_past_the_int_conversion_limit(self):
        long = Atom("0" + "1" * 5000, NUMERIC)
        assert long.text == "1" * 5000
        assert Atom("0000", NUMERIC).text == "0"
        assert sorted([long, number(7)], key=Atom.order_key) == [number(7), long]
        assert number(7).order_key() < long.order_key() < symbol("A").order_key()

    def test_the_kept_hash_is_the_record_hash_and_is_frozen(self):
        for atom in (symbol("Doe"), number(7), Atom("007", NUMERIC)):
            assert hash(atom) == hash((atom.text, atom.kind))
            assert hash(copy.copy(atom)) == hash(pickle.loads(pickle.dumps(atom))) \
                == hash(atom)
            assert "_hash" not in repr(atom)
            for name in ("text", "kind", "_hash"):
                with pytest.raises(AttributeError):
                    setattr(atom, name, None)
                with pytest.raises(AttributeError):
                    delattr(atom, name)
            assert hash(atom) == hash((atom.text, atom.kind))


class TestDomain:
    def test_four_teachers(self):
        domain = Domain(
            "Teach", NAME,
            [symbol("Johnes"), symbol("Smith"), symbol("Doe"), symbol("Jackson")],
        )
        assert len(domain.elements) == 4

    def test_duplicates_collapse(self):
        domain = Domain("Course", Sort("Course", SYMBOLIC),
                        [symbol("Logic"), symbol("Logic")])
        assert domain.elements == frozenset({symbol("Logic")})

    def test_numeric_domain(self):
        domain = Domain("Hours", H, [number(20), number(30)])
        assert len(domain.elements) == 2
        assert all(a.kind == NUMERIC for a in domain.elements)

    def test_kind_mismatch_raises(self):
        with pytest.raises(SortMismatch):
            Domain("Hours", H, [symbol("twenty")])

    def test_idempotent_over_existing_elements(self):
        domain = Domain("Teach", NAME, [symbol("Doe"), symbol("Smith")])
        assert Domain("Teach", NAME, domain.elements) == domain

    def test_sorted_elements_are_deterministic(self):
        domain = Domain("Hours", H, [number(30), number(20), number(7)])
        assert [a.text for a in domain.sorted_elements()] == ["7", "20", "30"]


class TestObjects:
    def _domains(self):
        teach = Domain("Teach", NAME, [symbol("Doe"), symbol("Smith")])
        course = Domain("Course", Sort("Course", SYMBOLIC), [symbol("Logic")])
        return teach, course

    def test_actual_name_is_deterministic(self):
        assert actual_name("Tch", symbol("Logic")) == "Tch_Logic"
        assert actual_name("Tch", number(20)) == "Tch_20"

    def test_potential_object_needs_distinct_domains(self):
        teach, course = self._domains()
        f = Filter("F", "i", "x", TruePred())
        PotentialObject("Tch", teach, course, f)
        with pytest.raises(DefinitionError):
            PotentialObject("Bad", teach, teach, f)


def error_classes(cls=errors.DodlError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


# Sample arguments of each error class with an __init__ of its own; every
# other class takes one message.
ERROR_ARGUMENTS = {
    errors.CycleDetected: ("concept inheritance", ["A", "B", "A"]),
    errors.ScriptError: ("S", 2, errors.UnknownScript("script 'x' is not defined")),
}


@pytest.mark.parametrize("cls", sorted(error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_survives_copy_and_pickle(cls):
    assert (cls.__init__ is Exception.__init__) != (cls in ERROR_ARGUMENTS)
    error = cls(*ERROR_ARGUMENTS.get(cls, ("a message",)))
    for twin in (copy.copy(error), pickle.loads(pickle.dumps(error))):
        assert type(twin) is cls
        assert str(twin) == str(error)
        # An error among the arguments compares by identity, so the
        # arguments are compared by their repr.
        assert repr(twin.args) == repr(error.args)


def test_a_script_error_keeps_its_parts_and_message():
    cause = errors.UnknownScript("script 'x' is not defined")
    error = errors.ScriptError("S", 2, cause)
    for twin in (error, copy.copy(error), pickle.loads(pickle.dumps(error))):
        assert str(twin) == "script 'S' failed at step 2: script 'x' is not defined"
        assert (twin.script, twin.step, str(twin.cause)) == ("S", 2, str(cause))
        assert type(twin.cause) is errors.UnknownScript
