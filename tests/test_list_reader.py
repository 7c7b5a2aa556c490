"""The parser's two routes through a list: one slice at a time, and item by
item.

``Parser.read_list`` reads a domain's atoms, a relation's rows or a script's
steps in one step when the whole list fits the item's shape; otherwise the
per-item productions read it and report its faults.  Both routes must give
the same statements, the same diagnostics at the same offsets, the same
atom table and the same load, on clean texts and on damaged ones.  The
per-item route is forced by making ``read_list`` give None.
"""

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodl.core import Sort, number, symbol
from dodl.errors import DefinitionError, SortMismatch
from dodl.lang import dump, load_texts
from dodl.lang.parser import ATOM, Parser
from dodl.relation import Relation
from wsgen import gen_workspace

PATH = "f.dodl"
TEXTS = {}


def dump_text(seed: int) -> str:
    if seed not in TEXTS:
        TEXTS[seed] = dump(gen_workspace(random.Random(seed)))
    return TEXTS[seed]


def diagnostics(found) -> list:
    return [(d.render(), d.start, d.end) for d in found]


def read(text: str, fast: bool) -> tuple:
    """What one route makes of ``text``, and how many lists it read in one
    step."""
    reads = {}  # the position of each list -> whether it was read at once
    read_list = Parser.read_list

    def spy(self, close, shape):
        at = self.pos
        columns = read_list(self, close, shape) if fast else None
        reads[at] = columns is not None
        return columns

    with mock.patch.object(Parser, "read_list", spy):
        parser = Parser(text, PATH)
        unit = parser.parse_unit()
        read_in_one_step = sum(reads.values())
        result = load_texts([(PATH, text)])
    outcome = (repr(unit.statements), diagnostics(unit.errors),
               list(parser.atoms), diagnostics(result.diagnostics),
               dump(result.workspace) if result.ok else None)
    return outcome, read_in_one_step


def both_routes(text: str) -> int:
    """Assert that both routes agree on ``text``; the count of lists the
    slice route read."""
    fast, read_in_one_step = read(text, fast=True)
    plain, _ = read(text, fast=False)
    assert fast == plain
    return read_in_one_step


def lists_in(text: str) -> list[tuple[str, int, int]]:
    """The keyword and the (start, end) offsets of the body of each
    non-empty domain, relation and script in a dump text, brackets
    excluded."""
    found = []
    for match in re.finditer(r"^(domain|relation|script) [^\n]*;$", text, re.M):
        line, keyword = match.group(), match.group(1)
        opening = line.index("[" if keyword == "script" else "{", line.index("="))
        closing = line.rindex("]" if keyword == "script" else "}")
        if line[opening + 1:closing].strip():
            found.append((keyword, match.start() + opening + 1,
                          match.start() + closing))
    return found


@pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200), range(200, 300)],
                         ids=["0-99", "100-199", "200-299"])
def test_clean_dumps_read_alike_with_every_list_in_one_step(seeds):
    for seed in seeds:
        text = dump_text(seed)
        assert both_routes(text) == len(lists_in(text)), seed


# One damage to one list of a dump, in one item (often the last one) or in
# all.  Each makes the list misfit its item shape, except a comment and a
# newline inside the body, and 7 and 007 as cells.
DAMAGES = ["arity", "every-arity", "punctuation", "underscore", "missing-close",
           "trailing-comma", "empty", "separator", "name-cell", "comment",
           "seven"]
FITTING = {"comment", "seven"}
PUNCTUATION = ["(", ")", "{", "}", "[", "]", ";", ":", "=", "->", "_", ","]


@st.composite
def damaged_lists(draw):
    """A wsgen dump with one list damaged, and the count of its lists that
    still fit their item shape."""
    text = dump_text(draw(st.integers(0, 299)))
    lists = lists_in(text)
    keyword, start, end = draw(st.sampled_from(lists))
    bracketed = keyword != "domain"
    body = text[start:end]
    if bracketed:
        items = [[cell.strip() for cell in row.split(",")]
                 for row in re.findall(r"\(([^()]*)\)", body)]
    else:
        items = [[cell.strip()] for cell in body.split(",")]
    separators = [", "] * (len(items) - 1)
    damage = draw(st.sampled_from(DAMAGES))
    if damage == "separator" and not separators:
        damage = "trailing-comma"
    if damage == "name-cell" and keyword != "script":
        damage = "punctuation"
    # The item damaged: the last one, or any.
    at = draw(st.sampled_from([len(items) - 1, draw(st.integers(0, len(items) - 1))]))
    cells = items[at]
    cell = draw(st.integers(0, len(cells) - 1))
    if damage == "arity" and bracketed:
        if len(cells) > 1 and draw(st.booleans()):
            del cells[cell]
        else:
            cells.insert(cell, cells[cell])
    elif damage == "arity":
        cells[cell] = f"({cells[cell]})"
    elif damage == "every-arity":
        # Each item one cell longer: a list of one shape, but not the
        # declared one.
        for item in items:
            item[-1:] = [item[-1]] * 2 if bracketed else [f"({item[-1]})"]
    elif damage == "punctuation":
        cells[cell] = draw(st.sampled_from(PUNCTUATION + ["Ghost Ghost"]))
    elif damage == "underscore":
        cells[cell] = "_x"
    elif damage == "separator":
        separators[max(at, 1) - 1] = draw(st.sampled_from(
            [" ", " ; ", " : ", " ( ", " ) ", " Ghost ", " 7 "]))
    elif damage == "name-cell":
        cells[0] = draw(st.sampled_from(["7", "007", "_", "Ghost Ghost"]))
    elif damage == "comment" and separators:
        separators[max(at, 1) - 1] = ", # a note, (x, y) }\n  "
    elif damage == "comment":
        cells[cell] += " # a note ]\n"
    elif damage == "seven":
        for target in draw(st.lists(st.integers(0, len(items) - 1),
                                    min_size=2, max_size=2)):
            places = range(keyword == "script", len(items[target]))
            items[target][draw(st.sampled_from(places))] = draw(
                st.sampled_from(["7", "007"]))
    texts = ["(" + ", ".join(c) + ")" if bracketed else c[0] for c in items]
    body = texts[0] + "".join(s + t for s, t in zip(separators, texts[1:]))
    if damage == "trailing-comma":
        body += ","
    elif damage == "empty":
        body = ""
    # The closing bracket is dropped with the body's end.
    tail = text[end + (damage == "missing-close"):]
    fitting = len(lists) - (damage not in FITTING)
    return text[:start] + " " + body + " " + tail, fitting


@settings(max_examples=500, deadline=None)
@given(damaged_lists())
def test_damaged_lists_read_alike_and_a_misfit_item_by_item(case):
    text, fitting = case
    assert both_routes(text) == fitting


def test_seven_and_007_share_the_atom_made_first():
    text = "relation R (a : N, b : N) = { (7, 1), (2, 007) };"
    parser = Parser(text, PATH)
    (decl,) = parser.parse_unit().statements
    assert decl.rows == ((number(7), number(1)), (number(2), number(7)))
    assert decl.rows[0][0] is decl.rows[1][1]
    assert list(parser.atoms) == ["7", "1", "2", "007"]


@pytest.mark.parametrize("body", [
    "(1, 2), (3)", "(1, 2), (3, 4, 5)", "(1, 2), (3, ;)", "(1, 2), (3, _)",
    "(1, 2) (3, 4)", "(1, 2), (3, 4),", "(1, 2), (3, 4) ;", "",
])
def test_a_misfit_list_stays_unread(body):
    # A row of another arity than the shape's, a cell that is no atom, a
    # missing separator, a trailing comma, a missing bracket and an empty
    # list each give None, with the parser where it was.
    parser = Parser(body + " }", PATH)
    assert parser.read_list("}", ("(", ATOM, ",", ATOM, ")")) is None
    assert parser.pos == 0


N = Sort("N", "numeric")


def faulty_rows(*faults) -> list:
    """Fifty rows of two numbers, with the given (row, replacement) faults."""
    rows = [(number(i), number(i)) for i in range(50)]
    for at, row in faults:
        rows[at] = row
    return rows


@pytest.mark.parametrize("faults, error, message", [
    # A fault in the second column comes before one in the first.
    ([(30, (number(30), symbol("x"))), (45, (symbol("y"), number(45)))],
     SortMismatch, "'x' is symbolic but attribute 'b' has numeric sort 'N'"),
    ([(30, (number(30), symbol("x"))), (40, (number(40),))],
     SortMismatch, "'x' is symbolic but attribute 'b' has numeric sort 'N'"),
    ([(20, (number(20),)), (30, (number(30), symbol("x")))],
     DefinitionError, "tuple (20) has arity 1, schema has 2"),
], ids=["kind-before-kind", "kind-before-arity", "arity-before-kind"])
def test_a_faulty_relation_names_its_first_fault_in_source_order(faults, error,
                                                                  message):
    # The columns show that there is a fault; the one named is the first in
    # the order the rows are given, not the first of a column or of a set.
    with pytest.raises(error) as raised:
        Relation("R", (("a", N), ("b", N)), faulty_rows(*faults))
    assert type(raised.value) is error
    assert str(raised.value) == f"relation 'R': {message}"
