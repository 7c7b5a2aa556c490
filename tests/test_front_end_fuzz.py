"""Front-end fuzz: random text and statement splices into the loader, and
random text into ``parse_query``.

Every call must end in a result (a ``LoadResult``, or a query expression)
or a ``DodlError``, within a small deadline, without starting a thread or
a process.  Each diagnostic must point inside the text it names.
"""

import contextlib
import os
import random
import subprocess
import threading
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEACHING
from dodl.errors import DodlError
from dodl.lang import LoadResult, dump, load_texts, parse, parse_query
from dodl.lang.parser import STATEMENT_KEYWORDS
from dodl.relational import RelExpr
from wsgen import gen_workspace

# Words and punctuation the grammar is made of, so that random text reaches
# past the first token now and then.
WORDS = [*STATEMENT_KEYWORDS, "symbolic", "numeric", "carrier", "index",
         "member", "not", "and", "or", "true", "false", "select", "where",
         "project", "join", "union", "difference", "oracle", "attr", "event",
         "menu", "encapsulated", "entry", "path_a", "path_b", "exit", "pair",
         "input", "const", "apply", "subst", "shift", "identity", "compose",
         "R", "S", "D", "x", "i", "a", "007"]
PIECES = [*WORDS, *"{}()[],;:=_", "->", "-", "#", "_x"]
# Some characters outside ASCII, and whitespace other than a space: a
# letter, a digit, no-break and wide spaces, a line and a paragraph
# separator, NEL, a form feed, a tab and both line ends.
ODD = "\u00e9\u00b2\u00a0\u2003\u3000\u2028\u2029\u0085\x0c\t\r\n"

random_text = st.lists(
    st.one_of(
        st.sampled_from(PIECES),
        st.sampled_from([" ", " ", "\n"]),
        st.characters(max_codepoint=127),
        st.sampled_from(ODD),
    ),
    max_size=80,
).map("".join)


def source_text(seed: int) -> str:
    if seed < 0:
        return TEACHING.read_text(encoding="utf-8")
    return dump(gen_workspace(random.Random(seed)))


@st.composite
def spliced_sources(draw):
    """Statements of the demo and of a wsgen dump, some dropped, the rest
    shuffled, and maybe one cut short and joined to the tail of another."""
    pieces = []
    for seed in (-1, draw(st.integers(0, 299))):
        text = source_text(seed)
        pieces += [text[s.span.start:s.span.end] for s in parse(text).statements]
    chosen = draw(st.lists(st.sampled_from(pieces), max_size=30))
    if len(chosen) >= 2 and draw(st.booleans()):
        head, tail = chosen[0], chosen[1]
        chosen[0] = (head[:draw(st.integers(0, len(head)))]
                     + tail[draw(st.integers(0, len(tail))):])
    return draw(st.sampled_from(["\n", " ", ""])).join(chosen)


@contextlib.contextmanager
def alone():
    """Fail any attempt to start a thread or a process in the block."""
    def refuse(*args, **kwargs):
        raise AssertionError("the front end started a thread or a process")

    with contextlib.ExitStack() as stack:
        for owner, name in [(threading.Thread, "start"),
                            (subprocess.Popen, "__init__"),
                            (os, "fork"), (os, "posix_spawn"),
                            (os, "system")]:
            stack.enter_context(mock.patch.object(owner, name, refuse))
        yield


def loads_or_diagnoses(text: str):
    with alone():
        try:
            result = load_texts([("f.dodl", text)])
        except DodlError:
            return
    assert isinstance(result, LoadResult)
    for d in result.diagnostics:
        assert d.path == "f.dodl", d
        assert 0 <= d.start <= d.end <= len(text), d
        assert d.line == text.count("\n", 0, d.start) + 1, d
        if d.start < len(text):
            # (At the end of input after a final comment, the column is
            # the comment's.)
            assert d.col == d.start - text.rfind("\n", 0, d.start), d


@settings(max_examples=400, deadline=500)
@given(random_text)
def test_random_text_loads_or_diagnoses(text):
    loads_or_diagnoses(text)


@settings(max_examples=150, deadline=1000)
@given(spliced_sources())
def test_statement_splices_load_or_diagnose(text):
    loads_or_diagnoses(text)


@settings(max_examples=400, deadline=500)
@given(random_text)
def test_random_queries_parse_or_raise_a_dodl_error(text):
    with alone():
        try:
            expr = parse_query(text)
        except DodlError:
            return
    assert isinstance(expr, RelExpr)
