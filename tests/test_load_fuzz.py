"""Load fuzz: statement-level damage to real workspaces.

Each example takes the demo or a wsgen dump, drops one statement or renames
one name reference in it to a name nothing declares, and splits what is
left over one or two files.  Loading must end in a result or diagnostics
inside the files it read, and when the text loads, every CLI command on it
must exit 0 or 1 without reaching the internal-error net.

A cost property gives small texts whose commands could run long, compose
ladders and join chains: loading each, and running its costly command,
must end within a wall-clock bound.
"""

import contextlib
import io
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TEACHING, deadline
from dodl.cli import main
from dodl.core import Record
from dodl.lang import LoadResult, dump, load_texts, parse
from dodl.lang.syntax import Ref, ShapePart
from wsgen import gen_workspace

UNDEFINED = "Ghost"


def references(node) -> list:
    """Every Ref or ShapePart inside a parsed statement, in field order."""
    if isinstance(node, (Ref, ShapePart)):
        return [node]
    if isinstance(node, tuple):
        return [ref for item in node for ref in references(item)]
    if isinstance(node, Record):
        return [ref for f in node.fields
                for ref in references(getattr(node, f.name))]
    return []


def source_text(seed: int) -> str:
    if seed < 0:
        return TEACHING.read_text(encoding="utf-8")
    return dump(gen_workspace(random.Random(seed)))


def renamable(stmt) -> list:
    """The references of a statement other than the name it declares."""
    return [ref for ref in references(stmt)
            if ref is not getattr(stmt, "name", None)]


def test_every_source_has_a_reference_to_rename():
    # Without references the fuzz would only ever drop statements.
    for seed in range(-1, 300):
        statements = parse(source_text(seed)).statements
        assert any(renamable(stmt) for stmt in statements), seed


@st.composite
def damaged_workspaces(draw):
    """A list of (path, text) files: one statement dropped or one of its
    references renamed, the statements split over one or two files."""
    text = source_text(draw(st.integers(-1, 299)))
    statements = parse(text).statements
    pieces = [text[s.span.start:s.span.end] for s in statements]
    target = draw(st.integers(0, len(statements) - 1))
    stmt = statements[target]
    refs = renamable(stmt)
    if refs and draw(st.booleans()):
        ref = draw(st.sampled_from(refs))
        start = ref.span.start - stmt.span.start
        end = ref.span.end - stmt.span.start
        piece = pieces[target]
        pieces[target] = piece[:start] + UNDEFINED + piece[end:]
    else:
        del pieces[target]
    cut = draw(st.integers(0, len(pieces)))
    parts = [pieces[:cut], pieces[cut:]] if draw(st.booleans()) else [pieces]
    paths = draw(st.sampled_from([("a.dodl", "b.dodl"), (None, "b.dodl"),
                                  ("a.dodl", None)]))
    return [(path, "\n".join(part) + "\n") for path, part in zip(paths, parts)]


def run_cli(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def commands(workspace) -> list[tuple[str, ...]]:
    """One call of each command on a declared name, where there is one, and
    on an undefined one."""
    def first(names):
        return sorted(names)[:1] + [UNDEFINED]

    calls = [("dump",), ("audit",)]
    for name in first(workspace.potentials):
        po = workspace.potentials.get(name)
        atoms = po.index_domain.sorted_elements()[:1] if po else []
        calls += [("index", name, atom.text) for atom in atoms]
        calls += [("index", name, UNDEFINED), ("functor", name),
                  ("oracle-diff", name)]
    calls += [("script", name) for name in first(workspace.scripts)]
    calls += [("evolve", name) for name in first(workspace.evolvents)]
    calls += [("check", name) for name in first(workspace.diagrams)]
    calls += [("query", name) for name in first(workspace.relations)]
    return calls


@settings(max_examples=150, deadline=1000)
@given(damaged_workspaces())
def test_damaged_workspaces_load_or_diagnose(files):
    result = load_texts(files)
    assert isinstance(result, LoadResult)
    texts = dict(files)
    for d in result.diagnostics:
        assert d.path in texts, d
        text = texts[d.path]
        assert 0 <= d.start <= d.end <= len(text), d
        assert d.line == text.count("\n", 0, d.start) + 1, d
        assert d.col == d.start - text.rfind("\n", 0, d.start), d
    if not result.ok:
        return
    with tempfile.TemporaryDirectory() as directory:
        for (_, text), name in zip(files, ("a.dodl", "b.dodl")):
            (Path(directory) / name).write_text(text, encoding="utf-8")
        for call in [("load", *sorted(map(str, Path(directory).iterdir())))] + \
                commands(result.workspace):
            code, err = run_cli("--workspace", directory, *call)
            assert code in (0, 1), (call, err)
            assert "internal error" not in err, (call, err)


# Wall-clock bound, in seconds, on each load and each command of the cost
# property, kept by a timer signal, not a thread.  The largest ladder that
# loads evolves in about 0.6 s.
COST_BOUND = 2.0


def compose_ladder(depth: int) -> tuple[str, list[str]]:
    """The demo plus E0 = compose(Assign, Assign) and E_i = compose(E_(i-1),
    E_(i-1)) up to E_depth, which runs 2^(depth+2) triggers; and the command
    that evolves the top."""
    ladder = "evolvent E0 = compose(Assign, Assign);\n" + "".join(
        f"evolvent E{i} = compose(E{i - 1}, E{i - 1});\n"
        for i in range(1, depth + 1))
    text = TEACHING.read_text(encoding="utf-8") + ladder
    return text, ["evolve", f"E{depth}"]


def join_chain(relations: list[list[tuple[int, int]]]) -> tuple[str, list[str]]:
    """Relations R_i (B, A_i) with the given rows, all sharing B, and a
    query statement of the projection on B of their left-deep join; and
    the command that runs that query."""
    decls = "".join(
        f"relation R{i} (B : N, A{i} : N) = {{ "
        + ", ".join(f"({b}, {a})" for b, a in rows) + " };\n"
        for i, rows in enumerate(relations))
    expr = "R0"
    for i in range(1, len(relations)):
        expr = f"join({expr}, R{i})"
    expr = f"project ({expr}) [B]"
    return f"sort N : numeric;\n{decls}query {expr};\n", ["query", expr]


@st.composite
def costly_texts(draw):
    if draw(st.booleans()):
        return compose_ladder(draw(st.integers(0, 16)))
    rows = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 11)),
                    min_size=1, max_size=12, unique=True)
    return join_chain(draw(st.lists(rows, min_size=2, max_size=8)))


# E13 is the largest ladder that loads and E16 the top of the range;
# four relations of twelve rows on one B value join to 20,736 rows, and
# eight to 12^8, past the join row limit.
@settings(max_examples=16, deadline=None)
@example(compose_ladder(13))
@example(compose_ladder(16))
@example(join_chain([[(0, a) for a in range(12)]] * 4))
@example(join_chain([[(0, a) for a in range(12)]] * 8))
@given(costly_texts())
def test_costly_texts_end_within_the_bound(case):
    text, command = case
    with deadline(COST_BOUND):
        result = load_texts([("cost.dodl", text)])
    assert isinstance(result, LoadResult)
    if not result.ok:
        return
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "cost.dodl").write_text(text, encoding="utf-8")
        with deadline(COST_BOUND):
            code, err = run_cli("--workspace", directory, *command)
    assert code in (0, 1), (command, err)
    assert "internal error" not in err, (command, err)


# A long list is read in one slice, or item by item when an item misfits;
# either way in time linear in its length.
LONG = 20_000
LONG_HEAD = {
    "relation": "relation R (a : N, b : N) = { "
                + "".join(f"({i}, {i}), " for i in range(LONG - 1)),
    "domain": "domain D : N = { " + "".join(f"{i}, " for i in range(LONG - 1)),
    "script": "filter F (i, x) = true;\npotential P carrier C index D filter F;\n"
              "script S = [ " + "".join(f"(P, {i}), " for i in range(LONG - 1)),
}
LONG_TAIL = {"relation": " };\n", "domain": " };\n", "script": " ];\n"}


@pytest.mark.parametrize("kind, last, ok", [
    ("relation", "(19999, 19999)", True), ("relation", "(19999)", False),
    ("domain", "19999", True), ("domain", "(19999)", False),
    ("script", "(P, 19999)", True), ("script", "(P, 19999, 19999)", False),
])
def test_a_long_list_loads_within_the_bound(kind, last, ok):
    text = "sort N : numeric;\ndomain C : N = { 0 };\n"
    if kind == "script":
        text += LONG_HEAD["domain"] + "19999" + LONG_TAIL["domain"]
    text += LONG_HEAD[kind] + last + LONG_TAIL[kind]
    with deadline(COST_BOUND):
        result = load_texts([("long.dodl", text)])
    assert result.ok == ok, [d.render() for d in result.diagnostics]
