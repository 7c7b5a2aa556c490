"""Load fuzz: statement-level damage to real workspaces.

Each example takes the demo or a wsgen dump, drops one statement or renames
one name reference in it to a name nothing declares, and splits what is
left over one or two files.  Loading must end in a result or diagnostics
inside the files it read, and when the text loads, every CLI command on it
must exit 0 or 1 without reaching the internal-error net.
"""

import contextlib
import dataclasses
import io
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEACHING
from dodl.cli import main
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
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return [ref for f in dataclasses.fields(node)
                for ref in references(getattr(node, f.name))]
    return []


def source_text(seed: int) -> str:
    if seed < 0:
        return TEACHING.read_text(encoding="utf-8")
    return dump(gen_workspace(random.Random(seed)))


@st.composite
def damaged_workspaces(draw):
    """A list of (path, text) files: one statement dropped or one of its
    references renamed, the statements split over one or two files."""
    text = source_text(draw(st.integers(-1, 299)))
    statements = parse(text).statements
    pieces = [text[s.span.start:s.span.end] for s in statements]
    target = draw(st.integers(0, len(statements) - 1))
    stmt = statements[target]
    refs = [ref for ref in references(stmt)
            if ref is not getattr(stmt, "name", None)]
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
