"""Pinned CLI output on the demo and on generated workspaces.

The sources are ``demo/teaching.dodl`` and the dumps of wsgen seeds
0–149.  Each source is written alone into the directory ``ws`` of a fresh
working directory, and every command runs on it with every name it takes:

- ``load`` of the file, with and without ``--quiet``; ``dump``; ``audit``;
- ``index`` of each potential object at the first atom of its index
  domain;
- ``functor`` and ``oracle-diff`` of each potential object and ``check``
  of each diagram, each in text and in tsv;
- ``script`` of each script and ``evolve`` of each evolvent;
- ``query`` of each relation's name, in text and in tsv.

Each call runs ``dodl.cli.main`` in-process, with paths relative to the
working directory.  Its pin is the first 16 hex digits of the SHA-256
digest of the JSON list ``[argv, exit code, stdout, stderr]``.  The
record stores every argv with its pin, so a check reruns the stored calls
and needs nothing else to rebuild them.

    PYTHONPATH=src python tests/cli_pins.py > tests/data/cli_pins.json

writes the record; ``test_cli.py`` checks that the CLI still gives it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from dodl import cli
from dodl.lang import dump, load_texts
from wsgen import gen_workspace

TEACHING = Path(__file__).resolve().parents[1] / "demo" / "teaching.dodl"
PINS = Path(__file__).resolve().parent / "data" / "cli_pins.json"
SEEDS = range(150)
WORKSPACE = "ws"


def sources() -> list[tuple[str | int, str, str]]:
    """(source, file name, text) for the demo and each wsgen seed."""
    demo = ("demo", "teaching.dodl", TEACHING.read_text(encoding="utf-8"))
    return [demo] + [(seed, "ws.dodl", dump(gen_workspace(random.Random(seed))))
                     for seed in SEEDS]


def calls(name: str, text: str) -> list[list[str]]:
    """Every command on the source ``text``, stored as ``ws/<name>``."""
    workspace = load_texts([(name, text)]).workspace
    ws = ["--workspace", WORKSPACE]
    tsv = ws + ["--format", "tsv"]
    out = [["load", f"{WORKSPACE}/{name}"],
           ["--quiet", "load", f"{WORKSPACE}/{name}"],
           ws + ["dump"], ws + ["audit"]]
    for po_name, po in sorted(workspace.potentials.items()):
        out += [ws + ["index", po_name, atom.text]
                for atom in po.index_domain.sorted_elements()[:1]]
        out += [style + [command, po_name] for command in ("functor", "oracle-diff")
                for style in (ws, tsv)]
    out += [style + ["check", diagram] for diagram in sorted(workspace.diagrams)
            for style in (ws, tsv)]
    out += [ws + ["script", script] for script in sorted(workspace.scripts)]
    out += [ws + ["evolve", evolvent] for evolvent in sorted(workspace.evolvents)]
    out += [style + ["query", relation] for relation in sorted(workspace.relations)
            for style in (ws, tsv)]
    return out


def pin(argv: list[str]) -> str:
    """The pin of one in-process call, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    observed = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(observed.encode()).hexdigest()[:16]


@contextlib.contextmanager
def source_directory(name: str, text: str):
    """A fresh working directory holding ``ws/<name>``, made current."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / WORKSPACE).mkdir()
        (Path(directory) / WORKSPACE / name).write_text(text, encoding="utf-8")
        os.chdir(directory)
        try:
            yield
        finally:
            os.chdir(previous)


def main() -> int:
    lines = []
    for source, name, text in sources():
        with source_directory(name, text):
            pinned = [[argv, pin(argv)] for argv in calls(name, text)]
        lines.append(json.dumps({"source": source, "file": name, "calls": pinned}))
    sys.stdout.write("[\n" + ",\n".join(lines) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
