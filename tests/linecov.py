"""Opt-in pytest plugin: the function-body lines of ``src/dodl`` no test ran.

The standard library has no line coverage tool, so this one traces with
``sys.settrace``.  Load it with ``-p``; ``tests`` must be importable before
pytest reads its settings:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

The run is about three times slower than a plain one, so a test with a
time bound may fail under it.  At the end it lists, per file, each line
inside a function, method, lambda or comprehension that never ran.  Module and class bodies run on import and are not
listed, nor are the ``def`` lines.  Code run by a child interpreter (the
tests that start ``python -m dodl``) is not seen.

The report ends with the package's size in NBNC lines per module and in
total: the lines that are not blank and do not start with ``#`` once
their indentation is stripped.  Docstrings count.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dodl"


class LineTracer:
    """The trace function, the lines it saw run, and the hooks that keep it
    installed and report at the end of the run."""

    def __init__(self):
        # co_filename -> the set of lines run in that file, or None for a
        # file outside the package.
        self.files: dict[str, set[int] | None] = {}
        # Real path of each package file -> the lines run in it.
        self.hits: dict[str, set[int]] = {}

    def lines_of(self, filename: str) -> set[int] | None:
        real = os.path.realpath(filename)
        if not real.startswith(str(PACKAGE) + os.sep):
            return None
        return self.hits.setdefault(real, set())

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        lines = self.files.get(filename, False)
        if lines is False:
            lines = self.files[filename] = self.lines_of(filename)
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def install(self):
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    # Something in a run can replace or clear the trace function (a library
    # that traces for its own ends, say), so each test's setup and call put
    # it back.
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        root = PACKAGE.parents[1]
        total = missed = 0
        report = []
        paths = sorted(PACKAGE.rglob("*.py"))
        for path in paths:
            body = body_lines(path)
            unrun = sorted(body - self.hits.get(str(path), set()))
            total += len(body)
            missed += len(unrun)
            if unrun:
                report.append(f"{path.relative_to(root)}: {line_ranges(unrun)}")
        terminalreporter.write_sep("-", "linecov")
        terminalreporter.write_line(
            f"{total - missed} of {total} function-body lines under "
            f"{PACKAGE.relative_to(root)} ran" + ("; not run:" if missed else ""))
        for line in report:
            terminalreporter.write_line(line)
        terminalreporter.write_sep("-", "NBNC lines")
        sizes = {path.relative_to(root): nbnc(path) for path in paths}
        for path, size in sizes.items():
            terminalreporter.write_line(f"{size:6,} {path}")
        terminalreporter.write_line(f"{sum(sizes.values()):6,} total")


def body_lines(path: Path) -> set[int]:
    """The lines of every function body compiled from ``path``."""
    lines: set[int] = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        pending += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return lines


def nbnc(path: Path) -> int:
    """The lines of ``path`` that are neither blank nor a ``#`` comment."""
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def line_ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` runs: ``1, 3-5``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # Start before the conftest files import dodl: the record decorator
    # runs at import time.
    tracer = LineTracer()
    tracer.install()
    early_config.pluginmanager.register(tracer, "linecov-tracer")
