from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import dodl
from dodl.lang import load_files

REPO_ROOT = Path(__file__).resolve().parents[1]
TEACHING = REPO_ROOT / "demo" / "teaching.dodl"

# The teaching assignment rows, kept as plain text for independent
# brute-force checks that never touch the engine.
TEACHING_ROWS = [
    ("Logic", "Johnes", "20"),
    ("Logic", "Smith", "20"),
    ("Informatics", "Doe", "30"),
    ("Informatics", "Jackson", "30"),
]
COURSES = ["Informatics", "Logic"]
TEACHERS = ["Doe", "Jackson", "Johnes", "Smith"]


class DeadlinePassed(BaseException):
    """A block ran past its :func:`deadline`.  It is no ``Exception``, so
    neither a handler of file errors nor ``cli.main``'s report of an
    internal error takes it: the test fails as a timeout."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block once ``seconds`` pass, even in a blocked system call."""
    def expire(signum, frame):
        raise DeadlinePassed(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_python(*argv, timeout: float | None = None) -> subprocess.CompletedProcess:
    """A child interpreter that imports the package under test."""
    src = str(Path(dodl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def teaches(course: str, name: str) -> bool:
    """Independent oracle: scan the raw assignment rows."""
    return any(r[0] == course and r[1] == name for r in TEACHING_ROWS)


@pytest.fixture(scope="session")
def teaching_text() -> str:
    return TEACHING.read_text(encoding="utf-8")


@pytest.fixture()
def teaching_ws():
    result = load_files([TEACHING])
    assert result.ok, [d.render() for d in result.diagnostics]
    return result.workspace


@pytest.fixture()
def teaching_dir(tmp_path, teaching_text):
    (tmp_path / "teaching.dodl").write_text(teaching_text, encoding="utf-8")
    return tmp_path
