from __future__ import annotations

import contextlib
import signal
from pathlib import Path

import pytest

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


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block once ``seconds`` pass, even in a blocked system call.
    The failure is no OSError, so no handler of file errors takes it."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
