"""Pinned front-end output on damaged copies of the demo.

Two corpora of damaged ``demo/teaching.dodl`` texts:

- every truncation of the demo at a token boundary (the start or the end
  of a token) or at the end of a line;
- a fixed-seed sample of single-character replacements of the demo by one
  of ``$ _x é ; ( ) -``.

For each text the record holds what the front end reports: every load
diagnostic, rendered, with its offsets, and the first 16 hex digits of the
SHA-256 digest of the repr of the parsed statements, which spells out every
span and atom.  The cases are stored with their results, so a check needs
no lexer to rebuild them.

    PYTHONPATH=src python tests/front_end_pins.py > tests/data/front_end_pins.json

writes the record; ``test_lang.py`` checks that the front end still gives
it, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from dodl.lang import load_texts, parse
from reference import reference_tokenize

TEACHING = Path(__file__).resolve().parents[1] / "demo" / "teaching.dodl"
PINS = Path(__file__).resolve().parent / "data" / "front_end_pins.json"
PATH = "teaching.dodl"
REPLACEMENTS = ("$", "_x", "é", ";", "(", ")", "-")
SAMPLE_SEED = 10
SAMPLE_SIZE = 600


def damaged(text: str, case: list) -> str:
    """The text a case describes: ``["cut", offset]`` keeps the text before
    ``offset``; ``["put", offset, s]`` replaces the character at ``offset``
    by ``s``."""
    if case[0] == "cut":
        return text[:case[1]]
    _, offset, replacement = case
    return text[:offset] + replacement + text[offset + 1:]


def observe(text: str) -> dict:
    """What the front end reports on one text."""
    unit = parse(text, PATH)
    result = load_texts([(PATH, text)])
    return {
        "diagnostics": [[d.render(), d.start, d.end] for d in result.diagnostics],
        "statements": hashlib.sha256(repr(unit.statements).encode()).hexdigest()[:16],
    }


def cases(text: str) -> list[list]:
    # Token boundaries, and each line end, where a cut leaves a final
    # comment with no newline.
    boundaries = {0, len(text)}
    boundaries.update(i for i, ch in enumerate(text) if ch == "\n")
    for *_, start, end in reference_tokenize(text)[0]:
        boundaries.update((start, end))
    rng = random.Random(SAMPLE_SEED)
    pairs = [(offset, s) for offset in range(len(text)) for s in REPLACEMENTS]
    return ([["cut", offset] for offset in sorted(boundaries)]
            + [["put", offset, s] for offset, s in sorted(rng.sample(pairs, SAMPLE_SIZE))])


def main() -> int:
    text = TEACHING.read_text(encoding="utf-8")
    sys.stdout.write("[\n" + ",\n".join(
        json.dumps({"case": case, **observe(damaged(text, case))})
        for case in cases(text)) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
