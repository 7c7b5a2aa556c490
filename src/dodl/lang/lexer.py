"""Tokenizer for the definition language.

Keywords are contextual: the lexer only distinguishes identifiers, integers
and punctuation, so declaration names are free to reuse most words.  Names
and integers are ASCII; any other letter or digit is an unexpected
character, reported at its own line and column.

A text lexes into two flat lists, the text and the start offset of each
token, with no Python step per token.  Both end in an entry for the end of
input: the text ``""`` at offset ``len(text)``.  A token's kind follows
from its first character (:func:`token_kind`), and its line and column
from its offset (:class:`Lines`), worked out only for the few tokens a
span or diagnostic names.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate

from .syntax import Diagnostic

IDENT = "ident"
INT = "int"
PUNCT = "punct"
EOF = "eof"

_COMMENT = re.compile(r"#[^\n]*")
# One alternative per lexeme, tried in order, inside one capture group, so
# that ``split`` yields separator, lexeme, separator, ..., separator.  The
# last alternative, ``\S``, takes each punctuation character, a lone ``_``
# among them, and each character no token may hold; so a separator is
# whitespace only (``\s`` is exactly ``str.isspace``).
_LEXEME = re.compile(r"([A-Za-z][A-Za-z0-9_]*|[0-9]+|_[A-Za-z0-9_]+|->|\S)")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_ALNUM = _LETTERS | _DIGITS
_PUNCTS = frozenset(("->", *"{}()[],;:=_"))


def token_kind(text: str) -> str:
    """The kind of a token the lexer yields, from its text."""
    if not text:
        return EOF
    if text[0] in _LETTERS:
        return IDENT
    if text[0] in _DIGITS:
        return INT
    return PUNCT


def describe(text: str) -> str:
    """A token as messages name it."""
    return repr(text) if text else "end of input"


class Lines:
    """Line and column of offsets into one text; only ``\\n`` starts a line."""

    __slots__ = ("text", "starts")

    def __init__(self, text: str):
        self.text = text
        # The offset at which each line starts.
        self.starts = list(accumulate(
            map((1).__add__, map(len, text.split("\n")[:-1])), initial=0))

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect_right(self.starts, offset)
        line_start = self.starts[line - 1]
        if offset == len(self.text):
            # The end of input after a final comment with no newline is
            # placed at the comment's '#'.
            comment = self.text.find("#", line_start)
            if comment >= 0:
                offset = comment
        return line, offset - line_start + 1


def _blank(match: re.Match) -> str:
    return " " * (match.end() - match.start())


def tokenize(text: str, path: str | None = None
             ) -> tuple[list[str], list[int], list[Diagnostic]]:
    """The text and start offset of each token of ``text``, each list ending
    in the end of input, and a diagnostic, naming ``path``, for each lexeme
    no token may be: a name beginning with ``_`` or any other character."""
    # Blanking each comment to spaces keeps every offset.
    parts = _LEXEME.split(_COMMENT.sub(_blank, text) if "#" in text else text)
    texts = parts[1::2]
    # Each even part is a separator; the sum of the lengths before it and
    # through it is the start of the lexeme after it, or len(text).
    starts = list(accumulate(map(len, parts)))[0::2]
    bad = {lexeme for lexeme in set(texts)
           if lexeme[0] not in _ALNUM and lexeme not in _PUNCTS}
    errors = []
    if bad:
        lines = Lines(text)
        for lexeme, start in zip(texts, starts):
            if lexeme in bad:
                if lexeme[0] == "_":
                    message = "names may not begin with '_'"
                else:
                    message = f"unexpected character {lexeme!r}"
                errors.append(Diagnostic(message, *lines.position(start), start,
                                         start + len(lexeme), (), path))
        kept = [i for i, lexeme in enumerate(texts) if lexeme not in bad]
        texts = [texts[i] for i in kept]
        starts = [starts[i] for i in kept] + starts[-1:]
    texts.append("")
    return texts, starts, errors
