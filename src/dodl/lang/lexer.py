"""Tokenizer for the definition language.

Keywords are contextual: the lexer only distinguishes identifiers, integers
and punctuation, so declaration names are free to reuse most words.  Names
and integers are ASCII; any other letter or digit is an unexpected
character, reported at its own line and column.

A text lexes into the text of each token, ending in ``""`` for the end of
input, by string methods alone: the ten one-character marks are spaced out,
the text is split on whitespace, and each distinct chunk is matched once.
A text with a chunk that glues tokens together, such as ``a->b``, or with
a refused lexeme is cut by the lexeme pattern instead.
A token's kind follows from its first character (:func:`token_kind`).  Its
offset, line and column are worked out by :class:`Lines` only when a span
or diagnostic is read, which a clean load never does.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate

from .syntax import Diagnostic, Span

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
# The punctuation no other lexeme can hold, so each is a token of its own.
_MARKS = "{}()[],;:="
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_DIGITS = frozenset("0123456789")
_ALNUM = _LETTERS | _DIGITS
_PUNCTS = frozenset(("->", "_", *_MARKS))


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
    """Offsets, lines and columns of the tokens of one text, from the
    pieces it is cut into; only ``\\n`` starts a line.

    Each table, the pieces too unless given, is filled on its first
    request, once per text: a clean load asks for none.
    """

    __slots__ = ("text", "_pieces", "path", "offsets", "line_starts")

    def __init__(self, text: str, pieces: list[str] | None, path: str | None = None):
        self.text = text
        self._pieces = pieces
        self.path = path
        self.offsets: list[int] | None = None
        self.line_starts: list[int] | None = None

    @property
    def pieces(self) -> list[str]:
        """Separator, lexeme, ..., separator, each lexeme a token."""
        if self._pieces is None:
            self._pieces = _LEXEME.split(_COMMENT.sub(_blank, self.text))
        return self._pieces

    def _offsets(self) -> list[int]:
        offsets = self.offsets
        if offsets is None:
            # The start of each piece, then the end of the end of input,
            # which starts at len(text): token ``at`` is piece ``2 * at + 1``.
            offsets = self.offsets = [
                *accumulate(map(len, self.pieces), initial=0), len(self.text)]
        return offsets

    def token_start(self, at: int) -> int:
        """The offset of token ``at``; the end of input's is ``len(text)``."""
        return self._offsets()[2 * at + 1]

    def token_end(self, at: int) -> int:
        return self._offsets()[2 * at + 2]

    def position(self, offset: int) -> tuple[int, int]:
        starts = self.line_starts
        if starts is None:
            # The offset at which each line starts.
            starts = self.line_starts = list(accumulate(
                map((1).__add__, map(len, self.text.split("\n")[:-1])),
                initial=0))
        line = bisect_right(starts, offset)
        line_start = starts[line - 1]
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
             ) -> tuple[list[str], Lines, list[Diagnostic]]:
    """The text of each token of ``text``, ending in the end of input; the
    :class:`Lines` of ``text``, naming ``path``; and a diagnostic for each
    lexeme no token may be: a name beginning with ``_`` or any other
    character."""
    # Blanking each comment to spaces keeps every offset.
    spaced = _COMMENT.sub(_blank, text) if "#" in text else text
    for mark in _MARKS:
        spaced = spaced.replace(mark, f" {mark} ")
    texts = spaced.split()
    # No lexeme but a mark's own holds a mark or whitespace, so a chunk is
    # one or more whole lexemes: almost always one, its own text.
    found = [_LEXEME.findall(chunk) for chunk in set(texts)]
    bad = {lexeme for cut in found for lexeme in cut
           if lexeme[0] not in _ALNUM and lexeme not in _PUNCTS}
    errors = []
    lines = Lines(text, None, path)
    if bad or sum(map(len, found)) != len(found):
        # A chunk glues lexemes together, or one is refused: the text is
        # cut by the pattern instead.
        pieces = lines.pieces
        texts = pieces[1::2]
        if bad:
            # Each refused lexeme is folded into the separator around it.
            kept, run = [], [pieces[0]]
            for at, lexeme in enumerate(texts):
                if lexeme in bad:
                    if lexeme[0] == "_":
                        message = "names may not begin with '_'"
                    else:
                        message = f"unexpected character {lexeme!r}"
                    errors.append(Span(lines, at, at).diagnostic(message))
                    run += (lexeme, pieces[2 * at + 2])
                else:
                    kept += ("".join(run), lexeme)
                    run = [pieces[2 * at + 2]]
            kept.append("".join(run))
            lines = Lines(text, kept, path)
            texts = kept[1::2]
    texts.append("")
    return texts, lines, errors
