"""Tokenizer for the definition language.

Keywords are contextual: the lexer only distinguishes identifiers, integers
and punctuation, so declaration names are free to reuse most words.  Names
and integers are ASCII; any other letter or digit is an unexpected
character, reported at its own line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .syntax import Diagnostic

IDENT = "ident"
INT = "int"
PUNCT = "punct"
EOF = "eof"

# One alternative per lexeme, tried in order; each match first absorbs the
# horizontal whitespace before it.  ``\s`` is exactly ``str.isspace``, and
# only ``\n`` starts a new line.  The group names of real tokens are their
# kinds.  ``other`` is ``\S`` so that trailing whitespace never matches.
_LEXEME = re.compile(r"""
    [^\S\n]*
    (?:
        (?P<newline>\n)
      | (?P<comment>\#[^\n]*)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<underscore_name>_[A-Za-z0-9_]+)
      | (?P<punct>->|[{}()\[\],;:=_])
      | (?P<other>\S)
    )
""", re.VERBOSE)
_TOKEN_KINDS = frozenset((IDENT, INT, PUNCT))


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    start: int
    end: int

    def describe(self) -> str:
        if self.kind == EOF:
            return "end of input"
        return repr(self.text)


def tokenize(text: str) -> tuple[list[Token], list[Diagnostic]]:
    tokens: list[Token] = []
    errors: list[Diagnostic] = []
    append = tokens.append
    new = tuple.__new__
    line = 1
    line_start = 0  # offset of the first character of the current line
    match = None
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind in _TOKEN_KINDS:
            start, end = match.span(kind)
            append(new(Token, (kind, text[start:end], line,
                               start - line_start + 1, start, end)))
        elif kind == "newline":
            line += 1
            line_start = match.end()
        elif kind != "comment":
            start, end = match.span(kind)
            if kind == "other":
                message = f"unexpected character {text[start]!r}"
            else:
                message = "names may not begin with '_'"
            errors.append(Diagnostic(
                message, line, start - line_start + 1, start, end,
            ))

    n = len(text)
    if match is not None and match.lastgroup == "comment":
        # A final comment with no newline leaves the end at the '#' column.
        col = match.start("comment") - line_start + 1
    else:
        col = n - line_start + 1
    append(new(Token, (EOF, "", line, col, n, n)))
    return tokens, errors
