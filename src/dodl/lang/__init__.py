"""The definition language: lexer, parser, canonical printer and loader.

The printer loads on first use of ``dump``.
"""

from ..core import deferred as _deferred
from .loader import LoadResult, build, load_files, load_texts, validate
from .parser import parse, parse_query
from .syntax import Diagnostic, SourceUnit

__all__ = [
    "Diagnostic",
    "LoadResult",
    "SourceUnit",
    "build",
    "dump",
    "load_files",
    "load_texts",
    "parse",
    "parse_query",
    "validate",
]

__getattr__, __dir__ = _deferred(__name__, {"dump": ".printer"})
