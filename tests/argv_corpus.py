"""A corpus of ``dodl`` command lines, and a check that the CLI's
on-demand subcommand parsers behave byte for byte like eager argparse.

Each case runs ``dodl.cli.main`` in-process twice: once as it is, and once
with ``cli._build_parser`` replaced by ``reference.reference_parser``,
which builds every subcommand parser up front.  Both runs must give the
same exit code, stdout and stderr.  Help text is laid out for 80 columns.

The standard library is all it needs, so it also runs under interpreters
that have no pytest::

    PYTHONPATH=src python tests/argv_corpus.py

prints one line per differing case and exits 1 if there is any.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

from dodl import cli
from reference import reference_parser

DEMO = Path(__file__).resolve().parents[1] / "demo"
COMMANDS = ("load", "index", "functor", "script", "evolve", "check",
            "oracle-diff", "query", "dump", "audit")

# ``{ws}`` stands for the workspace directory, ``{file}`` for a source file
# in it.
ARGV_CASES = [
    [], ["-h"], ["--help"], ["-h", "index"], ["--workspace"], ["--bogus"],
    ["frobnicate"], ["che"], ["--format", "xml", "dump"], ["--format"],
    *[[command, "-h"] for command in COMMANDS],
    ["index"], ["index", "Tch"], ["functor"], ["check"], ["script"],
    ["evolve"], ["oracle-diff"], ["query"], ["load"],
    ["--workspace", "{ws}", "index", "Tch", "Logic", "extra"],
    ["--workspace", "{ws}", "dump", "extra"],
    ["--workspace", "{ws}", "index", "--bogus", "Tch", "Logic"],
    ["--workspace", "{ws}", "index", "Tch", "Logic"],
    ["--work", "{ws}", "index", "Tch", "Informatics"],
    ["--workspace={ws}", "--format=tsv", "functor", "Tch"],
    ["--workspace", "{ws}", "--format", "tsv", "check", "Fig4"],
    ["--workspace", "{ws}", "check", "Fig4"],
    ["--workspace", "{ws}", "oracle-diff", "Tch"],
    ["--workspace", "{ws}", "query", "select Relationship1 where Hours = 30"],
    ["--workspace", "{ws}", "query", "--", "-x"],
    ["--workspace", "{ws}", "--quiet", "script", "AssignAll"],
    ["--workspace", "{ws}", "evolve", "AssignTwice"],
    ["--workspace", "{ws}", "dump"], ["--workspace", "{ws}", "audit"],
    ["--workspace", "{ws}", "--", "index", "Tch", "Logic"],
    ["--workspace", "{ws}", "index", "--", "Tch", "Logic"],
    ["--workspace", "{ws}", "index", "Tch", "Algebra"],
    ["--quiet", "load", "{file}"], ["load", "{file}", "{file}"],
    ["load", "--", "-h"], ["load", "{ws}"],
]


def expand(argv: list[str], workspace: Path) -> list[str]:
    file = str(workspace / "teaching.dodl")
    return [arg.replace("{ws}", str(workspace)).replace("{file}", file)
            for arg in argv]


def run_main(argv: list[str], build=None) -> tuple[int, str, str]:
    """``cli.main(argv)`` with its parser built by ``build`` (the CLI's own
    when None), and its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    own = cli._build_parser
    if build is not None:
        cli._build_parser = build
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli._build_parser = own
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    os.environ["COLUMNS"] = "80"
    differing = 0
    for case in ARGV_CASES:
        argv = expand(case, DEMO)
        if run_main(argv) != run_main(argv, reference_parser):
            differing += 1
            print(f"differs: {argv}")
    print(f"{len(ARGV_CASES) - differing}/{len(ARGV_CASES)} cases equal "
          f"on Python {sys.version.split()[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
