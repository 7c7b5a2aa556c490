"""Batch shell: load a workspace directory and run one command against it.

Every invocation loads fresh from the ``*.dodl`` files of the workspace
directory (lexicographic file order); nothing persists between runs except
the source files themselves.  Exit codes: 0 success, 1 diagnostics, a
failed check, an ``oracle-diff`` row that differs or an internal fault,
2 usage error.

A well-formed command line is read straight into a namespace by
:func:`_read_argv`.  Anything else, help and usage errors included, goes to
argparse, which builds the top-level parser and only the chosen command's
(see :class:`_DeferredParser`); ``TestReadArgv`` in ``test_cli.py`` holds
the two to one namespace.  Engines load the same way, only in the commands
that run them: every call pays to compile what it imports.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

from .core import Atom, deferred
from .diagrams import format_actual, format_atom_set, format_value
from .errors import DodlError, not_defined
from .evolver import (
    Query,
    apply_evolvent,
    derive_actual,
    get_potential,
    materialize_functor,
    run_script,
    trigger,
)
from .lang import load_files, parse_query

# Names that load with their engine on first use.  Handlers read them
# through this module when they run, so a wrapper set on one is what runs.
__getattr__, __dir__ = deferred(__name__, {
    "check_commutes": ".checker",
    "enumerate_entry": ".checker",
    "dump": ".lang.printer",
    "format_query_result": ".lang.printer",
    "oracle_index": ".relational",
    "oracle_route": ".relational",
})
_this = sys.modules[__name__]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return _dispatch(args)
    except DodlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # A fault in dodl itself: name it on stderr rather than end in a
        # traceback, and still fail the call.
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


def _read_argv(argv):
    """argparse's namespace for ``argv`` if it is OPTIONS words with their values,
    then a command word and its positionals, none starting with ``-``; else None."""
    args = {word[2:]: spec.get("default", False) for word, spec in OPTIONS.items()}
    words = iter(argv)
    word = next(words, None)
    while word in OPTIONS:
        spec = OPTIONS[word]
        # A flag reads True; a missing value reads "-", refused below.
        value = "action" in spec or next(words, "-")
        if str(value).startswith("-") or value not in spec.get("choices", (value,)):
            return None
        args[word[2:]] = value
        word = next(words, None)
    rest = list(words)
    if word not in COMMANDS or any(value.startswith("-") for value in rest):
        return None
    arguments = COMMANDS[word][1]
    if rest and [spec.get("nargs") for spec in arguments.values()] == ["+"]:
        rest = [rest]
    if len(rest) == len(arguments):
        return SimpleNamespace(**args, command=word, **dict(zip(arguments, rest)))
    return None


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="dodl",
        description="Derive actual objects from potential objects by "
                    "indexing events, with a relational cross-check.",
    )
    for word, options in OPTIONS.items():
        parser.add_argument(word, **options)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_DeferredParser)
    for word, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(word, help=help_text)
        for name, options in arguments.items():
            p.add_argument(name, **options)
    return parser


class _DeferredParser:
    """A subcommand's parser, built when argparse first uses it.

    ``add_argument`` calls are recorded, and the first other attribute
    read (``parse_known_args``, when the command is the one chosen) builds
    the real ``ArgumentParser`` and forwards to it from then on.  So a call
    that argparse reads builds the top-level parser and at most one
    subcommand parser, and help, usage errors and unknown commands none.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._arguments = []
        self._parser = None

    def add_argument(self, *args, **kwargs):
        self._arguments.append((args, kwargs))

    def __getattr__(self, name):
        if self._parser is None:
            import argparse

            self._parser = argparse.ArgumentParser(**self._kwargs)
            for args, kwargs in self._arguments:
                self._parser.add_argument(*args, **kwargs)
        return getattr(self._parser, name)


def _dispatch(args) -> int:
    if args.command == "load":
        return _cmd_load(args)
    result = _load_workspace(args)
    if result is None:
        return 1
    return COMMANDS[args.command][2](args, result)


def _load(files):
    """Load ``files``, printing each diagnostic to stderr."""
    result = load_files(files)
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    return result


def _load_workspace(args):
    directory = Path(args.workspace)
    if not directory.is_dir():
        print(f"error: workspace {args.workspace!r} is not a directory",
              file=sys.stderr)
        return None
    result = _load(sorted(directory.glob("*.dodl")))
    if result.diagnostics or result.exchange is None:
        return None
    return result


def _cmd_load(args) -> int:
    result = _load(args.files)
    if result.exchange is not None:
        for block in result.outputs:
            print(block)
        if not args.quiet:
            for note in result.notes:
                print(f"note: {note}")
        # A failed command statement leaves a diagnostic: no "ok:" then.
        if not args.quiet and not result.diagnostics:
            workspace = result.exchange.state
            counts = (
                f"{len(workspace.domains)} domain(s), "
                f"{len(workspace.relations)} relation(s), "
                f"{len(workspace.potentials)} potential object(s), "
                f"{len(workspace.concepts)} concept(s)"
            )
            print(f"ok: {counts}; stage {workspace.stage}")
    return 1 if result.diagnostics else 0


def _cmd_index(args, result) -> int:
    _, ao = trigger(result.exchange.state, args.po, Atom.parse(args.atom))
    print(format_actual(ao))
    return 0


def _cmd_functor(args, result) -> int:
    mapping = materialize_functor(result.exchange.state, args.po)
    for index, ao in mapping.items():
        if args.format == "tsv":
            elements = ",".join(a.text for a in ao.sorted_elements())
            print(f"{index.text}\t{elements}")
        else:
            print(format_actual(ao))
    return 0


def _print_library(args, state):
    for name in sorted(state.ao_library):
        print(format_actual(state.ao_library[name]))
    if not args.quiet:
        print(f"stage {state.stage}")


def _cmd_script(args, result) -> int:
    _print_library(args, run_script(result.exchange.state, args.name))
    return 0


def _cmd_evolve(args, result) -> int:
    _print_library(args, apply_evolvent(result.exchange.state, args.name))
    return 0


def _outcomes(row) -> tuple[str, str]:
    """A check row's results on path_a and path_b: each value or error."""
    return (row.error_a or format_value(row.value_a),
            row.error_b or format_value(row.value_b))


def _cmd_check(args, result) -> int:
    state = result.exchange.state
    spec = state.diagrams.get(args.diagram)
    if spec is None:
        raise not_defined("diagram", args.diagram)
    report = _this.check_commutes(spec, _this.enumerate_entry(spec, state), state)
    if args.format == "tsv":
        for row in report.rows:
            print("\t".join((format_value(row.input), *_outcomes(row),
                             "EQUAL" if row.agrees else "DIFFER")))
    else:
        print(report.summary())
        for row in report.differing():
            a, b = _outcomes(row)
            print(f"  {format_value(row.input)}: path_a={a} path_b={b}")
    return 0 if report.commutes else 1


def _cmd_oracle_diff(args, result) -> int:
    state = result.exchange.state
    po = get_potential(state, args.po)
    relation, index_attr, target_attr = _this.oracle_route(po, state.relations)
    extensions = _this.oracle_index(relation, index_attr, target_attr)
    rows = []
    all_equal = True
    for index in po.index_domain.sorted_elements():
        indexed = derive_actual(state, po, index).elements
        oracle = extensions.get(index, frozenset())
        equal = indexed == oracle
        all_equal = all_equal and equal
        rows.append((
            index.text,
            format_atom_set(indexed),
            format_atom_set(oracle),
            "EQUAL" if equal else "DIFFER",
        ))
    _print_table(("index", "indexed", "oracle", "verdict"), rows, args.format)
    return 0 if all_equal else 1


def _print_table(header, rows, style):
    if style == "tsv":
        for row in rows:
            print("\t".join(row))
        return
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _cmd_query(args, result) -> int:
    expr = parse_query(args.expr)
    response = result.exchange.dispatch(Query(expr))
    if not response.ok:
        print(f"error: {response.message}", file=sys.stderr)
        return 1
    print(_this.format_query_result(response.value, args.format))
    return 0


def _cmd_dump(args, result) -> int:
    sys.stdout.write(_this.dump(result.exchange.state))
    return 0


def _cmd_audit(args, result) -> int:
    sys.stdout.write(result.exchange.audit_text())
    return 0


# Each top-level option -> its argparse options, in the order that help
# lists them.  The direct reader takes its defaults and choices from here.
OPTIONS = {
    "--workspace": dict(default=".", metavar="<dir>",
                        help="directory of .dodl files (default: .)"),
    "--quiet": dict(action="store_true", help="suppress informational output"),
    "--format": dict(choices=("text", "tsv"), default="text",
                     help="style for tabular outputs"),
}

# Each command word -> its help line, its positional arguments with their
# argparse options, and its handler, in the order that help lists them.
COMMANDS = {
    "load": ("parse, validate and build source files",
             {"files": {"nargs": "+"}}, _cmd_load),
    "index": ("trigger one event and print the result",
              {"po": {}, "atom": {}}, _cmd_index),
    "functor": ("print the whole index-to-object map", {"po": {}}, _cmd_functor),
    "script": ("run an event script", {"name": {}}, _cmd_script),
    "evolve": ("apply an evolvent", {"name": {}}, _cmd_evolve),
    "check": ("run a diagram commutativity report", {"diagram": {}}, _cmd_check),
    "oracle-diff": ("compare indexing with the relational oracle",
                    {"po": {}}, _cmd_oracle_diff),
    "query": ("evaluate a relational expression", {"expr": {}}, _cmd_query),
    "dump": ("print the canonical workspace text", {}, _cmd_dump),
    "audit": ("print the exchange audit log", {}, _cmd_audit),
}


if __name__ == "__main__":
    sys.exit(main())
