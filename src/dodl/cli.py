"""Batch shell: load a workspace directory and run one command against it.

Every invocation loads fresh from the ``*.dodl`` files of the workspace
directory (lexicographic file order); nothing persists between runs except
the source files themselves.  Exit codes: 0 success, 1 diagnostics, a
failed check or an internal fault, 2 usage error.

Each call builds the top-level argument parser and only the parser of the
subcommand it runs (see :class:`_DeferredParser`); argparse set-up was
otherwise a large share of a call on a small workspace.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import Atom
from .diagrams import (
    check_commutes,
    enumerate_entry,
    format_value,
)
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
from .lang import dump, load_files, parse_query
from .lang.printer import format_atom_set, format_query_result
from .relational import oracle_index, oracle_route


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dodl",
        description="Derive actual objects from potential objects by "
                    "indexing events, with a relational cross-check.",
    )
    parser.add_argument("--workspace", default=".", metavar="<dir>",
                        help="directory of .dodl files (default: .)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    parser.add_argument("--format", choices=("text", "tsv"), default="text",
                        help="style for tabular outputs")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_DeferredParser)

    p = sub.add_parser("load", help="parse, validate and build source files")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("index", help="trigger one event and print the result")
    p.add_argument("po")
    p.add_argument("atom")
    p = sub.add_parser("functor", help="print the whole index-to-object map")
    p.add_argument("po")
    p = sub.add_parser("script", help="run an event script")
    p.add_argument("name")
    p = sub.add_parser("evolve", help="apply an evolvent")
    p.add_argument("name")
    p = sub.add_parser("check", help="run a diagram commutativity report")
    p.add_argument("diagram")
    p = sub.add_parser("oracle-diff", help="compare indexing with the "
                                           "relational oracle")
    p.add_argument("po")
    p = sub.add_parser("query", help="evaluate a relational expression")
    p.add_argument("expr")
    sub.add_parser("dump", help="print the canonical workspace text")
    sub.add_parser("audit", help="print the exchange audit log")
    return parser


class _DeferredParser:
    """A subcommand's parser, built when argparse first uses it.

    ``add_argument`` calls are recorded, and the first other attribute
    read (``parse_known_args``, when the command is the one chosen) builds
    the real ``ArgumentParser`` and forwards to it from then on.  So a call
    builds the top-level parser and at most one subcommand parser, and
    help, usage errors and unknown commands build none.
    """

    def __init__(self, **kwargs):
        self._kwargs = kwargs
        self._arguments = []
        self._parser = None

    def add_argument(self, *args, **kwargs):
        self._arguments.append((args, kwargs))

    def __getattr__(self, name):
        if self._parser is None:
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
    handler = {
        "index": _cmd_index,
        "functor": _cmd_functor,
        "script": _cmd_script,
        "evolve": _cmd_evolve,
        "check": _cmd_check,
        "oracle-diff": _cmd_oracle_diff,
        "query": _cmd_query,
        "dump": _cmd_dump,
        "audit": _cmd_audit,
    }[args.command]
    return handler(args, result)


def _load_workspace(args):
    directory = Path(args.workspace)
    if not directory.is_dir():
        print(f"error: workspace {args.workspace!r} is not a directory",
              file=sys.stderr)
        return None
    files = sorted(directory.glob("*.dodl"))
    result = load_files(files)
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    if result.diagnostics or result.exchange is None:
        return None
    return result


def _cmd_load(args) -> int:
    result = load_files(args.files)
    for diagnostic in result.diagnostics:
        print(diagnostic.render(), file=sys.stderr)
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
    state = result.exchange.state
    _, ao = trigger(state, args.po, Atom.parse(args.atom))
    print(f"{ao.name} = {format_atom_set(ao.elements)}")
    return 0


def _cmd_functor(args, result) -> int:
    state = result.exchange.state
    mapping = materialize_functor(state, args.po)
    if args.format == "tsv":
        for index, ao in mapping.items():
            elements = ",".join(a.text for a in ao.sorted_elements())
            print(f"{index.text}\t{elements}")
    else:
        for ao in mapping.values():
            print(f"{ao.name} = {format_atom_set(ao.elements)}")
    return 0


def _print_library(state):
    for name in sorted(state.ao_library):
        ao = state.ao_library[name]
        print(f"{ao.name} = {format_atom_set(ao.elements)}")


def _cmd_script(args, result) -> int:
    state = run_script(result.exchange.state, args.name)
    _print_library(state)
    if not args.quiet:
        print(f"stage {state.stage}")
    return 0


def _cmd_evolve(args, result) -> int:
    state = apply_evolvent(result.exchange.state, args.name)
    _print_library(state)
    if not args.quiet:
        print(f"stage {state.stage}")
    return 0


def _cmd_check(args, result) -> int:
    state = result.exchange.state
    spec = state.diagrams.get(args.diagram)
    if spec is None:
        raise not_defined("diagram", args.diagram)
    report = check_commutes(spec, enumerate_entry(spec, state), state)
    if args.format == "tsv":
        for row in report.rows:
            print("\t".join((
                format_value(row.input),
                row.error_a or format_value(row.value_a),
                row.error_b or format_value(row.value_b),
                "EQUAL" if row.agrees else "DIFFER",
            )))
    else:
        print(report.summary())
        if not report.commutes:
            for row in report.rows:
                if not row.agrees:
                    a = row.error_a or format_value(row.value_a)
                    b = row.error_b or format_value(row.value_b)
                    print(f"  {format_value(row.input)}: "
                          f"path_a={a} path_b={b}")
    return 0 if report.commutes else 1


def _cmd_oracle_diff(args, result) -> int:
    state = result.exchange.state
    po = get_potential(state, args.po)
    relation, index_attr, target_attr = oracle_route(po, state.relations)
    extensions = oracle_index(relation, index_attr, target_attr)
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
    print(format_query_result(response.value, args.format))
    return 0


def _cmd_dump(args, result) -> int:
    sys.stdout.write(dump(result.exchange.state))
    return 0


def _cmd_audit(args, result) -> int:
    sys.stdout.write(result.exchange.audit_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
