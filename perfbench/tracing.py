"""Per-layer spans for the traced benchmark run.

The program has no spans of its own, so this module installs wrappers
around each layer's public functions, at every name a caller looks them
up by (``dodl.cli.load_files`` as well as the function in its defining
module).  A wrapper records one span: name, start, end, parent and the id
of the CLI call it belongs to.  A span's self time is its duration minus
the durations of its direct children, so the self times of one call's
spans sum to the duration of its root ``cli.main`` span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

# span name -> the (module, attribute) names callers look the function up by,
# for every function the benchmark's commands reach.  Methods are patched on
# their class, so every caller sees the wrapper.
BOUNDARIES = {
    "cli.main": [("dodl.cli", "main")],
    "lexer.tokenize": [("dodl.lang.parser", "tokenize")],
    "parser.parse": [("dodl.lang.loader", "parse")],
    "parser.parse_query": [("dodl.cli", "parse_query")],
    "loader.load_files": [("dodl.cli", "load_files")],
    "meta.registry": [("dodl.meta", f"ConceptRegistry.{m}")
                      for m in ("add", "get", "names", "__contains__", "__len__")],
    "printer.dump": [("dodl.cli", "dump")],
    "printer.format": [("dodl.cli", "format_atom_set"),
                       ("dodl.cli", "format_query_result"),
                       ("dodl.lang.printer", "format_relexpr")],
    "diagrams.filter": [("dodl.evolver", "run_filter"), ("dodl.diagrams", "run_filter")],
    "diagrams.check": [("dodl.cli", "check_commutes")],
    "diagrams.entry": [("dodl.cli", "enumerate_entry")],
    "relational.query": [("dodl.evolver", "eval_query"), ("dodl.relational", "eval_query")],
    "relational.select": [("dodl.relational", "select")],
    "relational.project": [("dodl.relational", "project")],
    "relational.join": [("dodl.relational", "join")],
    "relational.setop": [("dodl.relational", "union"), ("dodl.relational", "difference")],
    "relational.oracle": [("dodl.cli", "oracle_index"), ("dodl.relational", "oracle_index")],
    "evolver.derive": [("dodl.cli", "derive_actual"), ("dodl.evolver", "derive_actual")],
    "evolver.trigger": [("dodl.cli", "trigger"), ("dodl.evolver", "trigger")],
    "evolver.functor": [("dodl.cli", "materialize_functor")],
    "evolver.script": [("dodl.cli", "run_script")],
    "evolver.exchange": [("dodl.evolver", "Exchange.dispatch")],
}

LAYERS = ("cli", "lexer", "parser", "loader", "meta", "printer",
          "diagrams", "relational", "evolver")


def layer_of(name: str) -> str:
    return name.split(".")[0]


_COUNTED = {"lexer.tokenize", "parser.parse", "printer.dump", "printer.format",
            "diagrams.check"}


def _work(name: str, result) -> int:
    """The unit of work a span did, where the layer has one."""
    if name == "lexer.tokenize":
        return len(result[0])
    if name == "parser.parse":
        return len(result.statements)
    if name in ("printer.dump", "printer.format") and isinstance(result, str):
        return len(result.encode())
    if name == "diagrams.check":
        return len(result.rows)
    return 0


class Tracer:
    """Spans kept in memory as ``(call, parent, name, start_ns, end_ns, work)``;
    a span's id is its position in :attr:`spans`, and each root span starts
    a new call id."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.call = 0
        self.missing: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            if not stack:
                self.call += 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (self.call, parent, name, start, end, 0)
            if name in _COUNTED:
                spans[span] = (self.call, parent, name, start, end, _work(name, result))
            return result

        return traced

    def install(self):
        for name, sites in BOUNDARIES.items():
            for module_name, path in sites:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(attr) if isinstance(owner, type) \
                    else getattr(owner, attr, None)
                if original is None:
                    self.missing.add(f"{module_name}.{path}")
                    continue
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self, first: int, last: int) -> list[int]:
        """Self time in ns of spans ``first`` to ``last`` (exclusive), which
        must hold whole calls."""
        own = [s[4] - s[3] for s in self.spans[first:last]]
        for s in self.spans[first:last]:
            if s[1] >= first:
                own[s[1] - first] -= s[4] - s[3]
        return own

    def totals(self, first: int, last: int) -> dict[str, list[int]]:
        """Per span name: [self ns, span count, work] over a range of spans.

        Work counts only where a span is entered from another layer, so a
        recursive printer call does not count its bytes twice."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for span, own in zip(self.spans[first:last], self.self_times(first, last)):
            entry = out[span[2]]
            entry[0] += own
            entry[1] += 1
            parent = self.spans[span[1]] if span[1] >= 0 else None
            if parent is None or layer_of(parent[2]) != layer_of(span[2]):
                entry[2] += span[5]
        return out

    def write(self, path: Path):
        with path.open("w", encoding="utf-8") as out:
            out.write("call\tspan\tparent\tname\tstart_ns\tend_ns\twork\n")
            for span_id, (call, parent, name, start, end, work) in enumerate(self.spans):
                out.write(f"{call}\t{span_id}\t{parent}\t{name}\t{start}\t{end}\t{work}\n")


def layer_metrics(totals: dict[str, list[int]]) -> dict[str, float]:
    """The per-layer metrics of one rotation, from :meth:`Tracer.totals`."""
    def self_ms(*names):
        return sum(totals[n][0] for n in names if n in totals) / 1e6

    def by_layer(layer):
        return self_ms(*[n for n in totals if layer_of(n) == layer])

    def count(name):
        return totals[name][1] if name in totals else 0

    def work(name):
        return totals[name][2] if name in totals else 0

    filter_ms = self_ms("diagrams.filter")
    filter_calls = count("diagrams.filter")
    return {
        **{f"{layer}.self_ms": by_layer(layer) for layer in LAYERS},
        "lexer.tokens": work("lexer.tokenize"),
        "parser.statements": work("parser.parse"),
        "printer.bytes": work("printer.dump") + work("printer.format"),
        "diagrams.filter_calls": filter_calls,
        "diagrams.filter_self_ms": filter_ms,
        "diagrams.filter_us_per_call": filter_ms * 1e3 / filter_calls if filter_calls else 0.0,
        "diagrams.check_self_ms": self_ms("diagrams.check"),
        "diagrams.check_inputs": work("diagrams.check"),
        "relational.select_self_ms": self_ms("relational.select"),
        "relational.project_self_ms": self_ms("relational.project"),
        "relational.join_self_ms": self_ms("relational.join"),
        "relational.setop_self_ms": self_ms("relational.setop"),
        "relational.oracle_self_ms": self_ms("relational.oracle"),
        "evolver.derive_self_ms": self_ms("evolver.derive"),
        "evolver.derive_calls": count("evolver.derive"),
        "evolver.trigger_self_ms": self_ms("evolver.trigger"),
        "evolver.exchange_self_ms": self_ms("evolver.exchange"),
    }
