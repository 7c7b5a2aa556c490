"""The traced benchmark wraps dodl functions by the names callers use.

``perfbench/tracing.py`` finds each function by (module, attribute). A
refactor that moves one of them would otherwise only show up as a failing
``--trace 1`` run, so these tests load that file as it is and check its
names against the package under test.
"""

import importlib.util
from pathlib import Path

from dodl.core import Environment, symbol
from dodl.diagrams import Apply, Const, FilterRef, Pair, eval_expr
from dodl.evolver import derive_actual

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.missing == set()
    finally:
        tracer.uninstall()


def counting(monkeypatch, name):
    """Wrap the function at ``name`` and return the list of its calls."""
    module_name, attr = name.rsplit(".", 1)
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    calls = []

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_derive_actual_runs_the_filter_once_per_candidate(teaching_ws,
                                                         monkeypatch):
    calls = counting(monkeypatch, "dodl.evolver.run_filter")
    po = teaching_ws.potentials["Tch"]
    ao = derive_actual(teaching_ws, po, symbol("Logic"))
    assert len(calls) == len(po.carrier.elements)
    assert ao.elements == {symbol("Johnes"), symbol("Smith")}


def test_apply_runs_the_filter_through_diagrams(teaching_ws, monkeypatch):
    calls = counting(monkeypatch, "dodl.diagrams.run_filter")
    expr = Apply(FilterRef("TchFilter"),
                 Pair(Const(symbol("Logic")), Const(symbol("Johnes"))))
    assert eval_expr(expr, Environment.empty(), teaching_ws) is True
    assert len(calls) == 1
