"""The traced benchmark wraps dodl functions by the names callers use.

``perfbench/tracing.py`` finds each function by (module, attribute). A
refactor that moves one of them would otherwise only show up as a failing
``--trace 1`` run, so these tests load that file as it is and check its
names against the package under test.
"""

import importlib.util
from pathlib import Path

import dodl.cli
from dodl.core import symbol
from dodl.diagrams import Apply, Const, FilterRef, Input, Pair, compile_expr
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
    # Compiled before the wrapper is installed: the compiled Apply must
    # still look run_filter up when it runs.
    run = compile_expr(Apply(FilterRef("TchFilter"),
                             Pair(Const(symbol("Logic")), Input())))
    calls = counting(monkeypatch, "dodl.diagrams.run_filter")
    assert run(symbol("Johnes"), (), teaching_ws) is True
    assert run(symbol("Doe"), (), teaching_ws) is False
    assert len(calls) == 2


def test_a_demo_pass_reaches_every_boundary(teaching_dir, capsys):
    """One CLI call of each kind the benchmark makes, on the demo: every
    boundary must record a span, as ``perfbench/run.py --trace 1`` demands."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    workspace = ["--workspace", str(teaching_dir)]
    calls = [
        ["load", str(teaching_dir / "teaching.dodl")],
        [*workspace, "index", "Tch", "Logic"],
        [*workspace, "functor", "Tch"],
        [*workspace, "oracle-diff", "Tch"],
        [*workspace, "check", "Fig4"],
        [*workspace, "script", "AssignAll"],
        [*workspace, "dump"],
        [*workspace, "query",
         "project (select Relationship1 where Course = Logic) [Name]"],
        [*workspace, "query",
         "project (join(Relationship1, project Relationship1 [Course, Hours]))"
         " [Name, Hours]"],
        [*workspace, "query", "union(select Relationship1 where Course = Logic, "
                              "select Relationship1 where Hours = 30)"],
        [*workspace, "query", "difference(Relationship1, "
                              "select Relationship1 where Hours = 20)"],
    ]
    try:
        tracer.install()
        # Looked up on the module, as the benchmark does, so that the
        # wrapped ``main`` runs.
        codes = [dodl.cli.main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    assert capsys.readouterr().err == ""
    assert codes == [0] * len(calls)
    assert set(tracing.BOUNDARIES) - {span[2] for span in tracer.spans} == set()


def test_a_demo_oracle_diff_scans_the_relation_once(teaching_dir, capsys):
    """The oracle answers every index of one ``oracle-diff`` call from one
    ``oracle_index`` call, whatever the number of indexes."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = dodl.cli.main(["--workspace", str(teaching_dir),
                              "oracle-diff", "Tch"])
    finally:
        tracer.uninstall()
    assert capsys.readouterr().err == ""
    assert code == 0
    names = [span[2] for span in tracer.spans]
    assert names.count("relational.oracle") == 1
    assert names.count("evolver.derive") == 2


def test_a_demo_check_runs_the_filter_twice_per_entry(teaching_dir, capsys):
    """``check Fig4`` runs both paths at each of its 8 entries, and each
    path ends in one filter call: 16 ``diagrams.filter`` spans, none
    skipped and none answered from a cache."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = dodl.cli.main(["--workspace", str(teaching_dir), "check", "Fig4"])
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "8/8 inputs commute\n"
    assert code == 0
    names = [span[2] for span in tracer.spans]
    assert names.count("diagrams.check") == 1
    assert names.count("diagrams.filter") == 16
