"""The traced benchmark wraps dodl functions by the names callers use.

``perfbench/tracing.py`` finds each function by (module, attribute). A
refactor that moves one of them would otherwise only show up as a failing
``--trace 1`` run, so these tests load that file as it is and check its
names against the package under test.
"""

import importlib.util
import json
from pathlib import Path

import dodl.cli
from conftest import run_python
from dodl.checker import compile_expr
from dodl.core import symbol
from dodl.diagrams import Apply, Const, FilterRef, Input, Pair
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


def test_derive_actual_runs_the_plan_once_per_index(teaching_ws, monkeypatch):
    # dodl.evolver.run_filter stays a name the tracer wraps, but derivation
    # runs the filter's plan over the carrier instead.
    filter_calls = [counting(monkeypatch, f"dodl.{module}.run_filter")
                    for module in ("evolver", "diagrams")]
    po = teaching_ws.potentials["Tch"]
    plan, plans = po.filter._test, []

    def counted(*args):
        plans.append(args)
        return plan(*args)

    spy = po.filter.replace()
    object.__setattr__(spy, "_test", counted)
    po = po.replace(filter=spy)
    for index in po.index_domain.sorted_elements():
        derive_actual(teaching_ws, po, index)
    ao = derive_actual(teaching_ws, po, symbol("Logic"))
    assert ao.elements == {symbol("Johnes"), symbol("Smith")}
    assert [args[:2] for args in plans] == \
        [(index, po.carrier.elements)
         for index in (*po.index_domain.sorted_elements(), symbol("Logic"))]
    assert filter_calls == [[], []]


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


def test_a_fresh_interpreter_traces_the_deferred_engines(teaching_dir):
    """The in-process tests run after other tests have imported every
    module.  In a fresh interpreter, the tracer is what first reads the
    names that load on first use, and each must still be found and
    wrapped where the commands read it."""
    calls = [["check", "Fig4"], ["dump"],
             ["query", "project (select Relationship1 where Course = Logic) [Name]"],
             ["oracle-diff", "Tch"]]
    script = f"""\
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
import dodl.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [dodl.cli.main(["--workspace", sys.argv[1], *argv]) for argv in {calls!r}]
print(json.dumps({{"missing": sorted(tracer.missing), "codes": codes,
                  "spans": sorted({{span[2] for span in tracer.spans}})}}))
"""
    proc = run_python("-c", script, str(teaching_dir))
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)
    assert result["missing"] == []
    assert result["codes"] == [0] * len(calls)
    assert {"diagrams.check", "diagrams.filter", "printer.dump", "printer.format",
            "relational.query", "relational.oracle"} <= set(result["spans"])


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
