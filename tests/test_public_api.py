"""The package's public names, whether loaded up front or on first use.

``dodl`` and ``dodl.lang`` import what loading and deriving need, and load
the checker, the printer and the relational algebra when one of their
names is first read.  Each table lists every public name a package gives,
with the module that defines it: ``from <package> import <name>`` must
give that module's object, and ``dir`` must list it.
"""

import importlib
import json

import pytest

import dodl
import dodl.lang
from conftest import run_python

DODL = {
    "dodl.core": ["ActualObject", "Atom", "Domain", "PotentialObject",
                  "Sort", "actual_name", "number", "symbol"],
    "dodl.diagrams": ["And", "Apply", "Const", "DiagramSpec", "Eq", "FalsePred",
                      "Filter", "FilterRef", "Fst", "IdArrow", "IndexShift",
                      "Input", "Member", "Not", "Or", "Pair", "Shape", "Snd",
                      "Subst", "TruePred", "Var", "Wildcard", "run_filter"],
    "dodl.checker": ["CommutativityReport", "check_commutes", "compile_expr",
                     "enumerate_entry"],
    "dodl.errors": ["DodlError"],
    "dodl.evolver": ["EventScript", "Evolvent", "Exchange", "Query", "Trigger",
                     "Workspace", "apply_evolvent", "materialize_functor",
                     "run_script", "trigger"],
    "dodl.lang.loader": ["build", "load_files", "load_texts", "validate"],
    "dodl.lang.parser": ["parse", "parse_query"],
    "dodl.lang.printer": ["dump"],
    "dodl.meta": ["Concept", "ConceptRegistry"],
    "dodl.relation": ["Relation"],
    "dodl.relational": ["difference", "eval_query", "join", "oracle_index",
                        "oracle_route", "project", "select", "union"],
}
LANG = {
    "dodl.lang.loader": ["LoadResult", "build", "load_files", "load_texts",
                         "validate"],
    "dodl.lang.parser": ["parse", "parse_query"],
    "dodl.lang.printer": ["dump"],
    "dodl.lang.syntax": ["Diagnostic", "SourceUnit"],
}
ENGINES = ["dodl.checker", "dodl.lang.printer", "dodl.relational"]


def cases(package, table):
    return [(package, module, name) for module, names in table.items()
            for name in names]


@pytest.mark.parametrize("package, module, name",
                         cases("dodl", DODL) + cases("dodl.lang", LANG))
def test_each_public_name_is_its_defining_modules_object(package, module, name):
    namespace = {}
    exec(f"from {package} import {name} as value", namespace)
    assert namespace["value"] is getattr(importlib.import_module(module), name)
    assert name in dir(importlib.import_module(package))


def test_dodl_lang_exports_what_it_lists():
    assert sorted(dodl.lang.__all__) == sorted(
        name for names in LANG.values() for name in names)


@pytest.mark.parametrize("package", [dodl, dodl.lang])
def test_an_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no attribute 'check_commute'"):
        package.check_commute
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import check_commute", {})


def test_importing_the_packages_loads_no_engine_until_a_name_is_read():
    script = f"""\
import json, sys
import dodl, dodl.lang
loaded = lambda: sorted(set({ENGINES!r}) & set(sys.modules))
steps = [loaded()]
for package, name in [("dodl", "check_commutes"), ("dodl.lang", "dump"),
                      ("dodl", "eval_query")]:
    getattr(sys.modules[package], name)
    steps.append(loaded())
print(json.dumps(steps))
"""
    proc = run_python("-c", script)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [[], ENGINES[:1], ENGINES[:2], ENGINES]
