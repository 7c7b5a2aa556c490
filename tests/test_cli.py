import os
import subprocess
import sys
from pathlib import Path

import pytest

import dodl
from dodl.cli import main
from dodl.lang import dump
from dodl.relational import Relation


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv) -> subprocess.CompletedProcess:
    """A child interpreter that imports the package under test."""
    src = str(Path(dodl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m dodl`` in a fresh process."""
    return run_python("-m", "dodl", *argv)


class TestIndex:
    def test_prints_the_derived_object(self, capsys, teaching_dir):
        code, out, err = run_cli(capsys, "--workspace", str(teaching_dir),
                                 "index", "Tch", "Logic")
        assert code == 0
        assert out == "Tch_Logic = { Johnes, Smith }\n"
        assert err == ""

    def test_informatics(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "index", "Tch", "Informatics")
        assert code == 0
        assert out == "Tch_Informatics = { Doe, Jackson }\n"

    def test_unknown_potential_object_fails(self, capsys, teaching_dir):
        code, out, err = run_cli(capsys, "--workspace", str(teaching_dir),
                                 "index", "Nope", "Logic")
        assert code == 1
        assert "Nope" in err

    def test_bad_index_fails(self, capsys, teaching_dir):
        code, _, err = run_cli(capsys, "--workspace", str(teaching_dir),
                               "index", "Tch", "Algebra")
        assert code == 1
        assert "Algebra" in err

    def test_non_ascii_index_is_an_error_not_a_traceback(self, capsys,
                                                         teaching_dir):
        for atom in ("²2", "١٢", "Café"):
            code, out, err = run_cli(capsys, "--workspace", str(teaching_dir),
                                     "index", "Tch", atom)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and "non-ASCII" in err
            assert "Traceback" not in err

    def test_an_internal_fault_is_reported_not_raised(self, capsys,
                                                      teaching_dir, monkeypatch):
        def fault(*args):
            raise RuntimeError("filter exploded")

        monkeypatch.setattr("dodl.evolver.run_filter", fault)
        code, out, err = run_cli(capsys, "--workspace", str(teaching_dir),
                                 "index", "Tch", "Logic")
        assert code == 1
        assert out == ""
        assert err == "error: internal error: RuntimeError: filter exploded\n"


class TestFunctor:
    def test_full_mapping(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "functor", "Tch")
        assert code == 0
        assert out == ("Tch_Informatics = { Doe, Jackson }\n"
                       "Tch_Logic = { Johnes, Smith }\n")

    def test_tsv(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "--format", "tsv", "functor", "Tch")
        assert code == 0
        assert out == "Informatics\tDoe,Jackson\nLogic\tJohnes,Smith\n"


class TestCheck:
    def test_shipped_diagram(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "check", "Fig4")
        assert code == 0
        assert out == "8/8 inputs commute\n"

    def test_broken_diagram_exits_nonzero(self, capsys, teaching_dir):
        (teaching_dir / "broken.dodl").write_text(
            "filter TchFilterNeg (idx, x) ="
            " not member Relationship1 (idx, x, _);\n"
            "diagram Fig4Broken entry pair(Course, Teach)"
            " path_a [ apply(filter TchFilter, input) ]"
            " path_b [ apply(filter TchFilterNeg, input) ]"
            " exit bool;\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "check", "Fig4Broken")
        assert code == 1
        assert out.startswith("0/8 inputs commute\n")

    def test_tsv_rows(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "--format", "tsv", "check", "Fig4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8
        assert lines[0] == "(Informatics, Doe)\ttrue\ttrue\tEQUAL"

    def test_unknown_diagram(self, capsys, teaching_dir):
        code, _, err = run_cli(capsys, "--workspace", str(teaching_dir),
                               "check", "Nothing")
        assert code == 1
        assert "Nothing" in err


class TestOracleDiff:
    def test_table_marks_equal(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "oracle-diff", "Tch")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3  # header + one row per index
        assert lines[1].split()[0] == "Informatics"
        assert all("EQUAL" in line for line in lines[1:])

    def test_tsv(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "--format", "tsv", "oracle-diff", "Tch")
        assert code == 0
        assert out == (
            "Informatics\t{ Doe, Jackson }\t{ Doe, Jackson }\tEQUAL\n"
            "Logic\t{ Johnes, Smith }\t{ Johnes, Smith }\tEQUAL\n"
        )

    def test_non_membership_filter_is_refused(self, capsys, teaching_dir):
        (teaching_dir / "odd.dodl").write_text(
            "filter Odd (i, x) = true;\n"
            "potential Strange carrier Teach index Course filter Odd;\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "--workspace", str(teaching_dir),
                               "oracle-diff", "Strange")
        assert code == 1
        assert "relational twin" in err

    def test_oracle_does_not_share_the_probe_index(self, capsys, teaching_dir,
                                                   monkeypatch):
        # A probe that never matches breaks only the indexing route; the
        # oracle, a plain scan, must still see the rows and flag every index.
        monkeypatch.setattr(Relation, "probe_index",
                            lambda self, positions: frozenset())
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "oracle-diff", "Tch")
        assert code == 1
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(row.endswith("DIFFER") for row in rows)


class TestQuery:
    def test_oracle_query(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "query",
                               "oracle(Relationship1, Course = Logic, Name)")
        assert code == 0
        assert out == "{ Johnes, Smith }\n"

    def test_select_project(self, capsys, teaching_dir):
        code, out, _ = run_cli(
            capsys, "--workspace", str(teaching_dir), "query",
            "project (select Relationship1 where Course = Informatics) [Name]",
        )
        assert code == 0
        assert out == "Name\n(Doe)\n(Jackson)\n"

    def test_tsv_relation(self, capsys, teaching_dir):
        code, out, _ = run_cli(
            capsys, "--workspace", str(teaching_dir),
            "--format", "tsv", "query",
            "select Relationship1 where Hours = 30",
        )
        assert code == 0
        assert out == ("Course\tName\tHours\n"
                       "Informatics\tDoe\t30\n"
                       "Informatics\tJackson\t30\n")

    def test_malformed_query_is_an_error(self, capsys, teaching_dir):
        code, _, err = run_cli(capsys, "--workspace", str(teaching_dir),
                               "query", "select where")
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("query", [
        "(" * 3000 + "Teaching" + ")" * 3000,
        "project " * 3000 + "Teaching",
        "select Teaching where " + " and ".join(["Name = Doe"] * 3000),
    ], ids=["parentheses", "project", "and-chain"])
    def test_deep_nesting_is_an_error(self, capsys, teaching_dir, query):
        code, out, err = run_cli(capsys, "--workspace", str(teaching_dir),
                                 "query", query)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "nesting deeper than" in err

    def test_unknown_relation(self, capsys, teaching_dir):
        code, _, err = run_cli(capsys, "--workspace", str(teaching_dir),
                               "query", "Nowhere")
        assert code == 1


class TestScriptEvolve:
    def test_script_prints_the_library(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--quiet", "--workspace",
                               str(teaching_dir), "script", "AssignAll")
        assert code == 0
        assert out == ("Tch_Informatics = { Doe, Jackson }\n"
                       "Tch_Logic = { Johnes, Smith }\n")

    def test_evolve_identity_changes_nothing(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--quiet", "--workspace",
                               str(teaching_dir), "evolve", "Still")
        assert code == 0
        assert out == ""

    def test_evolve_reports_stage(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "evolve", "AssignTwice")
        assert code == 0
        assert out.endswith("stage 4\n")

    def test_unknown_script(self, capsys, teaching_dir):
        code, _, err = run_cli(capsys, "--workspace", str(teaching_dir),
                               "script", "Nothing")
        assert code == 1

    def test_evolve_a_deep_composition(self, teaching_dir):
        (teaching_dir / "deep.dodl").write_text(
            "".join(f"evolvent Deep{i} = compose(Deep{i + 1});\n"
                    for i in range(1199))
            + "evolvent Deep1199 = compose(Assign);\n",
            encoding="utf-8")
        proc = run_module("--workspace", str(teaching_dir), "evolve", "Deep0")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("Tch_Informatics = { Doe, Jackson }\n"
                               "Tch_Logic = { Johnes, Smith }\n"
                               "stage 2\n")


class TestDumpAndAudit:
    def test_dump_matches_the_library(self, capsys, teaching_dir, teaching_ws):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir), "dump")
        assert code == 0
        assert out == dump(teaching_ws)

    def test_audit_of_a_workspace_with_commands(self, capsys, teaching_dir):
        (teaching_dir / "zboot.dodl").write_text(
            "trigger Tch Logic;\ntrigger Tch Informatics;\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir), "audit")
        assert code == 0
        assert out == ("0\tTrigger\tTch[Logic]\tok\n"
                       "1\tTrigger\tTch[Informatics]\tok\n")

    def test_audit_empty_without_commands(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir), "audit")
        assert code == 0
        assert out == ""


class TestLoad:
    def test_valid_files(self, capsys, teaching_dir):
        code, out, err = run_cli(capsys, "load",
                                 str(teaching_dir / "teaching.dodl"))
        assert code == 0
        assert err == ""
        assert "ok:" in out

    def test_quiet_suppresses_the_summary(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--quiet", "load",
                               str(teaching_dir / "teaching.dodl"))
        assert code == 0
        assert out == ""

    def test_diagnostics_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.dodl"
        bad.write_text("domain X : = {};\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "load", str(bad))
        assert code == 1
        assert "bad.dodl:1:" in err

    def test_non_ascii_atoms_are_diagnostics(self, capsys, tmp_path):
        bad = tmp_path / "bad.dodl"
        bad.write_text("sort H : numeric;\ndomain D : H = { 1, ²2 };\n"
                       "sort N : symbolic;\ndomain E : N = { Café };\n",
                       encoding="utf-8")
        code, _, err = run_cli(capsys, "load", str(bad))
        assert code == 1
        assert "bad.dodl:2:" in err and "bad.dodl:4:" in err
        assert "Traceback" not in err

    def test_deep_nesting_is_a_diagnostic_not_a_traceback(self, tmp_path):
        deep = tmp_path / "deep.dodl"
        deep.write_text("sort S : symbolic;\ndomain D : S = { a };\n"
                        "filter F (i, x) = " + "not " * 3000 + "x = a;\n",
                        encoding="utf-8")
        proc = run_module("load", str(deep))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "deep.dodl:3:" in proc.stderr
        assert "nesting deeper than" in proc.stderr

    @pytest.mark.parametrize("word", ["and", "or"])
    def test_long_chain_is_a_diagnostic_not_a_traceback(self, tmp_path, word):
        chain = tmp_path / "chain.dodl"
        chain.write_text("sort S : symbolic;\ndomain D : S = { a };\n"
                         "filter F (i, x) = "
                         + f" {word} ".join(["x = a"] * 3000) + ";\n",
                         encoding="utf-8")
        proc = run_module("load", str(chain))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "chain.dodl:3:" in proc.stderr
        assert "nesting deeper than" in proc.stderr

    @pytest.mark.parametrize("graph", ["concept", "evolvent"])
    def test_a_deep_graph_loads(self, tmp_path, graph):
        deep = tmp_path / "deep.dodl"
        if graph == "concept":
            text = "concept N0 { };\n" + "".join(
                f"concept N{i} : N{i - 1} {{ }};\n" for i in range(1, 1200))
        else:
            text = "".join(f"evolvent N{i} = compose(N{i + 1});\n"
                           for i in range(1199)) + "evolvent N1199 = identity;\n"
        deep.write_text(text, encoding="utf-8")
        proc = run_module("load", str(deep))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("ok: ")

    def test_load_prints_command_outputs(self, capsys, teaching_dir):
        extra = teaching_dir / "zrun.dodl"
        extra.write_text("trigger Tch Logic;\ncheck Fig4;\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "--quiet", "load",
                               str(teaching_dir / "teaching.dodl"), str(extra))
        assert code == 0
        assert "Tch_Logic = { Johnes, Smith }" in out
        assert "Fig4: 8/8 inputs commute" in out


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_argument(self, capsys, teaching_dir):
        assert run_cli(capsys, "--workspace", str(teaching_dir), "index")[0] == 2

    def test_workspace_must_be_a_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--workspace",
                               str(tmp_path / "void"), "dump")
        assert code == 1
        assert "not a directory" in err


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys, teaching_dir):
        first = run_cli(capsys, "--workspace", str(teaching_dir),
                        "oracle-diff", "Tch")
        second = run_cli(capsys, "--workspace", str(teaching_dir),
                         "oracle-diff", "Tch")
        assert first == second


class TestEntryPoint:
    def test_module_invocation(self, teaching_dir):
        proc = run_module("--workspace", str(teaching_dir),
                          "index", "Tch", "Logic")
        assert proc.returncode == 0
        assert proc.stdout == "Tch_Logic = { Johnes, Smith }\n"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Every dodl call is a fresh process, so each module the import
        # pulls in is paid for on every call.
        proc = run_python("-c", "import sys, dodl.cli; "
                          "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
