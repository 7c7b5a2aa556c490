import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dodl
from argv_corpus import ARGV_CASES, expand, run_main
from cli_pins import PINS, calls, pin, source_directory, sources
from conftest import TEACHING, deadline
from dodl.cli import main
from dodl.lang import dump
from dodl.relational import Relation
from reference import reference_parser
from wsgen import gen_workspace


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, timeout: float | None = None) -> subprocess.CompletedProcess:
    """A child interpreter that imports the package under test."""
    src = str(Path(dodl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*argv, timeout: float | None = None) -> subprocess.CompletedProcess:
    """``python -m dodl`` in a fresh process."""
    return run_python("-m", "dodl", *argv, timeout=timeout)


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

    # Rows where R holds a candidate outside the carrier: the indexing route
    # drops it and the oracle, which does not restrict to the carrier, keeps it.
    @pytest.mark.parametrize("seed, po, differ", [
        (56, "P2", ["5\t{ }\t{ 17 }\tDIFFER"]),
        (91, "P1", ["Chi\t{ }\t{ Lambda, Rho }\tDIFFER"]),
        (138, "P0", ["22\t{ }\t{ 12 }\tDIFFER"]),
        (289, "P0", ["1\t{ }\t{ Zeta }\tDIFFER",
                     "2\t{ }\t{ Zeta }\tDIFFER"]),
    ])
    def test_differ_rows_on_generated_workspaces(self, capsys, tmp_path,
                                                 seed, po, differ):
        ws = gen_workspace(random.Random(seed))
        (tmp_path / "ws.dodl").write_text(dump(ws), encoding="utf-8")
        code, out, err = run_cli(capsys, "--workspace", str(tmp_path),
                                 "--format", "tsv", "oracle-diff", po)
        assert (code, err) == (1, "")
        rows = out.splitlines()
        assert [row for row in rows if row.endswith("DIFFER")] == differ
        assert len(rows) == len(ws.potentials[po].index_domain.elements)


class TestQuery:
    def test_oracle_query(self, capsys, teaching_dir):
        code, out, _ = run_cli(capsys, "--workspace", str(teaching_dir),
                               "query",
                               "oracle(Relationship1, Course = Logic, Name)")
        assert code == 0
        assert out == "{ Johnes, Smith }\n"

    @pytest.mark.parametrize("course, out", [("Logic", "{ Logic }\n"),
                                             ("Algebra", "{ }\n")])
    def test_oracle_query_with_the_index_as_target(self, capsys, teaching_dir,
                                                   course, out):
        code, got, _ = run_cli(
            capsys, "--workspace", str(teaching_dir), "query",
            f"oracle(Relationship1, Course = {course}, Course)")
        assert (code, got) == (0, out)

    @pytest.mark.parametrize("expr, source", [
        ("oracle(select Relationship1 where Course = Algebra, Nope = Logic, "
         "Name)", "sel_Relationship1"),
        ("oracle(Relationship1, Course = Logic, Nope)", "Relationship1"),
    ])
    def test_oracle_query_names_an_unknown_attribute_of_its_source(
            self, capsys, teaching_dir, expr, source):
        code, out, err = run_cli(capsys, "--workspace", str(teaching_dir),
                                 "query", expr)
        assert (code, out) == (1, "")
        assert err == f"error: relation {source!r} has no attribute 'Nope'\n"

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

    def test_a_join_chain_past_the_row_limit_fails_in_time(self, capsys,
                                                          tmp_path):
        # Eight relations of ten rows share one value of B, so each join
        # multiplies the rows by ten: 10**8 rows without the bound.
        lines = ["sort S : symbolic;"]
        for i in range(8):
            rows = ", ".join(f"(a{j}, b)" for j in range(10))
            lines.append(f"relation R{i} (A{i} : S, B : S) = {{ {rows} }};")
        chain = "R0"
        for i in range(1, 8):
            chain = f"join({chain}, R{i})"
        query = f"project ({chain}) [B]"
        source = tmp_path / "chain.dodl"
        source.write_text("\n".join(lines) + f"\nquery {query};\n",
                          encoding="utf-8")
        message = ("join of 'join_join_join_join_R0_R1_R2_R3_R4' and 'R5' "
                   "has more than 100000 rows")
        with deadline(10):
            code, _, err = run_cli(capsys, "load", str(source))
        assert code == 1
        assert err == f"{source}:10:1: {message}\n"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with deadline(10):
            code, out, err = run_cli(capsys, "--workspace", str(tmp_path),
                                     "query", query)
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    def test_evolve_a_compose_ladder_ends_in_a_diagnostic(self, teaching_dir):
        # E21 would run 2^24 - 1 steps; E14, at 2^17 - 1, is the first
        # past the limit, and the load stops there.
        ladder = teaching_dir / "ladder.dodl"
        ladder.write_text(
            "evolvent E0 = compose(Assign, Assign);\n"
            + "".join(f"evolvent E{i} = compose(E{i - 1}, E{i - 1});\n"
                      for i in range(1, 22)),
            encoding="utf-8")
        proc = run_module("--workspace", str(teaching_dir), "evolve", "E21",
                          timeout=10)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"{ladder}:15:1: evolvent 'E14' expands to more than "
                   f"100000 steps\n")


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

    def test_a_numeral_past_the_int_conversion_limit(self, capsys, tmp_path):
        long = "1" * 5000
        text = f"sort N : numeric;\ndomain D : N = {{ {long}, 7 }};\n"
        (tmp_path / "long.dodl").write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "load", str(tmp_path / "long.dodl"))
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, "--workspace", str(tmp_path), "dump")
        assert (code, err) == (0, "")
        assert f"domain D : N = {{ 7, {long} }};" in out

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

    def test_a_failed_statement_prints_no_ok_line(self, capsys, teaching_dir):
        extra = teaching_dir / "zrun.dodl"
        extra.write_text("trigger Tch Logic;\nquery project Relationship1 [Nope];\n",
                         encoding="utf-8")
        code, out, err = run_cli(capsys, "load",
                                 str(teaching_dir / "teaching.dodl"), str(extra))
        assert (code, out, err) == (
            1, "Tch_Logic = { Johnes, Smith }\n",
            f"{extra}:2:1: relation 'Relationship1' has no attribute 'Nope'\n")
        extra.write_text("trigger Tch Logic;\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "load",
                                 str(teaching_dir / "teaching.dodl"), str(extra))
        assert (code, out, err) == (
            0, "Tch_Logic = { Johnes, Smith }\nok: 3 domain(s), 1 relation(s), "
               "1 potential object(s), 3 concept(s); stage 1\n", "")


def unreadable_case(kind, root):
    """The argv of a call that meets an unreadable source file, and the
    diagnostic it must print."""
    ws = root / "ws"
    ws.mkdir()
    (ws / "teaching.dodl").write_text(TEACHING.read_text(encoding="utf-8"),
                                      encoding="utf-8")
    if kind == "missing":
        return ["load", str(root / "missing.dodl")], \
            f"{root / 'missing.dodl'}:1:1: cannot read file: no such file or directory"
    if kind == "dash-h":
        return ["load", "--", "-h"], \
            "-h:1:1: cannot read file: no such file or directory"
    if kind == "directory":
        return ["load", str(ws)], f"{ws}:1:1: cannot read file: is a directory"
    if kind == "workspace-directory":
        (ws / "x.dodl").mkdir()
        return ["--workspace", str(ws), "dump"], \
            f"{ws / 'x.dodl'}:1:1: cannot read file: is a directory"
    (ws / "latin1.dodl").write_bytes(b"sort S : symbolic;\n"
                                     b"domain D : S = { caf\xe9 };\n")
    return ["--workspace", str(ws), "dump"], \
        f"{ws / 'latin1.dodl'}:2:21: not UTF-8 text: invalid continuation byte"


UNREADABLE = ["missing", "dash-h", "directory", "workspace-directory",
              "not-utf-8"]


class TestUnreadableFiles:
    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_in_process(self, capsys, tmp_path, monkeypatch, kind):
        monkeypatch.chdir(tmp_path)
        argv, diagnostic = unreadable_case(kind, tmp_path)
        assert run_cli(capsys, *argv) == (1, "", diagnostic + "\n")

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_through_the_module(self, tmp_path, monkeypatch, kind):
        monkeypatch.chdir(tmp_path)
        argv, diagnostic = unreadable_case(kind, tmp_path)
        proc = run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "", diagnostic + "\n")

    def test_no_permission(self, capsys, tmp_path, monkeypatch):
        # A real chmod does not stop a superuser from reading, so the
        # refusal is raised where the file is read.
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        locked = tmp_path / "locked.dodl"
        assert run_cli(capsys, "load", str(locked)) == \
            (1, "", f"{locked}:1:1: cannot read file: permission denied\n")

    def fifo_case(self, root):
        unreadable_case("missing", root)
        fifo = root / "ws" / "z.dodl"
        os.mkfifo(fifo)
        return ["--workspace", str(root / "ws"), "dump"], \
            f"{fifo}:1:1: cannot read file: is a FIFO\n"

    def test_fifo_in_process(self, capsys, tmp_path):
        argv, diagnostic = self.fifo_case(tmp_path)
        with deadline(10):
            assert run_cli(capsys, *argv) == (1, "", diagnostic)

    def test_fifo_through_the_module(self, tmp_path):
        argv, diagnostic = self.fifo_case(tmp_path)
        proc = run_module(*argv, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", diagnostic)

    def test_path_with_a_nul_character(self, capsys):
        assert run_cli(capsys, "load", "a\x00b") == \
            (1, "", "a\x00b:1:1: cannot read file: embedded null byte\n")

    def test_every_unreadable_file_is_named(self, capsys, tmp_path):
        unreadable_case("workspace-directory", tmp_path)
        ws = tmp_path / "ws"
        code, out, err = run_cli(capsys, "load", str(tmp_path / "gone.dodl"),
                                 str(ws / "teaching.dodl"), str(ws / "x.dodl"))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"{tmp_path / 'gone.dodl'}:1:1: cannot read file: "
            "no such file or directory",
            f"{ws / 'x.dodl'}:1:1: cannot read file: is a directory",
        ]


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


class TestDeferredParsers:
    @pytest.mark.parametrize("case", ARGV_CASES, ids=" ".join)
    def test_output_equals_the_eager_parser(self, teaching_dir, monkeypatch,
                                            case):
        monkeypatch.setenv("COLUMNS", "80")
        argv = expand(case, teaching_dir)
        assert run_main(argv) == run_main(argv, reference_parser)

    @pytest.mark.parametrize("argv, built", [
        (["index", "Tch", "Logic"], 2),
        (["dump"], 2),
        (["index", "-h"], 2),
        (["-h"], 1),
        (["frobnicate"], 1),
        ([], 1),
    ])
    def test_only_the_chosen_command_is_built(self, capsys, teaching_dir,
                                              monkeypatch, argv, built):
        constructed = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run_cli(capsys, "--workspace", str(teaching_dir), *argv)
        assert len(constructed) == built, constructed


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys, teaching_dir):
        first = run_cli(capsys, "--workspace", str(teaching_dir),
                        "oracle-diff", "Tch")
        second = run_cli(capsys, "--workspace", str(teaching_dir),
                         "oracle-diff", "Tch")
        assert first == second

    def test_every_command_gives_the_recorded_output(self):
        # The record written by cli_pins.py: every command with every name
        # it takes, on the demo and on wsgen seeds 0-149.
        records = json.loads(PINS.read_text(encoding="utf-8"))
        texts = {source: (name, text) for source, name, text in sources()}
        assert [record["source"] for record in records] == list(texts)
        for record in records:
            name, text = texts[record["source"]]
            assert name == record["file"]
            assert [argv for argv, _ in record["calls"]] == calls(name, text)
            with source_directory(name, text):
                differing = [argv for argv, pinned in record["calls"]
                             if pin(argv) != pinned]
            assert differing == [], record["source"]


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
