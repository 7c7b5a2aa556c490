import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dodl.lang import dump, load_texts, parse, validate
from reference import declarations_equal
from wsgen import gen_workspace


def reload_dump(text: str) -> str:
    result = load_texts([(None, text)])
    assert result.ok, [d.render() for d in result.diagnostics]
    return dump(result.workspace)


class TestTeachingCorpus:
    def test_dump_is_a_fixed_point(self, teaching_ws):
        first = dump(teaching_ws)
        assert reload_dump(first) == first

    def test_statement_order_does_not_matter(self, teaching_ws):
        canonical = dump(teaching_ws)
        lines = canonical.strip().split("\n")
        rng = random.Random(4)
        for _ in range(5):
            rng.shuffle(lines)
            shuffled = "\n".join(lines) + "\n"
            assert reload_dump(shuffled) == canonical
        reversed_text = "\n".join(reversed(lines)) + "\n"
        assert reload_dump(reversed_text) == canonical

    def test_loading_a_dump_reproduces_the_declarations(self, teaching_ws):
        text = dump(teaching_ws)
        result = load_texts([(None, text)])
        assert result.ok
        assert declarations_equal(result.workspace, teaching_ws)

    def test_concepts_dump_parents_first(self, teaching_ws):
        text = dump(teaching_ws)
        order = [line.split()[1] for line in text.splitlines()
                 if line.startswith("concept ")]
        assert order.index("TeachingPost") < order.index("LogicPost")
        assert order.index("TeachingPost") < order.index("InformaticsPost")


class TestEdgeShapes:
    def test_single_domain_dumps_with_its_sort_dependency(self):
        result = load_texts([(None, "sort S : symbolic;\ndomain D : S = { B, A };\n")])
        assert result.ok
        assert dump(result.workspace) == (
            "sort S : symbolic;\n"
            "domain D : S = { A, B };\n"
        )

    def test_empty_collections_round_trip(self):
        source = (
            "sort S : symbolic;\n"
            "domain D : S = { };\n"
            "relation R (A : S) = { };\n"
            "script Nil = [ ];\n"
            "concept C { };\n"
            "evolvent E = identity;\n"
        )
        first = reload_dump(source)
        assert "domain D : S = { };" in first
        assert "relation R (A : S) = { };" in first
        assert "script Nil = [ ];" in first
        assert "concept C { };" in first
        assert reload_dump(first) == first

    def test_a_diagram_with_empty_paths_round_trips(self):
        source = ("sort S : symbolic;\ndomain D : S = { a };\n"
                  "diagram Same entry D path_a [ ] path_b [ ] exit D;\n")
        assert reload_dump(source) == source

    def test_numeric_atoms_print_by_value_order(self):
        source = "sort N : numeric;\ndomain D : N = { 30, 7, 20 };\n"
        text = reload_dump(source)
        assert "domain D : N = { 7, 20, 30 };" in text

    def test_leading_zeros_normalize(self):
        source = "sort N : numeric;\ndomain D : N = { 007, 7, 20 };\n"
        result = load_texts([(None, source)])
        assert result.ok
        assert any("duplicate atom" in n for n in result.notes)
        assert "domain D : N = { 7, 20 };" in dump(result.workspace)


class TestRandomWorkspaces:
    @pytest.mark.parametrize("seed", range(60))
    def test_dump_load_dump_is_byte_identical(self, seed):
        workspace = gen_workspace(random.Random(seed))
        first = dump(workspace)
        unit = parse(first)
        assert validate(unit) == [], (
            seed, [d.render() for d in validate(unit)]
        )
        result = load_texts([(None, first)])
        assert result.ok, (seed, [d.render() for d in result.diagnostics])
        assert dump(result.workspace) == first, seed
        assert declarations_equal(result.workspace, workspace), seed

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_shuffled_statements_dump_identically(self, seed):
        workspace = gen_workspace(random.Random(seed))
        canonical = dump(workspace)
        lines = canonical.strip().split("\n")
        if not lines or lines == [""]:
            return
        rng = random.Random(seed + 1000)
        rng.shuffle(lines)
        assert reload_dump("\n".join(lines) + "\n") == canonical, seed


DUMP_DIGEST = """
import hashlib, random
from dodl.lang import dump
from wsgen import gen_workspace
digest = hashlib.sha256()
for seed in range(300):
    digest.update(dump(gen_workspace(random.Random(seed))).encode())
print(digest.hexdigest())
"""


def test_generated_workspaces_do_not_depend_on_the_hash_seed():
    # String hashes, and so the iteration order of a set of atoms, change
    # with PYTHONHASHSEED; a seed's workspace must not.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = [
        subprocess.run([sys.executable, "-c", DUMP_DIGEST], capture_output=True,
                       text=True, check=True,
                       env={**os.environ, "PYTHONPATH": path,
                            "PYTHONHASHSEED": hash_seed}).stdout
        for hash_seed in ("1", "2")
    ]
    assert digests[0] == digests[1] != ""
