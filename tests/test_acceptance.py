"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines as they print).  Every tolerance is exact set or
byte equality; the runtime bounds below are part of the criteria.
"""

import random
import time

from conftest import TEACHING, teaches
from dodl.checker import check_commutes, enumerate_entry
from dodl.cli import main
from dodl.core import symbol
from dodl.diagrams import (
    Apply,
    Const,
    DiagramSpec,
    Filter,
    FilterRef,
    Fst,
    Input,
    Not,
    Pair,
    Snd,
    Subst,
    Var,
    run_filter,
)
from dodl.errors import CycleDetected
from dodl.evolver import Workspace, apply_evolvent, run_script, trigger
from dodl.lang import dump, load_files, load_texts
from dodl.meta import Concept, ConceptRegistry
from dodl.relational import oracle_index, project, select, union
from dodl.diagrams import TruePred
from reference import eval_expr, reference_filter, same_contents
from wsgen import gen_indexed_case, gen_workspace

PASS = "ACCEPTANCE PASS"


def load_teaching() -> Workspace:
    result = load_files([TEACHING])
    assert result.ok, [d.render() for d in result.diagnostics]
    return result.workspace


def test_criterion_1_teaching_corpus_indexing_exact(capsys):
    started = time.monotonic()
    ws = load_teaching()
    _, logic = trigger(ws, "Tch", symbol("Logic"))
    _, informatics = trigger(ws, "Tch", symbol("Informatics"))
    assert logic.elements == frozenset({symbol("Johnes"), symbol("Smith")})
    assert informatics.elements == frozenset({symbol("Doe"), symbol("Jackson")})
    # Same answer end to end through the shell.
    code = main(["--workspace", str(TEACHING.parent), "index", "Tch", "Logic"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "Tch_Logic = { Johnes, Smith }\n"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"{PASS} 1: teaching-corpus indexing exact ({elapsed:.2f}s)")


def test_criterion_2_indexing_equals_relational_oracle():
    started = time.monotonic()
    ws = load_teaching()
    extensions = oracle_index(ws.relations["Relationship1"], "Course", "Name")
    for index in ws.potentials["Tch"].index_domain.sorted_elements():
        _, ao = trigger(ws, "Tch", index)
        assert ao.elements == extensions.get(index, frozenset())

    rng = random.Random(2024)
    cases = 0
    checks = 0
    while cases < 100:
        case_ws, po_name, raw_rows, index_pos, candidate_pos = \
            gen_indexed_case(rng)
        po = case_ws.potentials[po_name]
        rel = case_ws.relations["R"]
        index_attr = rel.attribute_names[index_pos]
        target_attr = rel.attribute_names[candidate_pos]
        extensions = oracle_index(rel, index_attr, target_attr)
        for index in po.index_domain.sorted_elements():
            _, ao = trigger(case_ws, po_name, index)
            oracle = extensions.get(index, frozenset())
            assert ao.elements == oracle
            brute = {row[candidate_pos] for row in raw_rows
                     if row[index_pos] == index.text}
            assert {a.text for a in ao.elements} == brute
            checks += 1
        cases += 1
    elapsed = time.monotonic() - started
    assert cases >= 100 and checks >= 100
    assert elapsed < 10.0
    print(f"{PASS} 2: indexing equals the relational oracle on "
          f"{cases} random relations / {checks} index values ({elapsed:.2f}s)")


def test_criterion_3_diagram_commutativity():
    started = time.monotonic()
    ws = load_teaching()
    spec = ws.diagrams["Fig4"]
    report = check_commutes(spec, enumerate_entry(spec, ws), ws)
    assert report.total == 8 and report.agreeing == 8
    assert report.commutes

    negated = Filter("TchFilterNeg", "idx", "x",
                     Not(ws.filters["TchFilter"].body))
    broken_ws = ws.replace(filters={**ws.filters, "TchFilterNeg": negated})
    broken = DiagramSpec("Fig4Broken", spec.entry, spec.path_a,
                         (Apply(FilterRef("TchFilterNeg"), Input()),),
                         spec.exit)
    broken_report = check_commutes(
        broken, enumerate_entry(broken, broken_ws), broken_ws)
    assert broken_report.total == 8 and broken_report.agreeing == 0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"{PASS} 3: diagram commutes 8/8, negated variant 0/8 "
          f"({elapsed:.2f}s)")


def test_criterion_4_identity_evolvent_fixed_point():
    started = time.monotonic()
    ws = run_script(load_teaching(), "AssignAll")
    after = apply_evolvent(ws, "Still")
    assert after.domains == ws.domains
    assert after.relations == ws.relations
    assert after.concepts == ws.concepts
    assert after.ao_library == ws.ao_library
    assert after.stage == ws.stage
    assert after == ws
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"{PASS} 4: identity evolvent is a fixed point ({elapsed:.2f}s)")


def _has_cycle(n, edges) -> bool:
    color = [0] * n

    def visit(u):
        color[u] = 1
        for a, b in edges:
            if a == u:
                if color[b] == 1:
                    return True
                if color[b] == 0 and visit(b):
                    return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(n))


def test_criterion_5_inheritance_suite():
    started = time.monotonic()
    graphs = 0
    for n in range(1, 5):
        nodes = [f"N{i}" for i in range(n)]
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in range(2 ** len(arcs)):
            edges = {arcs[k] for k in range(len(arcs)) if bits >> k & 1}
            registry = ConceptRegistry()
            rejected = False
            try:
                for i, name in enumerate(nodes):
                    parents = tuple(nodes[j] for (a, j) in sorted(edges)
                                    if a == i)
                    registry.add(Concept(name, parents))
            except CycleDetected:
                rejected = True
            assert rejected == _has_cycle(n, edges)
            graphs += 1

    registry = ConceptRegistry()
    registry.add(Concept("TeachingPost",
                         own_attributes={"hours_default": symbol("h20")}))
    registry.derive("TeachingPost", "LogicPost", {})
    registry.derive("TeachingPost", "InformaticsPost",
                    {"hours_default": symbol("h30")})
    assert registry.resolve_attribute("LogicPost", "hours_default") \
        == symbol("h20")
    assert registry.resolve_attribute("InformaticsPost", "hours_default") \
        == symbol("h30")

    diamond = ConceptRegistry()
    diamond.add(Concept("A", own_attributes={"a": symbol("fromA")}))
    diamond.add(Concept("B", ("A",), {"a": symbol("fromB")}))
    diamond.add(Concept("C", ("A",), {"a": symbol("fromC")}))
    diamond.add(Concept("D", ("B", "C")))
    assert diamond.resolve_attribute("D", "a") == symbol("fromB")
    assert diamond.ancestors("D") == ["B", "A", "C"]
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"{PASS} 5: inheritance suite over {graphs} digraphs, "
          f"shadowing and diamond ({elapsed:.2f}s)")


def test_criterion_6_projection_and_substitution_laws():
    started = time.monotonic()
    rng = random.Random(6)
    empty_ws = Workspace()
    words = ["Ash", "Beech", "Cedar", "Dawn", "Elder", "Fern"]
    for _ in range(200):
        a, b = symbol(rng.choice(words)), symbol(rng.choice(words))
        pair = Pair(Const(a), Const(b))
        assert eval_expr(Fst(pair), empty_ws) == a
        assert eval_expr(Snd(pair), empty_ws) == b
        # subst binds for its target only, and an inner binding shadows.
        swap = Subst("v", Pair(Input(), Var("v")), Fst(Input()))
        assert eval_expr(swap, empty_ws, step_input=(a, b)) == ((a, b), a)
        shadow = Subst("v", Pair(Subst("v", Var("v"), Const(b)), Var("v")),
                       Const(a))
        assert eval_expr(shadow, empty_ws) == (b, a)

    ws = load_teaching()
    f = ws.filters["TchFilter"]
    pairs = 0
    for course in ws.domains["Course"].sorted_elements():
        for teacher in ws.domains["Teach"].sorted_elements():
            direct = run_filter(f, course, teacher, ws)
            assert direct == reference_filter(f, course, teacher, ws)
            assert direct == teaches(course.text, teacher.text)
            pairs += 1
    assert pairs == 8

    for _ in range(40):
        case_ws, po_name, _, _, _ = gen_indexed_case(rng)
        po = case_ws.potentials[po_name]
        for index in po.index_domain.sorted_elements():
            for candidate in po.carrier.sorted_elements():
                direct = run_filter(po.filter, index, candidate, case_ws)
                assert direct == reference_filter(po.filter, index, candidate,
                                                  case_ws)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"{PASS} 6: projection and substitution laws ({elapsed:.2f}s)")


def test_criterion_7_round_trip():
    started = time.monotonic()
    checked = 0
    first = dump(load_teaching())
    reloaded = load_texts([(None, first)])
    assert reloaded.ok
    assert dump(reloaded.workspace) == first
    checked += 1

    rng_seeds = range(50)
    for seed in rng_seeds:
        workspace = gen_workspace(random.Random(seed + 7000))
        text = dump(workspace)
        result = load_texts([(None, text)])
        assert result.ok, (seed, [d.render() for d in result.diagnostics])
        assert dump(result.workspace) == text, seed
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 51
    assert elapsed < 5.0
    print(f"{PASS} 7: byte-identical round trip on {checked} workspaces "
          f"({elapsed:.2f}s)")


def test_criterion_8_relational_algebra_laws():
    from test_relational import random_relation, random_row_predicate

    started = time.monotonic()
    rng = random.Random(8)
    laws = 0
    for _ in range(100):
        r = random_relation(rng)
        assert same_contents(select(r, TruePred()), r)
        names = list(r.attribute_names)
        outer = rng.sample(names, rng.randint(1, len(names)))
        inner = rng.sample(outer, rng.randint(1, len(outer)))
        assert same_contents(project(project(r, outer), inner),
                             project(r, inner))
        laws += 2
    for _ in range(100):
        shared = random_relation(rng, "Schema").attributes
        r2 = random_relation(rng, "R", shared)
        s2 = random_relation(rng, "S", shared)
        pred = random_row_predicate(rng, r2)
        assert same_contents(select(union(r2, s2), pred),
                             union(select(r2, pred), select(s2, pred)))
        laws += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"{PASS} 8: relational algebra laws, {laws} instances "
          f"({elapsed:.2f}s)")
