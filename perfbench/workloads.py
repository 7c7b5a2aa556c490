"""Seeded benchmark workloads, built without importing dodl.

Each workload is a plain-Python model of a workspace: raw atoms and rows,
each filter as a Python test, and the canonical text of every declaration.
From the model come the DODL source the engine loads and the exact stdout
every CLI command must print, so the expected answers share no code with
the engine they check.

Workloads:

* ``demo``: the shipped teaching workspace, demo/teaching.dodl.
  The data is tiny, so fixed per-invocation costs dominate.
* ``member-scan``: 20 index x 50 carrier atoms, |R| = 100, a
  ``member R (idx, x, _)`` filter, a Fig4 diagram over 1000 inputs and a
  script that triggers every index.  The linear membership scan dominates.
* ``bulk-text``: about 32 KB of DODL with four 250-tuple relations, a
  250-tuple join partner, 75 concepts, a compound filter and a 250-step
  script.  The language layers and relational operators dominate.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEMO_FILE = Path(__file__).resolve().parent.parent / "demo" / "teaching.dodl"

# The order every command of a rotation runs in; also the metric prefixes.
COMMANDS = ("load", "index", "functor", "oracle_diff", "check", "query",
            "query_join", "dump", "script")

WORKLOADS = ("demo", "member-scan", "bulk-text")

# SHA-256 of the stdout of each demo call, in rotation order, recorded from
# the CLI at the commit that introduced this benchmark.  The CLI text must
# not change, so the answers computed below must keep these digests.
DEMO_STDOUT_SHA256 = (
    "a50bd9c4fe8ed056176c037daccaa3d3a52421ddd08d39ad92fe533d85274944",  # load
    "03e1fa76fc7b13774eb249cc921f3dade14c6daeffbc3f1d88704ad53f4b1fa3",  # index
    "a225d15c5f5a44646bbdd94eab447de6fc3410e3abe7619ff0600111ca7db80f",  # functor
    "61f95291d720010445fde510bb1ae7db7d0576b47fd3e67055fadaab017f42c9",  # oracle-diff
    "2ace6059f57121cffbaa5e0a77090db7539de0bf8871dd75717098f2c879841c",  # check
    "bac9b0b6887b7ce67c1b31703cc48b1fd0318a9155a89fe25b464907ece4c9a1",  # query
    "92771e1f31662f8b860544e725a8c1ec5a6199acbba29d607b56c1a6ec8fd608",  # query
    "ae58f15fa11e68e352e1632f02829faf1d37fab99eff416ed88341867a58f132",  # query
    "7c6de2ec3448cd647cd2091833c953391e25984536f8b41c216f90c2fa126a98",  # query_join
    "5e2c3ef1f85cbc783854ea76546670dab8cb5a20275d6093a9a0f6ee6be30eda",  # dump
    "bcd08709998b2a7f833f6f99deeff127402dc3e8b88ac743ab86922fa25fdc9f",  # script
)


# ---------------------------------------------------------------------------
# Expected text, formatted from raw values


def order_key(atom: str):
    """Numeric atoms first by value, then symbolic atoms byte-wise."""
    if atom.isdigit():
        return (0, int(atom), "")
    return (1, 0, atom)


def row_key(row):
    return tuple(order_key(a) for a in row)


def atom_set(atoms) -> str:
    ordered = sorted(set(atoms), key=order_key)
    return "{ " + ", ".join(ordered) + " }" if ordered else "{ }"


def row_text(row) -> str:
    return "(" + ", ".join(row) + ")"


def relation_text(attrs, rows) -> str:
    lines = [", ".join(attrs)]
    lines += [row_text(r) for r in sorted(set(rows), key=row_key)]
    return "\n".join(lines) + "\n"


def table_text(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
        for line in [header, *rows]
    )


# ---------------------------------------------------------------------------
# Workspace model


@dataclass
class Concept:
    name: str
    parents: tuple[str, ...]
    attrs: dict[str, str]
    events: tuple[str, ...] = ()
    menus: tuple[tuple[str, str], ...] = ()
    encapsulated: tuple[str, ...] = ()

    def canonical(self) -> str:
        head = f"concept {self.name}"
        if self.parents:
            head += " : " + ", ".join(self.parents)
        items = [f"attr {a} = {self.attrs[a]};" for a in sorted(self.attrs)]
        items += [f"event {e};" for e in sorted(set(self.events))]
        items += [f"menu {label} -> {e};" for label, e in sorted(set(self.menus))]
        if self.encapsulated:
            items.append("encapsulated " + ", ".join(sorted(self.encapsulated)) + ";")
        body = "{ " + " ".join(items) + " }" if items else "{ }"
        return f"{head} {body};"

    def source(self) -> str:
        head = f"concept {self.name}"
        if self.parents:
            head += " : " + ", ".join(self.parents)
        items = [f"attr {a} = {v};" for a, v in self.attrs.items()]
        items += [f"event {e};" for e in self.events]
        items += [f"menu {label} -> {e};" for label, e in self.menus]
        if self.encapsulated:
            items.append("encapsulated " + ", ".join(self.encapsulated) + ";")
        return head + " {\n    " + " ".join(items) + "\n};"


@dataclass
class Filter:
    index_var: str
    candidate_var: str
    body: str                        # canonical DODL text of the predicate
    test: Callable[[str, str], bool]  # the same predicate over raw atoms


@dataclass
class Model:
    sorts: dict[str, str] = field(default_factory=dict)
    domains: dict[str, tuple[str, list[str]]] = field(default_factory=dict)
    relations: dict[str, tuple[tuple[tuple[str, str], ...], list[tuple]]] = \
        field(default_factory=dict)
    filters: dict[str, Filter] = field(default_factory=dict)
    potentials: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    concepts: list[Concept] = field(default_factory=list)
    # Fig4-form diagrams: name -> (potential object name).
    diagrams: dict[str, str] = field(default_factory=dict)
    scripts: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    evolvents: dict[str, str] = field(default_factory=dict)

    # -- semantics -------------------------------------------------------------

    def derived(self, po: str, index: str) -> set[str]:
        carrier, _, filter_name = self.potentials[po]
        test = self.filters[filter_name].test
        return {x for x in self.domains[carrier][1] if test(index, x)}

    def index_atoms(self, po: str) -> list[str]:
        return sorted(self.domains[self.potentials[po][1]][1], key=order_key)

    # -- declarations ------------------------------------------------------------

    def diagram_text(self, name: str) -> str:
        po = self.diagrams[name]
        carrier, index, filter_name = self.potentials[po]
        return (f"diagram {name} entry pair({index}, {carrier}) "
                f"path_a [ subst(x, apply(filter {filter_name}, "
                f"pair(fst(input), var x)), snd(input)) ] "
                f"path_b [ pair(shift({po}, fst(input)), id(snd(input))), "
                f"apply(fst(input), snd(input)) ] exit bool;")

    def relation_head(self, name: str) -> str:
        attrs = self.relations[name][0]
        return f"relation {name} (" + ", ".join(f"{a} : {s}" for a, s in attrs) + ")"

    def filter_text(self, name: str) -> str:
        f = self.filters[name]
        return f"filter {name} ({f.index_var}, {f.candidate_var}) = {f.body};"

    def potential_text(self, name: str) -> str:
        carrier, index, filter_name = self.potentials[name]
        return f"potential {name} carrier {carrier} index {index} filter {filter_name};"

    def script_text(self, name: str) -> str:
        steps = self.scripts[name]
        body = "[ " + ", ".join(f"({p}, {i})" for p, i in steps) + " ]" if steps else "[ ]"
        return f"script {name} = {body};"

    def concept_order(self) -> list[Concept]:
        """Parents before children, ties broken lexicographically."""
        by_name = {c.name: c for c in self.concepts}
        pending = {c.name: set(c.parents) for c in self.concepts}
        children: dict[str, list[str]] = {name: [] for name in by_name}
        for c in self.concepts:
            for parent in c.parents:
                children[parent].append(c.name)
        ready = [name for name, parents in pending.items() if not parents]
        heapq.heapify(ready)
        out = []
        while ready:
            name = heapq.heappop(ready)
            out.append(by_name[name])
            for child in children[name]:
                pending[child].discard(name)
                if not pending[child]:
                    heapq.heappush(ready, child)
        return out

    def canonical(self) -> str:
        """The exact bytes ``dodl dump`` prints for this workspace."""
        lines = [f"sort {n} : {self.sorts[n]};" for n in sorted(self.sorts)]
        for n in sorted(self.domains):
            sort, atoms = self.domains[n]
            lines.append(f"domain {n} : {sort} = {atom_set(atoms)};")
        for n in sorted(self.relations):
            rows = sorted(set(self.relations[n][1]), key=row_key)
            body = "{ " + ", ".join(row_text(r) for r in rows) + " }" if rows else "{ }"
            lines.append(f"{self.relation_head(n)} = {body};")
        lines += [self.filter_text(n) for n in sorted(self.filters)]
        lines += [self.potential_text(n) for n in sorted(self.potentials)]
        lines += [c.canonical() for c in self.concept_order()]
        lines += [self.diagram_text(n) for n in sorted(self.diagrams)]
        lines += [self.script_text(n) for n in sorted(self.scripts)]
        lines += [f"evolvent {n} = {self.evolvents[n]};" for n in sorted(self.evolvents)]
        return "".join(line + "\n" for line in lines)

    def source(self, rng: random.Random, title: str) -> str:
        """Hand-written style: comments, one row per line, declaration order
        and atom order left unsorted, concepts shuffled."""
        out = [f"# {title}\n"]
        out += [f"sort {n} : {k};\n" for n, k in self.sorts.items()]
        for n, (sort, atoms) in self.domains.items():
            out.append(f"domain {n} : {sort} = {{ {', '.join(atoms)} }};\n")
        for n, (_, rows) in self.relations.items():
            out.append(f"\n# {len(rows)} rows\n{self.relation_head(n)} = {{\n")
            out.append(_lines([row_text(r) for r in rows], 4))
            out.append("\n};\n")
        out.append("\n")
        out += [self.filter_text(n) + "\n" for n in self.filters]
        out += [self.potential_text(n) + "\n" for n in self.potentials]
        concepts = list(self.concepts)
        rng.shuffle(concepts)
        out += ["\n" + c.source() + "\n" for c in concepts]
        for n in self.diagrams:
            out.append("\n" + self.diagram_text(n).replace(" path_", "\n    path_")
                       .replace(" exit", "\n    exit") + "\n")
        for n, steps in self.scripts.items():
            out.append(f"\nscript {n} = [\n"
                       + _lines([f"({p}, {i})" for p, i in steps], 6) + "\n];\n")
        out += [f"evolvent {n} = {body};\n" for n, body in self.evolvents.items()]
        return "".join(out)


def _lines(items: list[str], per_line: int) -> str:
    """Comma-separated items, ``per_line`` to an indented line."""
    return ",\n".join("    " + ", ".join(items[i:i + per_line])
                       for i in range(0, len(items), per_line))


# ---------------------------------------------------------------------------
# Expected stdout per command


@dataclass(frozen=True)
class Call:
    """One CLI invocation (arguments after ``--workspace <dir>``) and the
    exact stdout it must print with exit code 0."""

    args: tuple[str, ...]
    stdout: str


def load_call(model: Model, path: Path) -> Call:
    counts = (f"{len(model.domains)} domain(s), {len(model.relations)} relation(s), "
              f"{len(model.potentials)} potential object(s), "
              f"{len(model.concepts)} concept(s)")
    return Call(("load", str(path)), f"ok: {counts}; stage 0\n")


def index_call(model: Model, po: str, index: str) -> Call:
    return Call(("index", po, index),
                f"{po}_{index} = {atom_set(model.derived(po, index))}\n")


def functor_call(model: Model, po: str) -> Call:
    return Call(("functor", po), "".join(
        f"{po}_{i} = {atom_set(model.derived(po, i))}\n"
        for i in model.index_atoms(po)))


def oracle_diff_call(model: Model, po: str) -> Call:
    """``po`` must filter by ``member R (idx, x, _)``; the oracle column is
    select-then-project over R's raw rows."""
    relation = model.filters[model.potentials[po][2]].body.split()[1]
    rows = model.relations[relation][1]
    table = []
    for i in model.index_atoms(po):
        oracle = {r[1] for r in rows if r[0] == i}
        indexed = model.derived(po, i)
        assert indexed == oracle, (po, i)
        table.append((i, atom_set(indexed), atom_set(oracle), "EQUAL"))
    return Call(("oracle-diff", po), table_text(("index", "indexed", "oracle", "verdict"), table))


def check_call(model: Model, diagram: str) -> Call:
    carrier, index, _ = model.potentials[model.diagrams[diagram]]
    n = len(set(model.domains[carrier][1])) * len(set(model.domains[index][1]))
    return Call(("check", diagram), f"{n}/{n} inputs commute\n")


def query_call(expr: str, attrs, rows) -> Call:
    return Call(("query", expr), relation_text(attrs, rows))


def script_call(model: Model, script: str) -> Call:
    library = {f"{po}_{i}": model.derived(po, i) for po, i in model.scripts[script]}
    lines = [f"{name} = {atom_set(library[name])}\n" for name in sorted(library)]
    return Call(("script", script), "".join(lines) + f"stage {len(model.scripts[script])}\n")


def dump_call(model: Model) -> Call:
    return Call(("dump",), model.canonical())


def project_rows(rows, *positions):
    return {tuple(r[i] for i in positions) for r in rows}


def join_rows(left, right, left_pos: int, right_pos: int):
    """Natural join on one shared column; right's other columns appended."""
    return [l + tuple(c for j, c in enumerate(r) if j != right_pos)
            for l in left for r in right if l[left_pos] == r[right_pos]]


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    # In COMMANDS order: metric name, and the calls one rotation makes.
    rotation: list[tuple[str, list[Call]]]
    cold: Call


def _names(rng: random.Random, prefix: str, n: int, width: int = 3) -> list[str]:
    """``n`` distinct atoms: an upper-case prefix and ``width`` lower-case letters."""
    def name(k: int) -> str:
        return prefix + "".join(chr(97 + k // 26 ** p % 26) for p in range(width))
    return [name(k) for k in rng.sample(range(26 ** width), n)]


def _member_filter(relation_rows, index_var="idx", candidate_var="x", relation="R",
                   arity=3) -> Filter:
    pairs = {(r[0], r[1]) for r in relation_rows}
    pattern = ", ".join([index_var, candidate_var] + ["_"] * (arity - 2))
    return Filter(index_var, candidate_var, f"member {relation} ({pattern})",
                  lambda i, x: (i, x) in pairs)


def _rotation(model: Model, ws: Path, file: str, po: str, diagram: str,
              script: str, index, queries, join_query) -> list:
    return [
        ("load", [load_call(model, ws / file)]),
        ("index", index),
        ("functor", [functor_call(model, po)]),
        ("oracle_diff", [oracle_diff_call(model, po)]),
        ("check", [check_call(model, diagram)]),
        ("query", queries),
        ("query_join", [join_query]),
        ("dump", [dump_call(model)]),
        ("script", [script_call(model, script)]),
    ]


def demo(seed: int, ws: Path) -> Workload:
    """The shipped teaching workspace; ``seed`` does not change it."""
    rows = [("Logic", "Johnes", "20"), ("Logic", "Smith", "20"),
            ("Informatics", "Doe", "30"), ("Informatics", "Jackson", "30")]
    m = Model()
    m.sorts = {"Course": "symbolic", "Name": "symbolic", "Hours": "numeric"}
    m.domains = {"Course": ("Course", ["Logic", "Informatics"]),
                 "Teach": ("Name", ["Johnes", "Smith", "Doe", "Jackson"]),
                 "Hours": ("Hours", ["20", "30"])}
    attrs = ("Course", "Name", "Hours")
    m.relations = {"Relationship1": (tuple(zip(attrs, attrs)), rows)}
    m.filters = {"TchFilter": _member_filter(rows, relation="Relationship1")}
    m.potentials = {"Tch": ("Teach", "Course", "TchFilter")}
    m.diagrams = {"Fig4": "Tch"}
    m.scripts = {"AssignAll": [("Tch", "Logic"), ("Tch", "Informatics")]}
    m.evolvents = {"Still": "identity", "Assign": "script AssignAll",
                   "AssignTwice": "compose(Assign, Assign)"}
    m.concepts = [
        Concept("TeachingPost", (), {"hours_default": "20"}, ("assign",),
                (("Assign", "assign"),)),
        Concept("LogicPost", ("TeachingPost",), {}),
        Concept("InformaticsPost", ("TeachingPost",), {"hours_default": "30"}),
    ]
    queries = [
        query_call("project (select Relationship1 where Course = Logic) [Name]",
                   ("Name",), project_rows([r for r in rows if r[0] == "Logic"], 1)),
        query_call("union(select Relationship1 where Course = Logic, "
                   "select Relationship1 where Hours = 30)", attrs,
                   [r for r in rows if r[0] == "Logic" or r[2] == "30"]),
        query_call("difference(Relationship1, select Relationship1 where Hours = 20)",
                   attrs, [r for r in rows if r[2] != "20"]),
    ]
    # Both shared attributes (Course, Hours) join, so every row survives.
    course_hours = project_rows(rows, 0, 2)
    join_query = query_call(
        "project (join(Relationship1, project Relationship1 [Course, Hours])) [Name, Hours]",
        ("Name", "Hours"),
        project_rows([r for r in rows if (r[0], r[2]) in course_hours], 1, 2))
    index = [index_call(m, "Tch", "Logic")]
    rotation = _rotation(m, ws, "teaching.dodl", "Tch", "Fig4", "AssignAll",
                         index, queries, join_query)
    digests = tuple(hashlib.sha256(call.stdout.encode()).hexdigest()
                    for _, calls in rotation for call in calls)
    if digests != DEMO_STDOUT_SHA256:
        raise ValueError("demo: expected stdout differs from the recorded digests")
    text = DEMO_FILE.read_text(encoding="utf-8")
    return Workload("demo", {"teaching.dodl": text}, rotation, index[0])


def member_scan(seed: int, ws: Path) -> Workload:
    """20 index x 50 carrier atoms, |R| = 100, filtered by membership."""
    rng = random.Random(f"member-scan:{seed}")
    events, elems, tags = _names(rng, "I", 20), _names(rng, "X", 50), _names(rng, "T", 12)
    weights = [str(w) for w in range(10)]
    r_rows = [(e, x, rng.choice(weights))
              for e, x in rng.sample([(e, x) for e in events for x in elems], 100)]
    q_rows = rng.sample([(x, t) for x in elems for t in tags], 60)
    m = Model()
    m.sorts = {"Ev": "symbolic", "El": "symbolic", "Wt": "numeric", "Tg": "symbolic"}
    m.domains = {"Events": ("Ev", events), "Elems": ("El", elems),
                 "Weights": ("Wt", weights), "Tags": ("Tg", tags)}
    r_attrs = ("Event", "Elem", "Weight")
    m.relations = {"R": (tuple(zip(r_attrs, ("Ev", "El", "Wt"))), r_rows),
                   "Q": ((("Elem", "El"), ("Tag", "Tg")), q_rows)}
    m.filters = {"F": _member_filter(r_rows)}
    m.potentials = {"P": ("Elems", "Events", "F")}
    m.diagrams = {"D": "P"}
    m.scripts = {"S": [("P", e) for e in rng.sample(events, len(events))]}
    e0, e1 = rng.sample(events, 2)
    queries = [
        query_call(f"project (select R where Event = {e0}) [Elem]", ("Elem",),
                   project_rows([r for r in r_rows if r[0] == e0], 1)),
        query_call(f"union(select R where Weight = 1, select R where Event = {e1})",
                   r_attrs, [r for r in r_rows if r[2] == "1" or r[0] == e1]),
        query_call("difference(R, select R where Weight = 2)", r_attrs,
                   [r for r in r_rows if r[2] != "2"]),
    ]
    join_query = query_call("project (join(R, Q)) [Event, Tag]", ("Event", "Tag"),
                            project_rows(join_rows(r_rows, q_rows, 1, 0), 0, 3))
    file = "member_scan.dodl"
    index = [index_call(m, "P", e) for e in rng.sample(events, 2)]
    rotation = _rotation(m, ws, file, "P", "D", "S", index, queries, join_query)
    text = m.source(rng, f"member-scan workload, seed {seed}")
    return Workload("member-scan", {file: text}, rotation, index[0])


def bulk_text(seed: int, ws: Path) -> Workload:
    """About 32 KB of DODL: four 250-tuple relations, a 250-tuple join
    partner, 75 concepts, a compound filter and a 250-step script.

    Twice this size costs so much per call that a 30-second run gathers
    too few samples for a steady median on a shared host."""
    rng = random.Random(f"bulk-text:{seed}")
    keys, vals, tags = (_names(rng, "K", 40, 2), _names(rng, "V", 60, 2),
                        _names(rng, "T", 30, 2))
    nums = [str(n) for n in range(50)]
    keys_b = rng.sample(keys, 20) + _names(rng, "J", 20, 2)
    keys_few, vals_few = rng.sample(keys, 4), rng.sample(vals, 20)
    m = Model()
    m.sorts = {"Key": "symbolic", "Val": "symbolic", "Num": "numeric", "Tag": "symbolic"}
    m.domains = {"Keys": ("Key", keys), "KeysB": ("Key", keys_b), "Vals": ("Val", vals),
                 "Nums": ("Num", nums), "Tags": ("Tag", tags),
                 "KeysFew": ("Key", keys_few), "ValsFew": ("Val", vals_few)}
    kvn = (("K", "Key"), ("V", "Val"), ("N", "Num"))
    cube = [(k, v, n) for k in keys for v in vals for n in nums]
    rel = {f"R{i}": rng.sample(cube, 250) for i in range(4)}
    s_rows = rng.sample([(v, t) for v in vals for t in tags], 250)
    m.relations = {name: (kvn, rows) for name, rows in rel.items()}
    m.relations["S"] = ((("V", "Val"), ("T", "Tag")), s_rows)
    # A small relation inside KeysFew x ValsFew backs the potential that
    # functor, oracle-diff and check run on.
    m_rows = rng.sample([(k, v) for k in keys_few for v in vals_few], 40)
    m.relations["M"] = ((("K", "Key"), ("V", "Val")), m_rows)

    m.filters["F0"] = _member_filter(m_rows, "k", "v", "M", arity=2)
    # The compound filter: and, or, not, = and a constant in a pattern.
    r0_kv = {(k, v) for k, v, _ in rel["R0"]}
    const_n, not_key = rng.choice(nums), rng.choice(keys)
    r1_kvc = {(k, v) for k, v, n in rel["R1"] if n == const_n}
    m.filters["G"] = Filter(
        "k", "v",
        f"((member R0 (k, v, _) or member R1 (k, v, {const_n})) and not k = {not_key})",
        lambda k, v: ((k, v) in r0_kv or (k, v) in r1_kvc) and k != not_key)
    # The script's filter is built only from '='.
    same_key = rng.choice(keys_b)
    m.filters["Same"] = Filter("i", "x", f"(x = i or x = {same_key})",
                               lambda i, x: x == i or x == same_key)
    m.potentials = {"P0": ("ValsFew", "KeysFew", "F0"),
                    "PG": ("Vals", "Keys", "G"),
                    "PS": ("KeysB", "Keys", "Same")}
    m.diagrams = {"D0": "P0"}
    m.scripts = {"Steps": [("PS", rng.choice(keys)) for _ in range(250)]}
    m.evolvents = {"Run": "script Steps", "Still": "identity"}

    # 75 concepts in an inheritance DAG; parents always come earlier.
    concept_names = _names(rng, "C", 75, 2)
    attr_words = ("hours", "rank", "level", "seats", "credit", "room")
    for position, name in enumerate(concept_names):
        parents = tuple(rng.sample(concept_names[:position], min(position, rng.randrange(3))))
        attrs = {a: rng.choice(nums + tags) for a in rng.sample(attr_words, rng.randrange(1, 3))}
        event = f"ev{position % 7}"
        m.concepts.append(Concept(
            name, parents, attrs, (event,), ((f"Go{position % 5}", event),),
            (rng.choice(sorted(attrs)),) if position % 4 == 0 else ()))

    k0 = rng.choice(keys)
    queries = [
        query_call(f"project (select R0 where K = {k0}) [V, N]", ("V", "N"),
                   project_rows([r for r in rel["R0"] if r[0] == k0], 1, 2)),
        query_call("union(R1, R2)", ("K", "V", "N"), rel["R1"] + rel["R2"]),
        query_call("difference(R3, R0)", ("K", "V", "N"),
                   set(rel["R3"]) - set(rel["R0"])),
    ]
    join_query = query_call("project (join(R0, S)) [K, T]", ("K", "T"),
                            project_rows(join_rows(rel["R0"], s_rows, 1, 0), 0, 3))
    file = "bulk_text.dodl"
    # index runs on the compound filter; functor, oracle-diff and check on P0.
    index = [index_call(m, "PG", k) for k in rng.sample(keys, 2)]
    rotation = _rotation(m, ws, file, "P0", "D0", "Steps", index, queries, join_query)
    text = m.source(rng, f"bulk-text workload, seed {seed}")
    return Workload("bulk-text", {file: text}, rotation, index[0])


def build(name: str, seed: int, ws: Path) -> Workload:
    """The workload ``name`` for ``seed``, its files to live in ``ws``."""
    return {"demo": demo, "member-scan": member_scan, "bulk-text": bulk_text}[name](seed, ws)
