"""Seeded random workspace generation for round-trip and oracle tests."""

from __future__ import annotations

import random

from dodl import (
    Apply,
    Concept,
    ConceptRegistry,
    Const,
    DiagramSpec,
    Domain,
    EventScript,
    Evolvent,
    Eq,
    FalsePred,
    Filter,
    FilterRef,
    Fst,
    IdArrow,
    IndexShift,
    Input,
    Member,
    Not,
    Or,
    And,
    Pair,
    PotentialObject,
    Relation,
    Shape,
    Snd,
    Sort,
    Subst,
    TruePred,
    Var,
    Wildcard,
    Workspace,
)
from dodl.core import Atom, NUMERIC, SYMBOLIC

WORDS = [
    "Alpha", "Beta", "Gamma", "Delta", "Kappa", "Sigma", "Omega", "Zeta",
    "Theta", "Iota", "Lambda", "Rho", "Tau", "Phi", "Chi", "Psi",
]


def _atom_for(rng: random.Random, sort: Sort) -> Atom:
    if sort.kind == NUMERIC:
        return Atom(str(rng.randrange(0, 31)), NUMERIC)
    return Atom(rng.choice(WORDS), SYMBOLIC)


def _predicate(rng: random.Random, depth: int, params: tuple[str, str],
               relations: dict[str, Relation]):
    roll = rng.random()
    if depth > 0 and roll < 0.35:
        ctor = rng.choice([And, Or])
        return ctor(
            _predicate(rng, depth - 1, params, relations),
            _predicate(rng, depth - 1, params, relations),
        )
    if depth > 0 and roll < 0.45:
        return Not(_predicate(rng, depth - 1, params, relations))
    if relations and roll < 0.80:
        relation = relations[rng.choice(sorted(relations))]
        pattern = []
        used_var = False
        for _, sort in relation.attributes:
            pick = rng.random()
            if pick < 0.35:
                pattern.append(Var(rng.choice(params)))
                used_var = True
            elif pick < 0.6:
                pattern.append(Wildcard())
            else:
                pattern.append(Const(_atom_for(rng, sort)))
        if not used_var:
            pattern[0] = Var(rng.choice(params))
        return Member(relation.name, tuple(pattern))
    if roll < 0.9:
        left = Var(rng.choice(params))
        right = rng.choice([
            Var(rng.choice(params)),
            Const(Atom(rng.choice(WORDS), SYMBOLIC)),
        ])
        return Eq(left, right)
    return rng.choice([TruePred(), FalsePred()])


def _diagram_paths(rng: random.Random, is_pair: bool,
                   filters: dict[str, Filter],
                   potentials: dict[str, PotentialObject],
                   const_atom: Atom):
    def single_templates():
        out = [
            (Input(),),
            (IdArrow(Input()),),
            (Pair(Const(const_atom), Input()), Fst(Input())),
            (Subst("v", Var("v"), Input()),),
        ]
        if potentials:
            po = sorted(potentials)[0]
            out.append((IndexShift(po, Input()),))
        return out

    def pair_templates():
        out = [
            (Pair(Snd(Input()), Fst(Input())),),
            (Fst(Input()),),
            (Snd(Input()),),
            (Pair(IdArrow(Fst(Input())), IdArrow(Snd(Input()))),),
        ]
        if filters:
            name = sorted(filters)[0]
            out.append((Apply(FilterRef(name), Input()),))
            out.append((
                Subst("v", Apply(FilterRef(name),
                                 Pair(Fst(Input()), Var("v"))),
                       Snd(Input())),
            ))
        if potentials:
            po = sorted(potentials)[0]
            out.append((
                Pair(IndexShift(po, Fst(Input())), IdArrow(Snd(Input()))),
                Apply(Fst(Input()), Snd(Input())),
            ))
        return out

    templates = pair_templates() if is_pair else single_templates()
    return rng.choice(templates), rng.choice(templates)


def gen_workspace(rng: random.Random) -> Workspace:
    """A small random workspace touching every declaration kind."""
    sorts = {}
    for i in range(rng.randint(2, 4)):
        name = f"S{i}"
        sorts[name] = Sort(name, rng.choice([SYMBOLIC, NUMERIC]))
    sort_list = [sorts[k] for k in sorted(sorts)]

    domains = {}
    for i in range(rng.randint(2, 5)):
        name = f"D{i}"
        sort = rng.choice(sort_list)
        size = rng.randint(0, 8) if i > 1 else rng.randint(1, 8)
        elements = frozenset(_atom_for(rng, sort) for _ in range(size))
        domains[name] = Domain(name, sort, elements)

    relations = {}
    for i in range(rng.randint(1, 3)):
        name = f"R{i}"
        arity = rng.randint(2, 4)
        schema = tuple(
            (f"A{j}", rng.choice(sort_list)) for j in range(arity)
        )
        rows = frozenset(
            tuple(_atom_for(rng, sort) for _, sort in schema)
            for _ in range(rng.randint(0, 20))
        )
        relations[name] = Relation(name, schema, rows)

    filters = {}
    for i in range(rng.randint(1, 3)):
        name = f"F{i}"
        params = (f"i{i}", f"x{i}")
        body = _predicate(rng, 2, params, relations)
        filters[name] = Filter(name, params[0], params[1], body)

    potentials = {}
    domain_names = sorted(domains)
    pairs = [
        (c, ix) for c in domain_names for ix in domain_names if c != ix
    ]
    rng.shuffle(pairs)
    for i, (carrier, index_domain) in enumerate(pairs[: rng.randint(0, 3)]):
        name = f"P{i}"
        potentials[name] = PotentialObject(
            name, domains[carrier], domains[index_domain],
            filters[rng.choice(sorted(filters))],
        )

    concepts = ConceptRegistry()
    concept_names = []
    for i in range(rng.randint(0, 5)):
        name = f"C{i}"
        parents = tuple(
            n for n in concept_names if rng.random() < 0.4
        )
        attrs = {
            f"a{j}": _atom_for(rng, rng.choice(sort_list))
            for j in range(rng.randint(0, 3))
        }
        events = tuple(f"e{j}" for j in range(rng.randint(0, 2)))
        menus = tuple((f"m{j}", f"e{j}") for j in range(rng.randint(0, len(events))))
        inherited = set(attrs)
        for parent in parents:
            inherited |= set(concepts.get(parent).own_attributes)
            for ancestor in concepts.ancestors(parent):
                inherited |= set(concepts.get(ancestor).own_attributes)
        encapsulated = frozenset(
            a for a in sorted(inherited) if rng.random() < 0.2
        )
        concepts.add(Concept(name, parents, attrs, events, menus, encapsulated))
        concept_names.append(name)

    diagrams = {}
    nonempty = [n for n in domain_names if domains[n].elements]
    for i in range(rng.randint(0, 2)):
        if not nonempty:
            break
        name = f"G{i}"
        is_pair = rng.random() < 0.6
        if is_pair:
            entry = Shape((rng.choice(nonempty), rng.choice(nonempty)))
        else:
            entry = Shape((rng.choice(nonempty),))
        exit_shape = Shape(
            ("bool",) if rng.random() < 0.5 else (rng.choice(domain_names),)
        )
        const_atom = domains[nonempty[0]].sorted_elements()[0]
        path_a, path_b = _diagram_paths(
            rng, is_pair, filters, potentials, const_atom
        )
        diagrams[name] = DiagramSpec(name, entry, path_a, path_b, exit_shape)

    scripts = {}
    triggerable = [
        (name, po) for name, po in sorted(potentials.items())
        if po.index_domain.elements
    ]
    for i in range(rng.randint(0, 2)):
        if not triggerable:
            break
        name = f"Sc{i}"
        steps = tuple(
            (po_name, rng.choice(po.index_domain.sorted_elements()))
            for po_name, po in rng.choices(triggerable, k=rng.randint(0, 3))
        )
        scripts[name] = EventScript(name, steps)

    evolvents = {}
    for i in range(rng.randint(1, 3)):
        name = f"E{i}"
        roll = rng.random()
        if roll > 0.66 and evolvents:
            parts = tuple(
                rng.choice(sorted(evolvents))
                for _ in range(rng.randint(1, 3))
            )
            evolvents[name] = Evolvent(name, "composed", parts=parts)
        elif roll > 0.33 and scripts:
            evolvents[name] = Evolvent(
                name, "script", script=rng.choice(sorted(scripts))
            )
        else:
            evolvents[name] = Evolvent(name, "identity")

    return Workspace(
        sorts=sorts,
        domains=domains,
        relations=relations,
        filters=filters,
        potentials=potentials,
        concepts=concepts,
        diagrams=diagrams,
        scripts=scripts,
        evolvents=evolvents,
    )


def gen_indexed_case(rng: random.Random):
    """A relation plus a membership-filtered potential object over it.

    Returns (workspace, po name, raw rows as text triples, index position,
    candidate position) so tests can brute-force the expected extensions
    without touching the engine.
    """
    index_sort = Sort("SIdx", SYMBOLIC)
    value_sort = Sort("SVal", SYMBOLIC)
    extra_sort = Sort("SExtra", rng.choice([SYMBOLIC, NUMERIC]))

    index_pool = rng.sample(WORDS, rng.randint(1, 6))
    value_pool = rng.sample(WORDS, rng.randint(1, 8))

    positions = list(range(3))
    rng.shuffle(positions)
    index_pos, candidate_pos = positions[0], positions[1]

    sorts_by_pos = {index_pos: index_sort, candidate_pos: value_sort}
    sorts_by_pos[positions[2]] = extra_sort
    schema = tuple(
        (f"A{j}", sorts_by_pos[j]) for j in range(3)
    )

    def cell(j):
        if j == index_pos:
            return Atom(rng.choice(index_pool), SYMBOLIC)
        if j == candidate_pos:
            return Atom(rng.choice(value_pool), SYMBOLIC)
        return _atom_for(rng, extra_sort)

    rows = frozenset(
        tuple(cell(j) for j in range(3))
        for _ in range(rng.randint(0, 20))
    )
    relation = Relation("R", schema, rows)

    index_domain = Domain(
        "DIdx", index_sort, frozenset(Atom(w, SYMBOLIC) for w in index_pool)
    )
    carrier = Domain(
        "DVal", value_sort, frozenset(Atom(w, SYMBOLIC) for w in value_pool)
    )

    pattern = [Wildcard(), Wildcard(), Wildcard()]
    pattern[index_pos] = Var("idx")
    pattern[candidate_pos] = Var("cand")
    filter_ = Filter("Fm", "idx", "cand", Member("R", tuple(pattern)))

    po = PotentialObject("P", carrier, index_domain, filter_)
    workspace = Workspace(
        sorts={s.name: s for s in (index_sort, value_sort, extra_sort)},
        domains={"DIdx": index_domain, "DVal": carrier},
        relations={"R": relation},
        filters={"Fm": filter_},
        potentials={"P": po},
    )
    raw_rows = [tuple(a.text for a in row) for row in rows]
    return workspace, "P", raw_rows, index_pos, candidate_pos
