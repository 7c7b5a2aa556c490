import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dodl.core import number, symbol
from dodl.errors import (
    CycleDetected,
    DuplicateName,
    EncapsulationViolation,
    UnknownAttribute,
    UnknownConcept,
)
from dodl.meta import Concept, ConceptRegistry, find_cycle


def registry_with_post() -> ConceptRegistry:
    registry = ConceptRegistry()
    registry.add(Concept("TeachingPost",
                         own_attributes={"hours_default": number(20)}))
    return registry


class TestDerive:
    def test_pure_inheritance(self):
        registry = registry_with_post()
        registry.derive("TeachingPost", "LogicPost", {})
        assert registry.resolve_attribute("LogicPost", "hours_default") \
            == number(20)

    def test_override_shadows(self):
        registry = registry_with_post()
        registry.derive("TeachingPost", "InformaticsPost",
                        {"hours_default": number(30)})
        assert registry.resolve_attribute("InformaticsPost", "hours_default") \
            == number(30)
        assert registry.resolve_attribute("TeachingPost", "hours_default") \
            == number(20)

    def test_unknown_ancestor(self):
        registry = ConceptRegistry()
        with pytest.raises(UnknownConcept):
            registry.derive("Nowhere", "Child", {})

    def test_duplicate_name(self):
        registry = registry_with_post()
        with pytest.raises(DuplicateName):
            registry.derive("TeachingPost", "TeachingPost", {})

    def test_events_and_menus_stay_reachable(self):
        registry = ConceptRegistry()
        registry.add(Concept("Base", events=("assign",),
                             menus=(("Assign", "assign"),)))
        child = registry.derive("Base", "Child", {})
        assert child.events == ()
        assert registry.effective_events("Child") == ["assign"]
        assert registry.effective_menus("Child") == [("Assign", "assign")]


class TestResolveAttribute:
    def diamond(self) -> ConceptRegistry:
        registry = ConceptRegistry()
        registry.add(Concept("A", own_attributes={"a": symbol("fromA")}))
        registry.add(Concept("B", ("A",), {"a": symbol("fromB")}))
        registry.add(Concept("C", ("A",), {"a": symbol("fromC")}))
        registry.add(Concept("D", ("B", "C")))
        return registry

    def test_diamond_takes_first_declared_parent(self):
        # Hand-run of the depth-first, declaration-order walk:
        # D -> B (defines a) stops before C is ever visited.
        registry = self.diamond()
        assert registry.resolve_attribute("D", "a") == symbol("fromB")

    def test_depth_beats_breadth(self):
        registry = ConceptRegistry()
        registry.add(Concept("Root", own_attributes={"a": symbol("root")}))
        registry.add(Concept("Left", ("Root",)))
        registry.add(Concept("Right", own_attributes={"a": symbol("right")}))
        registry.add(Concept("Leaf", ("Left", "Right")))
        # Left's chain reaches Root before Right is considered.
        assert registry.resolve_attribute("Leaf", "a") == symbol("root")

    def test_missing_everywhere(self):
        registry = self.diamond()
        with pytest.raises(UnknownAttribute):
            registry.resolve_attribute("D", "nope")

    def test_unknown_concept(self):
        with pytest.raises(UnknownConcept):
            ConceptRegistry().resolve_attribute("X", "a")

    def test_monotone_inheritance(self):
        registry = registry_with_post()
        registry.derive("TeachingPost", "Plain", {})
        assert registry.resolve_attribute("Plain", "hours_default") \
            == registry.resolve_attribute("TeachingPost", "hours_default")


class TestEncapsulation:
    def build(self) -> ConceptRegistry:
        registry = ConceptRegistry()
        registry.add(Concept("Base",
                             own_attributes={"secret": symbol("hidden"),
                                             "open": symbol("visible")},
                             encapsulated=frozenset({"secret"})))
        registry.add(Concept("Child", ("Base",)))
        registry.add(Concept("Stranger"))
        return registry

    def test_external_caller_is_blocked(self):
        registry = self.build()
        with pytest.raises(EncapsulationViolation):
            registry.resolve_attribute("Base", "secret")
        assert registry.resolve_attribute("Base", "open") == symbol("visible")

    def test_concept_itself_may_look(self):
        registry = self.build()
        assert registry.resolve_attribute("Base", "secret", caller="Base") \
            == symbol("hidden")

    def test_descendant_may_look(self):
        registry = self.build()
        assert registry.resolve_attribute("Child", "secret", caller="Child") \
            == symbol("hidden")
        assert registry.resolve_attribute("Base", "secret", caller="Child") \
            == symbol("hidden")

    def test_unrelated_concept_is_blocked(self):
        registry = self.build()
        with pytest.raises(EncapsulationViolation):
            registry.resolve_attribute("Base", "secret", caller="Stranger")

    def test_unregistered_caller_counts_as_external(self):
        registry = self.build()
        with pytest.raises(EncapsulationViolation):
            registry.resolve_attribute("Base", "secret", caller="Phantom")

    def test_encapsulation_is_inherited(self):
        registry = self.build()
        with pytest.raises(EncapsulationViolation):
            registry.resolve_attribute("Child", "secret")


class TestAncestors:
    def test_atomic_concept_has_none(self):
        registry = ConceptRegistry()
        registry.add(Concept("A"))
        assert registry.ancestors("A") == []

    def test_chain(self):
        registry = ConceptRegistry()
        registry.add(Concept("A"))
        registry.add(Concept("B", ("A",)))
        registry.add(Concept("C", ("B",)))
        assert registry.ancestors("C") == ["B", "A"]

    def test_diamond_dedups_depth_first(self):
        registry = ConceptRegistry()
        registry.add(Concept("A"))
        registry.add(Concept("B", ("A",)))
        registry.add(Concept("C", ("A",)))
        registry.add(Concept("D", ("B", "C")))
        assert registry.ancestors("D") == ["B", "A", "C"]


def has_cycle(n: int, edges: set[tuple[int, int]]) -> bool:
    """Independent three-color depth-first cycle detector."""
    color = [0] * n

    def visit(u: int) -> bool:
        color[u] = 1
        for (a, b) in edges:
            if a == u:
                if color[b] == 1:
                    return True
                if color[b] == 0 and visit(b):
                    return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(n))


class TestAcyclicity:
    def test_self_loop_rejected(self):
        registry = ConceptRegistry()
        with pytest.raises(CycleDetected):
            registry.add(Concept("A", ("A",)))

    def test_two_cycle_rejected_with_both_names(self):
        registry = ConceptRegistry()
        registry.add(Concept("A", ("B",)))  # forward reference is fine
        with pytest.raises(CycleDetected) as exc:
            registry.add(Concept("B", ("A",)))
        assert "A" in str(exc.value) and "B" in str(exc.value)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_digraphs(self, n):
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
            assert rejected == has_cycle(n, edges), (n, sorted(edges))


def recursive_find_cycle(parents: dict[str, tuple[str, ...]], start: str):
    """The registry's cycle finder as it was written before, recursive and
    with no finished set: the oracle for the messages of the new one."""
    path: list[str] = []
    on_path: set[str] = set()

    def walk(name):
        if name in on_path:
            return path[path.index(name):] + [name]
        if name not in parents:
            return None
        path.append(name)
        on_path.add(name)
        for parent in parents[name]:
            found = walk(parent)
            if found is not None:
                return found
        path.pop()
        on_path.discard(name)
        return None

    return walk(start)


NAMES = [f"K{i}" for i in range(7)]
declarations = st.lists(
    st.tuples(st.sampled_from(NAMES),
              st.lists(st.sampled_from(NAMES), max_size=3, unique=True)),
    max_size=12,
)


def ladder(n: int) -> list[Concept]:
    """C0, C1 : C0 and Ci : Ci-1, Ci-2: each concept shares all but one
    ancestor with its first parent."""
    out = [Concept("C0", own_attributes={"a": number(1)}), Concept("C1", ("C0",))]
    out += [Concept(f"C{i}", (f"C{i - 1}", f"C{i - 2}"),
                    encapsulated=frozenset({"a", "b"})) for i in range(2, n)]
    return out


class TestCycleFinder:
    @settings(max_examples=300, deadline=None)
    @given(declarations)
    def test_messages_equal_the_recursive_finder(self, decls):
        registry = ConceptRegistry()
        model: dict[str, tuple[str, ...]] = {}
        for name, parents in decls:
            if name in model:
                with pytest.raises(DuplicateName):
                    registry.add(Concept(name, tuple(parents)))
                continue
            cycle = recursive_find_cycle({**model, name: tuple(parents)}, name)
            if cycle is None:
                registry.add(Concept(name, tuple(parents)))
                model[name] = tuple(parents)
            else:
                with pytest.raises(CycleDetected) as raised:
                    registry.add(Concept(name, tuple(parents)))
                assert str(raised.value) == \
                    "concept inheritance cycle: " + " -> ".join(cycle)
            assert registry.names() == sorted(model)

    def test_a_deep_chain_needs_no_recursion(self):
        depth = 5000
        edges = {f"N{i}": (f"N{i - 1}",) for i in range(1, depth)}
        edges["N0"] = (f"N{depth - 1}",)
        cycle = find_cycle(["N0"], lambda name: edges.get(name, ()))
        assert len(cycle) == depth + 1
        assert cycle[0] == cycle[-1] == "N0"
        edges["N0"] = ()
        assert find_cycle(sorted(edges), lambda name: edges.get(name, ())) is None

    def test_a_ladder_registers_and_validates_in_linear_time(self):
        started = time.monotonic()
        registry = ConceptRegistry()
        for concept in ladder(200):
            registry.add(concept)
        problems = registry.validate()
        assert time.monotonic() - started < 1.0
        assert problems == [
            f"concept 'C{i}' encapsulates undefined attribute 'b'"
            for i in sorted(range(2, 200), key=lambda i: f"C{i}")
        ]


def recursive_ancestors(registry: ConceptRegistry, name: str) -> list[str]:
    """``ConceptRegistry.ancestors`` as it was written before, recursive:
    the oracle for the order of the iterative walk."""
    registry.get(name)
    out: list[str] = []
    seen = {name}

    def visit(current: str):
        for parent in registry.get(current).parents:
            if parent not in seen:
                seen.add(parent)
                out.append(parent)
                visit(parent)

    visit(name)
    return out


def outcome(call):
    try:
        return call()
    except (UnknownConcept, UnknownAttribute) as exc:
        return type(exc), str(exc)


@st.composite
def random_dags(draw):
    """Concepts K0..Kn whose parents come from earlier names (and, now and
    then, an unregistered one), declared in a random order."""
    size = draw(st.integers(min_value=1, max_value=10))
    names = [f"K{i}" for i in range(size)]
    concepts = []
    for i, name in enumerate(names):
        pool = names[:i] + ["Ghost"]
        parents = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
        attributes = draw(st.dictionaries(st.sampled_from("ab"),
                                          st.integers(0, 9).map(number)))
        concepts.append(Concept(name, tuple(parents), attributes,
                                events=(f"e{i % 3}",)))
    return draw(st.permutations(concepts))


class TestLineage:
    @settings(max_examples=300, deadline=None)
    @given(random_dags())
    def test_ancestors_equal_the_recursive_walk(self, concepts):
        registry = ConceptRegistry()
        for concept in concepts:
            registry.add(concept)
        for name in registry.names():
            assert outcome(lambda: registry.ancestors(name)) == \
                outcome(lambda: recursive_ancestors(registry, name))

    def test_a_deep_chain_declared_parent_first(self):
        depth = 1200
        started = time.monotonic()
        registry = ConceptRegistry()
        registry.add(Concept("N0", own_attributes={"a": symbol("root")},
                             events=("e",)))
        for i in range(1, depth):
            registry.add(Concept(f"N{i}", (f"N{i - 1}",)))
        assert time.monotonic() - started < 0.2
        last = f"N{depth - 1}"
        assert registry.resolve_attribute(last, "a") == symbol("root")
        assert registry.ancestors(last) == [f"N{i}" for i in reversed(range(depth - 1))]
        assert registry.effective_events(last) == ["e"]


class TestConceptValue:
    def test_collections_are_normalized(self):
        a = Concept("X", events=("b", "a"), menus=(("M2", "e"), ("M1", "e")))
        b = Concept("X", events=("a", "b"), menus=(("M1", "e"), ("M2", "e")))
        assert a == b

    def test_duplicate_parent_rejected(self):
        with pytest.raises(DuplicateName):
            Concept("X", ("P", "P"))

    def test_registry_validate_reports_problems(self):
        registry = ConceptRegistry()
        registry.add(Concept("A", ("Ghost",)))
        registry.add(Concept("B", encapsulated=frozenset({"nope"})))
        problems = registry.validate()
        assert any("Ghost" in p for p in problems)
        assert any("nope" in p for p in problems)

    def test_encapsulation_sees_registered_ancestors_only(self):
        registry = ConceptRegistry()
        registry.add(Concept("Top", own_attributes={"kept": number(1)}))
        registry.add(Concept("Low", ("Top", "Later"),
                             encapsulated=frozenset({"kept", "later", "own"}),
                             own_attributes={"own": number(2)}))
        assert registry.encapsulation_problems("Low") == [
            "concept 'Low' encapsulates undefined attribute 'later'"
        ]
        registry.add(Concept("Later", own_attributes={"later": number(3)}))
        assert registry.encapsulation_problems("Low") == []


def walked_encapsulation_problems(registry: ConceptRegistry, name: str) -> list[str]:
    """``ConceptRegistry.encapsulation_problems`` as it was written before:
    a fresh walk of the registered ancestors on every call, the oracle for
    the cached answers."""
    concepts = registry._concepts
    missing = set(concepts[name].encapsulated)
    seen = {name}
    stack = [name]
    while stack and missing:
        concept = concepts[stack.pop()]
        missing.difference_update(concept.own_attributes)
        for parent in concept.parents:
            if parent in concepts and parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return [
        f"concept {name!r} encapsulates undefined attribute {attr!r}"
        for attr in sorted(missing)
    ]


class TestEncapsulationProblems:
    @settings(max_examples=300, deadline=None)
    @given(random_dags(), st.data())
    def test_problems_equal_the_walk_after_every_addition(self, concepts, data):
        hidden = data.draw(st.lists(st.frozensets(st.sampled_from("abc")),
                                    min_size=len(concepts), max_size=len(concepts)))
        registry = ConceptRegistry()
        for concept, attrs in zip(concepts, hidden):
            registry.add(concept.replace(encapsulated=attrs))
            for name in registry.names():
                assert registry.encapsulation_problems(name) == \
                    walked_encapsulation_problems(registry, name)

    def test_a_later_ancestor_clears_the_problem(self):
        registry = ConceptRegistry()
        registry.add(Concept("Low", ("Mid",), encapsulated=frozenset({"a"})))
        registry.add(Concept("Mid", ("Top",)))
        problem = ["concept 'Low' encapsulates undefined attribute 'a'"]
        assert registry.encapsulation_problems("Low") == problem
        assert registry.validate() == problem + [
            "concept 'Mid' inherits from unknown concept 'Top'"]
        registry.add(Concept("Top", own_attributes={"a": number(1)}))
        assert registry.encapsulation_problems("Low") == []
        assert registry.validate() == []

    def test_a_deep_chain_is_checked_in_linear_time(self):
        registry = ConceptRegistry()
        registry.add(Concept("N0", own_attributes={"a": number(0)}))
        for i in range(1, 5000):
            registry.add(Concept(f"N{i}", (f"N{i - 1}",),
                                 encapsulated=frozenset({"a", "b"})))
        started = time.monotonic()
        problems = registry.validate()
        assert time.monotonic() - started < 1.0
        assert problems == [
            f"concept 'N{i}' encapsulates undefined attribute 'b'"
            for i in sorted(range(1, 5000), key=lambda i: f"N{i}")
        ]
