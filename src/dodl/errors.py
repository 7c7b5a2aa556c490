"""Exception taxonomy shared by every module in the package."""


class DodlError(Exception):
    """Base class for all errors raised by this package."""


class DefinitionError(DodlError):
    """A value violates a construction-time invariant."""


class ReservedCharacter(DodlError):
    """Atom text is empty, non-ASCII, or contains a reserved or whitespace character."""


class SortMismatch(DodlError):
    """An atom's kind disagrees with the sort that governs its position."""


class UnboundVariable(DodlError):
    pass


class ArityMismatch(DodlError):
    pass


class EvalTypeError(DodlError):
    """A value of the wrong shape reached a combinator (e.g. fst of a non-pair)."""


class UnknownSort(DodlError):
    pass


class UnknownDomain(DodlError):
    pass


class UnknownRelation(DodlError):
    pass


class UnknownAttribute(DodlError):
    pass


class UnknownFilter(DodlError):
    pass


class UnknownDiagram(DodlError):
    pass


class NoSharedAttributes(DodlError):
    pass


class SchemaMismatch(DodlError):
    pass


class JoinTooLarge(DodlError):
    """A join would build more rows than :data:`relational.JOIN_ROW_LIMIT`."""


class CheckTooLarge(DodlError):
    """A check would compare more entries than :data:`checker.CHECK_ENTRY_LIMIT`."""


class UnknownConcept(DodlError):
    pass


class DuplicateName(DodlError):
    pass


class CycleDetected(DodlError):
    """A graph that must be acyclic has the cycle ``[a, b, ..., a]``."""

    def __init__(self, graph: str, cycle: list[str]):
        # Stored as the arguments, so that copy and pickle rebuild it.
        super().__init__(graph, cycle)
        self.cycle = cycle

    def __str__(self):
        graph, cycle = self.args
        return f"{graph} cycle: " + " -> ".join(cycle)


class EncapsulationViolation(DodlError):
    pass


class UnknownPotentialObject(DodlError):
    pass


class IndexNotInDomain(DodlError):
    pass


class UnknownScript(DodlError):
    pass


class UnknownEvolvent(DodlError):
    pass


class UnknownRequestKind(DodlError):
    pass


class ScriptError(DodlError):
    """A script step failed; the pre-script state is preserved by the caller.

    ``step`` is 1-based.
    """

    def __init__(self, script: str, step: int, cause: DodlError):
        # Stored as the arguments, so that copy and pickle rebuild it.
        super().__init__(script, step, cause)
        self.script = script
        self.step = step
        self.cause = cause

    def __str__(self):
        return f"script {self.script!r} failed at step {self.step}: {self.cause}"


# The error each kind of declared name raises when a reference to it finds
# no declaration; the keys are the words messages use for the kinds.
UNKNOWN_NAME = {
    "sort": UnknownSort,
    "domain": UnknownDomain,
    "relation": UnknownRelation,
    "filter": UnknownFilter,
    "potential object": UnknownPotentialObject,
    "concept": UnknownConcept,
    "diagram": UnknownDiagram,
    "script": UnknownScript,
    "evolvent": UnknownEvolvent,
}


def not_defined(kind: str, name: str) -> DodlError:
    """The error for a reference to a ``kind`` name that nothing declares."""
    return UNKNOWN_NAME[kind](f"{kind} {name!r} is not defined")
