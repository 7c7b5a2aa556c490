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


class UnknownConcept(DodlError):
    pass


class DuplicateName(DodlError):
    pass


class CycleDetected(DodlError):
    pass


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
        super().__init__(f"script {script!r} failed at step {step}: {cause}")
        self.script = script
        self.step = step
        self.cause = cause
