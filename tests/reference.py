"""A reference interpreter of the filter language, for the tests.

It walks the predicate tree over an :class:`Environment` and answers each
membership test by scanning the relation's tuples, sharing no code with
``diagrams.compile_predicate``, the evaluator it checks.
"""

from dodl.core import Environment
from dodl.diagrams import And, Const, Eq, FalsePred, Not, Or, TruePred, Var, Wildcard
from dodl.errors import (
    ArityMismatch,
    DodlError,
    EvalTypeError,
    UnknownRelation,
)


def reference_predicate(pred, env, workspace) -> bool:
    """The filter semantics as a plain tree walk over an environment.

    Strict in both operands of ``and`` and ``or``; a membership test checks
    the relation and arity, reads its terms left to right, then scans the
    tuples.  The compiled evaluator must agree with it value for value and
    error for error.
    """
    if isinstance(pred, TruePred):
        return True
    if isinstance(pred, FalsePred):
        return False
    if isinstance(pred, Not):
        return not reference_predicate(pred.operand, env, workspace)
    if isinstance(pred, (And, Or)):
        left = reference_predicate(pred.left, env, workspace)
        right = reference_predicate(pred.right, env, workspace)
        return (left and right) if isinstance(pred, And) else (left or right)
    if isinstance(pred, Eq):
        return reference_term(pred.left, env) == reference_term(pred.right, env)
    relation = workspace.relations.get(pred.relation)
    if relation is None:
        raise UnknownRelation(f"relation {pred.relation!r} is not defined")
    if len(pred.pattern) != relation.arity:
        raise ArityMismatch(
            f"pattern of arity {len(pred.pattern)} against relation "
            f"{relation.name!r} of arity {relation.arity}"
        )
    wanted = [None if isinstance(t, Wildcard) else reference_term(t, env)
              for t in pred.pattern]
    return any(all(w is None or w == cell for w, cell in zip(wanted, row))
               for row in relation.tuples)


def reference_term(term, env):
    if isinstance(term, Const):
        return term.atom
    if isinstance(term, Var):
        return env.lookup(term.name)
    raise EvalTypeError("a wildcard has no value outside a membership pattern")


def reference_filter(f, index, candidate, workspace) -> bool:
    env = Environment.empty().bind(f.index_var, index).bind(f.candidate_var, candidate)
    return reference_predicate(f.body, env, workspace)


def outcome(evaluate):
    """The value of a call, or the type and message of the error it raised."""
    try:
        return evaluate()
    except DodlError as exc:
        return type(exc), str(exc)
