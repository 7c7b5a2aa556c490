"""Derivation of actual objects from potential objects by event indexing.

A workspace declares domains, relations, filters and potential objects in
the DODL definition language.  Triggering an event (choosing an index atom)
derives an actual object: the carrier elements that pass the filter at that
index.  Every derivation has a plain relational twin (select-then-project)
it can be checked against, and filters can be restated as commutative
diagrams whose two evaluation paths are compared pointwise.

``import dodl`` loads what loading and deriving need.  The diagram checker,
the printer and the relational algebra each load on first use of one of
their names below.
"""

from .core import (
    Atom,
    ActualObject,
    Domain,
    PotentialObject,
    Sort,
    actual_name,
    deferred as _deferred,
    number,
    symbol,
)
from .diagrams import (
    And,
    Apply,
    Const,
    DiagramSpec,
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
    Pair,
    Shape,
    Snd,
    Subst,
    TruePred,
    Var,
    Wildcard,
    run_filter,
)
from .errors import DodlError
from .evolver import (
    EventScript,
    Evolvent,
    Exchange,
    Query,
    Trigger,
    Workspace,
    apply_evolvent,
    materialize_functor,
    run_script,
    trigger,
)
from .lang import build, load_files, load_texts, parse, parse_query, validate
from .meta import Concept, ConceptRegistry
from .relation import Relation

__version__ = "0.1.0"

__getattr__, __dir__ = _deferred(__name__, {
    **dict.fromkeys(("CommutativityReport", "check_commutes", "compile_expr",
                     "enumerate_entry"), ".checker"),
    "dump": ".lang.printer",
    **dict.fromkeys(("difference", "eval_query", "join", "oracle_index",
                     "oracle_route", "project", "select", "union"), ".relational"),
})
