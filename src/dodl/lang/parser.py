"""Recursive-descent parser for the definition language.

One statement per ``;``; on a syntax error the parser records a diagnostic,
resynchronizes at the next ``;`` and keeps going, bailing out after 20
diagnostics.  A domain's atoms, a relation's rows and a script's steps are
read one slice per list (:meth:`Parser.read_list`); the per-item
productions are the error route.  Grammar summary (keywords are contextual):

    sort      ::= "sort" name ":" ("symbolic" | "numeric") ";"
    domain    ::= "domain" name ":" sortname "=" "{" [atoms] "}" ";"
    relation  ::= "relation" name "(" attr ("," attr)* ")" "=" "{" [rows] "}" ";"
    filter    ::= "filter" name "(" var "," var ")" "=" pred ";"
    potential ::= "potential" name "carrier" domain "index" domain
                  "filter" filtername ";"
    concept   ::= "concept" name [":" parents] "{" item* "}" ";"
    diagram   ::= "diagram" name "entry" shape "path_a" path "path_b" path
                  "exit" shape ";"
    script    ::= "script" name "=" "[" [steps] "]" ";"
    evolvent  ::= "evolvent" name "=" ("identity" | "script" name
                  | "compose" "(" names ")") ";"
    commands  ::= "trigger" po atom ";" | "check" diagram ";"
                | "query" relexpr ";" | "dump" ";"
"""

from __future__ import annotations

import functools
from itertools import chain

from ..core import NUMERIC, SYMBOLIC, Atom
from ..diagrams import (
    COMBINATORS,
    EXPR,
    PO_NAME,
    And,
    Const,
    DiagramExpr,
    Eq,
    FalsePred,
    FilterRef,
    Input,
    Member,
    Not,
    Or,
    Predicate,
    TruePred,
    Var,
    Wildcard,
)
from ..errors import DodlError
from ..relation import (
    OPERATORS,
    OracleExpr,
    Project,
    RelExpr,
    RelName,
    Select,
    TermIdent,
)
from .lexer import IDENT, INT, Lines, describe, token_kind, tokenize
from .syntax import (
    CheckCmd,
    ConceptDecl,
    Diagnostic,
    DiagramDecl,
    DomainDecl,
    DumpCmd,
    EvolventDecl,
    FilterDecl,
    PotentialDecl,
    QueryCmd,
    Ref,
    RelationDecl,
    ScriptDecl,
    SortDecl,
    SourceUnit,
    Span,
    TriggerCmd,
)

MAX_ERRORS = 20
# Bound on nested predicates, query expressions and diagram combinators, so
# that deep input is a diagnostic rather than a RecursionError.
MAX_DEPTH = 100

STATEMENT_KEYWORDS = (
    "sort", "domain", "relation", "filter", "potential", "concept",
    "diagram", "script", "evolvent", "trigger", "check", "query", "dump",
)
_ATOM_KINDS = {IDENT: SYMBOLIC, INT: NUMERIC}
ATOM, NAME = "atom", "name"  # places of an item shape, see Parser.read_list


class _SyncError(Exception):
    """Internal: unwinds to the statement loop after a recorded diagnostic."""


def _nested(production):
    """Count one level of nesting for each call of a recursive production."""

    @functools.wraps(production)
    def descend(self, *args):
        if self.depth >= MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels")
        self.depth += 1
        try:
            return production(self, *args)
        finally:
            self.depth -= 1

    return descend


class Parser:
    """Reads the token lists of one text; a token is named by its position
    in them, and ``current`` is the text of the token at ``pos``.  No
    punctuation is a word, so a token's text alone tells what it is."""

    def __init__(self, text: str, path: str | None = None):
        self.texts, pieces, lex_errors = tokenize(text, path)
        self.pos = 0
        self.current: str = self.texts[0]
        self.depth = 0
        self.errors: list[Diagnostic] = list(lex_errors)
        # Lexeme text -> the atom it spells, built once per parse.
        self.atoms: dict[str, Atom] = {}
        # Built here, not on first use: an attribute filled in later through
        # the instance's __dict__, as functools.cached_property does, makes
        # every attribute read of the parser slower (CPython 3.11).  Its
        # offset and line tables are filled only when a span or an error
        # is first read, which a clean load never does.
        self.lines = Lines(text, pieces, path)

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> str:
        """Step past the current token, unless it is the end of input, and
        return its text."""
        text = self.current
        if text:
            self.pos += 1
            self.current = self.texts[self.pos]
        return text

    def error(self, message: str, at: int | None = None,
              expected: tuple[str, ...] = ()) -> _SyncError:
        at = self.pos if at is None else at
        self.errors.append(self.span(at, at).diagnostic(message, expected))
        return _SyncError()

    def expect(self, text: str) -> None:
        if self.current != text:
            raise self.error(
                f"found {describe(self.current)}", expected=(f"'{text}'",)
            )
        self.pos += 1
        self.current = self.texts[self.pos]

    def expect_name(self, what: str = "identifier") -> str:
        if token_kind(self.current) != IDENT:
            raise self.error(
                f"found {describe(self.current)}", expected=(what,)
            )
        return self.advance()

    def span(self, first: int, last: int) -> Span:
        return Span(self.lines, first, last)

    def name_ref(self, what: str = "identifier") -> Ref:
        at = self.pos
        return Ref(self.expect_name(what), self.span(at, at))

    def comma_list(self, item, empty_at: str | None = None) -> list:
        """``item ("," item)*``, each item parsed by calling ``item()``.

        With ``empty_at`` given, the list may also be empty: it is when the
        current token is that closing punctuation.
        """
        if empty_at is not None and self.current == empty_at:
            return []
        items = [item()]
        while self.current == ",":
            self.pos += 1
            self.current = self.texts[self.pos]
            items.append(item())
        return items

    def parse_atom(self) -> Atom:
        text = self.current
        atom = self.atoms.get(text) or self._new_atom(text)
        if atom is None:
            raise self.error(f"found {describe(text)}", expected=("atom",))
        self.pos += 1
        self.current = self.texts[self.pos]
        return atom

    def _new_atom(self, text: str) -> Atom | None:
        """The atom ``text`` spells, kept for later (``7`` and ``007`` share
        the first made), or None if it spells none."""
        kind = _ATOM_KINDS.get(token_kind(text))
        if kind is None:
            return None
        atom = Atom(text, kind)
        atom = self.atoms[text] = self.atoms.setdefault(atom.text, atom)
        return atom

    def read_list(self, close: str, shape: tuple[str, ...]) -> list | None:
        """Read ``item ("," item)*`` up to the next ``close`` at once if each
        item has the token ``shape`` (punctuation, ``ATOM`` or ``NAME``):
        one column of atoms or ``Ref``s per ``ATOM`` or ``NAME``, with new
        atoms made in source order.  An empty or misfit list gives None,
        unread, for the per-item productions to read and report.
        """
        texts, first = self.texts, self.pos
        try:
            end = texts.index(close, first)
        except ValueError:
            return None
        width = len(shape) + 1
        count, rest = divmod(end - first + 1, width)
        body = texts[first:end]
        if rest or not count or body[width - 1::width] != [","] * (count - 1):
            return None
        atoms = self.atoms
        columns, cells = [], []
        for offset, part in enumerate(shape):
            column = body[offset::width]
            if part == ATOM:
                cells.append(column)
                column = list(map(atoms.get, column))
            elif part == NAME:
                if set(map(token_kind, column)) != {IDENT}:
                    return None
                column = [Ref(texts[at], self.span(at, at))
                          for at in range(first + offset, end, width)]
            elif column != [part] * count:
                return None
            else:
                continue
            columns.append(column)
        if not all(map(all, columns)):
            # New atoms are made in source order, or a cell that is no atom
            # ends the read; then the list is read again.
            for text in chain.from_iterable(zip(*cells)):
                if text not in atoms and self._new_atom(text) is None:
                    return None
            return self.read_list(close, shape)
        self.pos, self.current = end, close
        return columns

    # -- statements ----------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        statements = []
        while self.current:
            if len(self.errors) >= MAX_ERRORS:
                break
            try:
                statements.append(self.parse_statement())
            except _SyncError:
                self.synchronize()
        return SourceUnit(tuple(statements), tuple(self.errors[:MAX_ERRORS]))

    def synchronize(self):
        """Step past the next ';', or to the end of input."""
        try:
            self.pos = self.texts.index(";", self.pos) + 1
        except ValueError:
            self.pos = len(self.texts) - 1
        self.current = self.texts[self.pos]

    def parse_statement(self):
        word = self.current
        if word not in STATEMENT_KEYWORDS:
            raise self.error(
                f"found {describe(word)}", expected=STATEMENT_KEYWORDS,
            )
        first = self.pos
        self.advance()
        return getattr(self, f"_parse_{word}")(first)

    def _finish(self, first: int) -> Span:
        last = self.pos
        self.expect(";")
        return self.span(first, last)

    def _parse_sort(self, first: int) -> SortDecl:
        name = self.name_ref("sort name")
        self.expect(":")
        at = self.pos
        kind = self.expect_name("'symbolic' or 'numeric'")
        if kind not in (SYMBOLIC, NUMERIC):
            raise self.error(
                f"found {describe(kind)}", at,
                expected=("'symbolic'", "'numeric'"),
            )
        return SortDecl(name, kind, self._finish(first))

    def _parse_domain(self, first: int) -> DomainDecl:
        name = self.name_ref("domain name")
        self.expect(":")
        sort = self.name_ref("sort name")
        self.expect("=")
        self.expect("{")
        columns = self.read_list("}", (ATOM,))
        atoms = columns[0] if columns else self.comma_list(self.parse_atom,
                                                           empty_at="}")
        self.expect("}")
        return DomainDecl(name, sort, tuple(atoms), self._finish(first))

    def _parse_relation(self, first: int) -> RelationDecl:
        name = self.name_ref("relation name")
        self.expect("(")
        attributes = self.comma_list(self._parse_attribute)
        self.expect(")")
        self.expect("=")
        self.expect("{")
        columns = self.read_list(
            "}", ("(",) + (ATOM, ",") * (len(attributes) - 1) + (ATOM, ")"))
        rows = (zip(*columns) if columns
                else self.comma_list(self._parse_row, empty_at="}"))
        self.expect("}")
        return RelationDecl(name, tuple(attributes), tuple(rows),
                            self._finish(first))

    def _parse_attribute(self) -> tuple[str, Ref]:
        attr = self.expect_name("attribute name")
        self.expect(":")
        sort = self.name_ref("sort name")
        return attr, sort

    def _parse_row(self) -> tuple[Atom, ...]:
        self.expect("(")
        atoms = self.comma_list(self.parse_atom)
        self.expect(")")
        return tuple(atoms)

    def _parse_filter(self, first: int) -> FilterDecl:
        name = self.name_ref("filter name")
        self.expect("(")
        index_var = self.expect_name("index variable")
        self.expect(",")
        candidate_var = self.expect_name("candidate variable")
        self.expect(")")
        self.expect("=")
        member_refs: list[tuple[Ref, int]] = []
        body = self.parse_predicate(
            params=(index_var, candidate_var), member_refs=member_refs
        )
        return FilterDecl(name, index_var, candidate_var, body,
                          tuple(member_refs), self._finish(first))

    def _parse_potential(self, first: int) -> PotentialDecl:
        name = self.name_ref("potential object name")
        self.expect("carrier")
        carrier = self.name_ref("domain name")
        self.expect("index")
        index_domain = self.name_ref("domain name")
        self.expect("filter")
        filter_ref = self.name_ref("filter name")
        return PotentialDecl(name, carrier, index_domain, filter_ref,
                             self._finish(first))

    def _parse_concept(self, first: int) -> ConceptDecl:
        name = self.name_ref("concept name")
        parents = []
        if self.current == ":":
            self.advance()
            parents = self.comma_list(lambda: self.name_ref("parent concept"))
        self.expect("{")
        attributes: list[tuple[str, Atom]] = []
        events: list[str] = []
        menus: list[tuple[str, str]] = []
        encapsulated: list[str] = []
        while self.current != "}":
            at = self.pos
            item = self.expect_name("'attr', 'event', 'menu' or 'encapsulated'")
            if item == "attr":
                attr = self.expect_name("attribute name")
                self.expect("=")
                attributes.append((attr, self.parse_atom()))
            elif item == "event":
                events.append(self.expect_name("event name"))
            elif item == "menu":
                label = self.expect_name("menu label")
                self.expect("->")
                menus.append((label, self.expect_name("event name")))
            elif item == "encapsulated":
                encapsulated += self.comma_list(
                    lambda: self.expect_name("attribute name")
                )
            else:
                raise self.error(
                    f"found {describe(item)}", at,
                    expected=("'attr'", "'event'", "'menu'", "'encapsulated'"),
                )
            self.expect(";")
        self.expect("}")
        return ConceptDecl(name, tuple(parents), tuple(attributes),
                           tuple(events), tuple(menus), tuple(encapsulated),
                           self._finish(first))

    def _parse_diagram(self, first: int) -> DiagramDecl:
        name = self.name_ref("diagram name")
        self.expect("entry")
        entry = self._parse_shape()
        filter_refs: list[Ref] = []
        shift_refs: list[Ref] = []
        self.expect("path_a")
        path_a = self._parse_path(filter_refs, shift_refs)
        self.expect("path_b")
        path_b = self._parse_path(filter_refs, shift_refs)
        self.expect("exit")
        exit_shape = self._parse_shape()
        return DiagramDecl(name, entry, path_a, path_b, exit_shape,
                           tuple(filter_refs), tuple(shift_refs),
                           self._finish(first))

    def _parse_shape(self) -> tuple[Ref, ...]:
        if self.current == "pair":
            self.advance()
            self.expect("(")
            left = self.name_ref("domain name or 'bool'")
            self.expect(",")
            right = self.name_ref("domain name or 'bool'")
            self.expect(")")
            return (left, right)
        return (self.name_ref("domain name or 'bool'"),)

    def _parse_path(self, filter_refs, shift_refs) -> tuple[DiagramExpr, ...]:
        self.expect("[")
        steps = self.comma_list(
            lambda: self.parse_diagram_expr(filter_refs, shift_refs), empty_at="]"
        )
        self.expect("]")
        return tuple(steps)

    @_nested
    def parse_diagram_expr(self, filter_refs, shift_refs) -> DiagramExpr:
        at = self.pos
        word = self.current
        if token_kind(word) != IDENT:
            raise self.error(
                f"found {describe(word)}", expected=("combinator",)
            )
        self.advance()
        if word == "input":
            return Input()
        if word == "var":
            return Var(self.expect_name("variable name"))
        if word == "const":
            return Const(self.parse_atom())
        if word == "filter":
            ref = self.name_ref("filter name")
            filter_refs.append(ref)
            return FilterRef(ref.name)
        spec = COMBINATORS.get(word)
        if spec is None:
            raise self.error(
                f"found {describe(word)}", at,
                expected=("'input'", "'var'", "'const'", "'filter'",
                          *(f"'{word}'" for word in COMBINATORS)),
            )
        node, kinds = spec
        self.expect("(")
        args = []
        for kind in kinds:
            if args:
                self.expect(",")
            if kind == EXPR:
                args.append(self.parse_diagram_expr(filter_refs, shift_refs))
            elif kind == PO_NAME:
                ref = self.name_ref(kind)
                shift_refs.append(ref)
                args.append(ref.name)
            else:
                args.append(self.expect_name(kind))
        self.expect(")")
        return node(*args)

    def _parse_script(self, first: int) -> ScriptDecl:
        name = self.name_ref("script name")
        self.expect("=")
        self.expect("[")
        columns = self.read_list("]", ("(", NAME, ",", ATOM, ")"))
        steps = (zip(*columns) if columns
                 else self.comma_list(self._parse_script_step, empty_at="]"))
        self.expect("]")
        return ScriptDecl(name, tuple(steps), self._finish(first))

    def _parse_script_step(self) -> tuple[Ref, Atom]:
        self.expect("(")
        po = self.name_ref("potential object name")
        self.expect(",")
        index = self.parse_atom()
        self.expect(")")
        return po, index

    def _parse_evolvent(self, first: int) -> EvolventDecl:
        name = self.name_ref("evolvent name")
        self.expect("=")
        if self.current == "identity":
            self.advance()
            return EvolventDecl(name, None, (), self._finish(first))
        if self.current == "script":
            self.advance()
            script = self.name_ref("script name")
            return EvolventDecl(name, script, (), self._finish(first))
        if self.current == "compose":
            self.advance()
            self.expect("(")
            parts = self.comma_list(lambda: self.name_ref("evolvent name"))
            self.expect(")")
            return EvolventDecl(name, None, tuple(parts), self._finish(first))
        raise self.error(
            f"found {describe(self.current)}",
            expected=("'identity'", "'script'", "'compose'"),
        )

    def _parse_trigger(self, first: int) -> TriggerCmd:
        po = self.name_ref("potential object name")
        index = self.parse_atom()
        return TriggerCmd(po, index, self._finish(first))

    def _parse_check(self, first: int) -> CheckCmd:
        diagram = self.name_ref("diagram name")
        return CheckCmd(diagram, self._finish(first))

    def _parse_query(self, first: int) -> QueryCmd:
        refs: list[Ref] = []
        expr = self.parse_relexpr(refs)
        return QueryCmd(expr, tuple(refs), self._finish(first))

    def _parse_dump(self, first: int) -> DumpCmd:
        return DumpCmd(self._finish(first))

    # -- predicates ----------------------------------------------------------

    def parse_predicate(self, params: tuple[str, str] | None,
                        member_refs: list[tuple[Ref, int]]) -> Predicate:
        """Boolean grammar: ``or`` < ``and`` < ``not`` < atoms.

        With ``params`` given (filter bodies), identifiers resolve to
        variables when they match a parameter and to symbolic constants
        otherwise.  Without them (queries), identifiers stay unresolved
        until the relation schema is known.
        """
        return self._parse_or(params, member_refs, self.depth)[0]

    # Each predicate production returns the tree it built with its height.
    # A chain ``a and b and c`` builds the left-deep And(And(a, b), c), which
    # prints as ``((a and b) and c)``: one level of nesting per operand.  So
    # every node built counts its height against MAX_DEPTH from ``base``,
    # the depth its production started at, and any predicate accepted here
    # prints to a text that is accepted too.

    def _parse_or(self, params, member_refs, base: int) -> tuple[Predicate, int]:
        return self._parse_chain(
            "or", Or, base, lambda: self._parse_and(params, member_refs, base)
        )

    def _parse_and(self, params, member_refs, base: int) -> tuple[Predicate, int]:
        return self._parse_chain(
            "and", And, base, lambda: self._parse_unary(params, member_refs)
        )

    def _parse_chain(self, word: str, node, base: int,
                     operand) -> tuple[Predicate, int]:
        left, height = operand()
        while self.current == word:
            self.advance()
            first = self.pos
            right, right_height = operand()
            height = 1 + max(height, right_height)
            if base + height > MAX_DEPTH:
                raise self.error(f"nesting deeper than {MAX_DEPTH} levels", first)
            left = node(left, right)
        return left, height

    @_nested
    def _parse_unary(self, params, member_refs) -> tuple[Predicate, int]:
        if self.current == "not":
            self.advance()
            operand, height = self._parse_unary(params, member_refs)
            return Not(operand), height + 1
        return self._parse_predicate_atom(params, member_refs)

    def _parse_predicate_atom(self, params, member_refs) -> tuple[Predicate, int]:
        if self.current == "true":
            self.advance()
            return TruePred(), 1
        if self.current == "false":
            self.advance()
            return FalsePred(), 1
        if self.current == "(":
            self.advance()
            # The parentheses already took a level; the tree inside does
            # not need another.
            inner = self._parse_or(params, member_refs, self.depth - 1)
            self.expect(")")
            return inner
        if self.current == "member":
            self.advance()
            ref = self.name_ref("relation name")
            self.expect("(")
            pattern = self.comma_list(
                lambda: self._parse_term(params, allow_wildcard=True)
            )
            self.expect(")")
            member_refs.append((ref, len(pattern)))
            return Member(ref.name, tuple(pattern)), 1
        left = self._parse_term(params, allow_wildcard=False)
        self.expect("=")
        right = self._parse_term(params, allow_wildcard=False)
        return Eq(left, right), 1

    def _parse_term(self, params, allow_wildcard: bool):
        text = self.current
        if text == "_":
            if not allow_wildcard:
                raise self.error("'_' is only valid in a membership pattern")
            self.advance()
            return Wildcard()
        kind = token_kind(text)
        if kind == IDENT and params is None:
            self.advance()
            return TermIdent(text)
        if kind == IDENT and text in params:
            self.advance()
            return Var(text)
        if kind in _ATOM_KINDS:
            return Const(self.parse_atom())
        raise self.error(
            f"found {describe(text)}", expected=("term",)
        )

    # -- query expressions -----------------------------------------------------

    @_nested
    def parse_relexpr(self, refs: list[Ref]) -> RelExpr:
        if self.current == "select":
            self.advance()
            source = self.parse_relexpr(refs)
            self.expect("where")
            pred = self.parse_predicate(params=None, member_refs=[])
            return Select(source, pred)
        if self.current == "project":
            self.advance()
            source = self.parse_relexpr(refs)
            self.expect("[")
            attrs = self.comma_list(lambda: self.expect_name("attribute name"))
            self.expect("]")
            return Project(source, tuple(attrs))
        if self.current in OPERATORS:
            node = OPERATORS[self.advance()]
            self.expect("(")
            left = self.parse_relexpr(refs)
            self.expect(",")
            right = self.parse_relexpr(refs)
            self.expect(")")
            return node(left, right)
        if self.current == "oracle":
            self.advance()
            self.expect("(")
            source = self.parse_relexpr(refs)
            self.expect(",")
            index_attr = self.expect_name("attribute name")
            self.expect("=")
            index_value = self.parse_atom()
            self.expect(",")
            target_attr = self.expect_name("attribute name")
            self.expect(")")
            return OracleExpr(source, index_attr, index_value, target_attr)
        if self.current == "(":
            self.advance()
            inner = self.parse_relexpr(refs)
            self.expect(")")
            return inner
        if token_kind(self.current) == IDENT:
            ref = self.name_ref("relation name")
            refs.append(ref)
            return RelName(ref.name)
        raise self.error(
            f"found {describe(self.current)}",
            expected=("'select'", "'project'", *(f"'{word}'" for word in OPERATORS),
                      "'oracle'", "relation name"),
        )


def parse(text: str, path: str | None = None) -> SourceUnit:
    """Parse one source text into a unit; syntax errors are collected."""
    return Parser(text, path).parse_unit()


def parse_query(text: str) -> RelExpr:
    """Parse a standalone query expression (the shell's ``query`` argument)."""
    parser = Parser(text, None)
    try:
        expr = parser.parse_relexpr([])
        if parser.current:
            raise parser.error(
                f"found {describe(parser.current)} after the expression"
            )
    except _SyncError:
        expr = None
    if parser.errors or expr is None:
        raise DodlError(
            "; ".join(d.render() for d in parser.errors) or "empty query"
        )
    return expr
