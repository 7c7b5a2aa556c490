"""Recursive-descent parser for the definition language.

One statement per ``;``; on a syntax error the parser records a diagnostic,
resynchronizes at the next ``;`` and keeps going, bailing out after 20
diagnostics.  Grammar summary (keywords are contextual):

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

from ..core import NUMERIC, SYMBOLIC, Atom
from ..diagrams import (
    And,
    Apply,
    Const,
    DiagramExpr,
    Eq,
    FalsePred,
    FilterRef,
    Fst,
    IdArrow,
    IndexShift,
    Input,
    Member,
    Not,
    Or,
    Pair,
    Predicate,
    Snd,
    Subst,
    TruePred,
    Var,
    Wildcard,
)
from ..errors import DodlError
from ..relational import (
    DifferenceExpr,
    JoinExpr,
    OracleExpr,
    Project,
    RelExpr,
    RelName,
    Select,
    TermIdent,
    UnionExpr,
)
from .lexer import EOF, IDENT, INT, PUNCT, Token, tokenize
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
    ShapePart,
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
    def __init__(self, text: str, path: str | None = None):
        self.text = text
        self.path = path
        self.tokens, lex_errors = tokenize(text)
        self.pos = 0
        self.current: Token = self.tokens[0]
        self.depth = 0
        self.errors: list[Diagnostic] = list(lex_errors)

    # -- token plumbing ----------------------------------------------------

    def advance(self) -> Token:
        token = self.current
        if token.kind != EOF:
            self.pos += 1
            self.current = self.tokens[self.pos]
        return token

    def at_word(self, word: str) -> bool:
        token = self.current
        return token.kind == IDENT and token.text == word

    def at_punct(self, text: str) -> bool:
        token = self.current
        return token.kind == PUNCT and token.text == text

    def error(self, message: str, token: Token | None = None,
              expected: tuple[str, ...] = ()) -> _SyncError:
        token = token or self.current
        self.errors.append(Diagnostic(
            message, token.line, token.col, token.start, token.end,
            expected, self.path,
        ))
        return _SyncError()

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            raise self.error(
                f"found {self.current.describe()}", expected=(f"'{text}'",)
            )
        return self.advance()

    def expect_word(self, word: str) -> Token:
        if not self.at_word(word):
            raise self.error(
                f"found {self.current.describe()}", expected=(f"'{word}'",)
            )
        return self.advance()

    def expect_name(self, what: str = "identifier") -> Token:
        if self.current.kind != IDENT:
            raise self.error(
                f"found {self.current.describe()}", expected=(what,)
            )
        return self.advance()

    def span(self, first: Token, last: Token) -> Span:
        return Span(first.line, first.col, first.start, last.end, self.path)

    def name_ref(self, what: str = "identifier") -> Ref:
        token = self.expect_name(what)
        return Ref(token.text, self.span(token, token))

    def parse_atom(self) -> Atom:
        token = self.current
        if token.kind == IDENT:
            self.advance()
            return Atom(token.text, SYMBOLIC)
        if token.kind == INT:
            self.advance()
            return Atom(token.text, NUMERIC)
        raise self.error(
            f"found {token.describe()}", expected=("atom",)
        )

    # -- statements ----------------------------------------------------------

    def parse_unit(self) -> SourceUnit:
        statements = []
        while self.current.kind != EOF:
            if len(self.errors) >= MAX_ERRORS:
                break
            first = self.current
            try:
                statements.append(self.parse_statement())
            except _SyncError:
                self.synchronize()
            except DodlError as exc:
                # Malformed values (e.g. a bad atom) surface as diagnostics.
                self.errors.append(Diagnostic(
                    str(exc), first.line, first.col, first.start,
                    max(first.end, self.current.start), (), self.path,
                ))
                self.synchronize()
        return SourceUnit(self.path, self.text,
                          tuple(statements), tuple(self.errors[:MAX_ERRORS]))

    def synchronize(self):
        while self.current.kind != EOF and not self.at_punct(";"):
            self.advance()
        if self.at_punct(";"):
            self.advance()

    def parse_statement(self):
        token = self.current
        if token.kind != IDENT or token.text not in STATEMENT_KEYWORDS:
            raise self.error(
                f"found {token.describe()}",
                expected=STATEMENT_KEYWORDS,
            )
        handler = getattr(self, f"_parse_{token.text}")
        self.advance()
        statement = handler(token)
        return statement

    def _finish(self, first: Token) -> Span:
        last = self.expect_punct(";")
        return self.span(first, last)

    def _parse_sort(self, first: Token) -> SortDecl:
        name = self.name_ref("sort name")
        self.expect_punct(":")
        kind_token = self.expect_name("'symbolic' or 'numeric'")
        if kind_token.text not in (SYMBOLIC, NUMERIC):
            raise self.error(
                f"found {kind_token.describe()}", kind_token,
                expected=("'symbolic'", "'numeric'"),
            )
        return SortDecl(name, kind_token.text, self._finish(first))

    def _parse_domain(self, first: Token) -> DomainDecl:
        name = self.name_ref("domain name")
        self.expect_punct(":")
        sort = self.name_ref("sort name")
        self.expect_punct("=")
        self.expect_punct("{")
        atoms = []
        if not self.at_punct("}"):
            atoms.append(self.parse_atom())
            while self.at_punct(","):
                self.advance()
                atoms.append(self.parse_atom())
        self.expect_punct("}")
        return DomainDecl(name, sort, tuple(atoms), self._finish(first))

    def _parse_relation(self, first: Token) -> RelationDecl:
        name = self.name_ref("relation name")
        self.expect_punct("(")
        attributes = [self._parse_attribute()]
        while self.at_punct(","):
            self.advance()
            attributes.append(self._parse_attribute())
        self.expect_punct(")")
        self.expect_punct("=")
        self.expect_punct("{")
        rows = []
        if not self.at_punct("}"):
            rows.append(self._parse_row())
            while self.at_punct(","):
                self.advance()
                rows.append(self._parse_row())
        self.expect_punct("}")
        return RelationDecl(name, tuple(attributes), tuple(rows),
                            self._finish(first))

    def _parse_attribute(self) -> tuple[str, Ref]:
        attr = self.expect_name("attribute name")
        self.expect_punct(":")
        sort = self.name_ref("sort name")
        return attr.text, sort

    def _parse_row(self) -> tuple[Atom, ...]:
        self.expect_punct("(")
        atoms = [self.parse_atom()]
        while self.at_punct(","):
            self.advance()
            atoms.append(self.parse_atom())
        self.expect_punct(")")
        return tuple(atoms)

    def _parse_filter(self, first: Token) -> FilterDecl:
        name = self.name_ref("filter name")
        self.expect_punct("(")
        index_var = self.expect_name("index variable").text
        self.expect_punct(",")
        candidate_var = self.expect_name("candidate variable").text
        self.expect_punct(")")
        self.expect_punct("=")
        member_refs: list[tuple[Ref, int]] = []
        body = self.parse_predicate(
            params=(index_var, candidate_var), member_refs=member_refs
        )
        return FilterDecl(name, index_var, candidate_var, body,
                          tuple(member_refs), self._finish(first))

    def _parse_potential(self, first: Token) -> PotentialDecl:
        name = self.name_ref("potential object name")
        self.expect_word("carrier")
        carrier = self.name_ref("domain name")
        self.expect_word("index")
        index_domain = self.name_ref("domain name")
        self.expect_word("filter")
        filter_ref = self.name_ref("filter name")
        return PotentialDecl(name, carrier, index_domain, filter_ref,
                             self._finish(first))

    def _parse_concept(self, first: Token) -> ConceptDecl:
        name = self.name_ref("concept name")
        parents = []
        if self.at_punct(":"):
            self.advance()
            parents.append(self.name_ref("parent concept"))
            while self.at_punct(","):
                self.advance()
                parents.append(self.name_ref("parent concept"))
        self.expect_punct("{")
        attributes: list[tuple[str, Atom]] = []
        events: list[str] = []
        menus: list[tuple[str, str]] = []
        encapsulated: list[str] = []
        while not self.at_punct("}"):
            item = self.expect_name("'attr', 'event', 'menu' or 'encapsulated'")
            if item.text == "attr":
                attr = self.expect_name("attribute name").text
                self.expect_punct("=")
                attributes.append((attr, self.parse_atom()))
            elif item.text == "event":
                events.append(self.expect_name("event name").text)
            elif item.text == "menu":
                label = self.expect_name("menu label").text
                self.expect_punct("->")
                menus.append((label, self.expect_name("event name").text))
            elif item.text == "encapsulated":
                encapsulated.append(self.expect_name("attribute name").text)
                while self.at_punct(","):
                    self.advance()
                    encapsulated.append(self.expect_name("attribute name").text)
            else:
                raise self.error(
                    f"found {item.describe()}", item,
                    expected=("'attr'", "'event'", "'menu'", "'encapsulated'"),
                )
            self.expect_punct(";")
        self.expect_punct("}")
        return ConceptDecl(name, tuple(parents), tuple(attributes),
                           tuple(events), tuple(menus), tuple(encapsulated),
                           self._finish(first))

    def _parse_diagram(self, first: Token) -> DiagramDecl:
        name = self.name_ref("diagram name")
        self.expect_word("entry")
        entry = self._parse_shape()
        filter_refs: list[Ref] = []
        shift_refs: list[Ref] = []
        self.expect_word("path_a")
        path_a = self._parse_path(filter_refs, shift_refs)
        self.expect_word("path_b")
        path_b = self._parse_path(filter_refs, shift_refs)
        self.expect_word("exit")
        exit_shape = self._parse_shape()
        return DiagramDecl(name, entry, path_a, path_b, exit_shape,
                           tuple(filter_refs), tuple(shift_refs),
                           self._finish(first))

    def _parse_shape(self) -> tuple[ShapePart, ...]:
        if self.at_word("pair"):
            self.advance()
            self.expect_punct("(")
            left = self._parse_shape_part()
            self.expect_punct(",")
            right = self._parse_shape_part()
            self.expect_punct(")")
            return (left, right)
        return (self._parse_shape_part(),)

    def _parse_shape_part(self) -> ShapePart:
        token = self.expect_name("domain name or 'bool'")
        return ShapePart(token.text, self.span(token, token))

    def _parse_path(self, filter_refs, shift_refs) -> tuple[DiagramExpr, ...]:
        self.expect_punct("[")
        steps = []
        if not self.at_punct("]"):
            steps.append(self.parse_diagram_expr(filter_refs, shift_refs))
            while self.at_punct(","):
                self.advance()
                steps.append(self.parse_diagram_expr(filter_refs, shift_refs))
        self.expect_punct("]")
        return tuple(steps)

    @_nested
    def parse_diagram_expr(self, filter_refs, shift_refs) -> DiagramExpr:
        token = self.current
        if token.kind != IDENT:
            raise self.error(
                f"found {token.describe()}", expected=("combinator",)
            )
        word = token.text
        self.advance()
        if word == "input":
            return Input()
        if word == "var":
            return Var(self.expect_name("variable name").text)
        if word == "const":
            return Const(self.parse_atom())
        if word == "filter":
            ref = self.name_ref("filter name")
            filter_refs.append(ref)
            return FilterRef(ref.name)
        if word in ("fst", "snd", "id"):
            self.expect_punct("(")
            operand = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(")")
            if word == "fst":
                return Fst(operand)
            if word == "snd":
                return Snd(operand)
            return IdArrow(operand)
        if word == "pair":
            self.expect_punct("(")
            left = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(",")
            right = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(")")
            return Pair(left, right)
        if word == "apply":
            self.expect_punct("(")
            fn = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(",")
            arg = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(")")
            return Apply(fn, arg)
        if word == "subst":
            self.expect_punct("(")
            var = self.expect_name("variable name").text
            self.expect_punct(",")
            target = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(",")
            value = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(")")
            return Subst(var, target, value)
        if word == "shift":
            self.expect_punct("(")
            ref = self.name_ref("potential object name")
            shift_refs.append(ref)
            self.expect_punct(",")
            index = self.parse_diagram_expr(filter_refs, shift_refs)
            self.expect_punct(")")
            return IndexShift(ref.name, index)
        raise self.error(
            f"found {token.describe()}", token,
            expected=("'input'", "'var'", "'const'", "'fst'", "'snd'",
                      "'pair'", "'subst'", "'apply'", "'filter'", "'shift'",
                      "'id'"),
        )

    def _parse_script(self, first: Token) -> ScriptDecl:
        name = self.name_ref("script name")
        self.expect_punct("=")
        self.expect_punct("[")
        steps = []
        if not self.at_punct("]"):
            steps.append(self._parse_script_step())
            while self.at_punct(","):
                self.advance()
                steps.append(self._parse_script_step())
        self.expect_punct("]")
        return ScriptDecl(name, tuple(steps), self._finish(first))

    def _parse_script_step(self) -> tuple[Ref, Atom]:
        self.expect_punct("(")
        po = self.name_ref("potential object name")
        self.expect_punct(",")
        index = self.parse_atom()
        self.expect_punct(")")
        return po, index

    def _parse_evolvent(self, first: Token) -> EvolventDecl:
        name = self.name_ref("evolvent name")
        self.expect_punct("=")
        if self.at_word("identity"):
            self.advance()
            return EvolventDecl(name, "identity", None, (), self._finish(first))
        if self.at_word("script"):
            self.advance()
            script = self.name_ref("script name")
            return EvolventDecl(name, "script", script, (), self._finish(first))
        if self.at_word("compose"):
            self.advance()
            self.expect_punct("(")
            parts = [self.name_ref("evolvent name")]
            while self.at_punct(","):
                self.advance()
                parts.append(self.name_ref("evolvent name"))
            self.expect_punct(")")
            return EvolventDecl(name, "composed", None, tuple(parts),
                                self._finish(first))
        raise self.error(
            f"found {self.current.describe()}",
            expected=("'identity'", "'script'", "'compose'"),
        )

    def _parse_trigger(self, first: Token) -> TriggerCmd:
        po = self.name_ref("potential object name")
        index = self.parse_atom()
        return TriggerCmd(po, index, self._finish(first))

    def _parse_check(self, first: Token) -> CheckCmd:
        diagram = self.name_ref("diagram name")
        return CheckCmd(diagram, self._finish(first))

    def _parse_query(self, first: Token) -> QueryCmd:
        refs: list[Ref] = []
        expr = self.parse_relexpr(refs)
        return QueryCmd(expr, tuple(refs), self._finish(first))

    def _parse_dump(self, first: Token) -> DumpCmd:
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
        while self.at_word(word):
            self.advance()
            first = self.current
            right, right_height = operand()
            height = 1 + max(height, right_height)
            if base + height > MAX_DEPTH:
                raise self.error(f"nesting deeper than {MAX_DEPTH} levels", first)
            left = node(left, right)
        return left, height

    @_nested
    def _parse_unary(self, params, member_refs) -> tuple[Predicate, int]:
        if self.at_word("not"):
            self.advance()
            operand, height = self._parse_unary(params, member_refs)
            return Not(operand), height + 1
        return self._parse_predicate_atom(params, member_refs)

    def _parse_predicate_atom(self, params, member_refs) -> tuple[Predicate, int]:
        if self.at_word("true"):
            self.advance()
            return TruePred(), 1
        if self.at_word("false"):
            self.advance()
            return FalsePred(), 1
        if self.at_punct("("):
            self.advance()
            # The parentheses already took a level; the tree inside does
            # not need another.
            inner = self._parse_or(params, member_refs, self.depth - 1)
            self.expect_punct(")")
            return inner
        if self.at_word("member"):
            self.advance()
            ref = self.name_ref("relation name")
            self.expect_punct("(")
            pattern = [self._parse_term(params, allow_wildcard=True)]
            while self.at_punct(","):
                self.advance()
                pattern.append(self._parse_term(params, allow_wildcard=True))
            self.expect_punct(")")
            member_refs.append((ref, len(pattern)))
            return Member(ref.name, tuple(pattern)), 1
        left = self._parse_term(params, allow_wildcard=False)
        self.expect_punct("=")
        right = self._parse_term(params, allow_wildcard=False)
        return Eq(left, right), 1

    def _parse_term(self, params, allow_wildcard: bool):
        token = self.current
        if self.at_punct("_"):
            if not allow_wildcard:
                raise self.error("'_' is only valid in a membership pattern")
            self.advance()
            return Wildcard()
        if token.kind == INT:
            self.advance()
            return Const(Atom(token.text, NUMERIC))
        if token.kind == IDENT:
            self.advance()
            if params is None:
                return TermIdent(token.text)
            if token.text in params:
                return Var(token.text)
            return Const(Atom(token.text, SYMBOLIC))
        raise self.error(
            f"found {token.describe()}", expected=("term",)
        )

    # -- query expressions -----------------------------------------------------

    @_nested
    def parse_relexpr(self, refs: list[Ref]) -> RelExpr:
        if self.at_word("select"):
            self.advance()
            source = self.parse_relexpr(refs)
            self.expect_word("where")
            pred = self.parse_predicate(params=None, member_refs=[])
            return Select(source, pred)
        if self.at_word("project"):
            self.advance()
            source = self.parse_relexpr(refs)
            self.expect_punct("[")
            attrs = [self.expect_name("attribute name").text]
            while self.at_punct(","):
                self.advance()
                attrs.append(self.expect_name("attribute name").text)
            self.expect_punct("]")
            return Project(source, tuple(attrs))
        if self.at_word("join") or self.at_word("union") or self.at_word("difference"):
            word = self.advance().text
            self.expect_punct("(")
            left = self.parse_relexpr(refs)
            self.expect_punct(",")
            right = self.parse_relexpr(refs)
            self.expect_punct(")")
            if word == "join":
                return JoinExpr(left, right)
            if word == "union":
                return UnionExpr(left, right)
            return DifferenceExpr(left, right)
        if self.at_word("oracle"):
            self.advance()
            self.expect_punct("(")
            source = self.parse_relexpr(refs)
            self.expect_punct(",")
            index_attr = self.expect_name("attribute name").text
            self.expect_punct("=")
            index_value = self.parse_atom()
            self.expect_punct(",")
            target_attr = self.expect_name("attribute name").text
            self.expect_punct(")")
            return OracleExpr(source, index_attr, index_value, target_attr)
        if self.at_punct("("):
            self.advance()
            inner = self.parse_relexpr(refs)
            self.expect_punct(")")
            return inner
        if self.current.kind == IDENT:
            ref = self.name_ref("relation name")
            refs.append(ref)
            return RelName(ref.name)
        raise self.error(
            f"found {self.current.describe()}",
            expected=("'select'", "'project'", "'join'", "'union'",
                      "'difference'", "'oracle'", "relation name"),
        )


def parse(text: str, path: str | None = None) -> SourceUnit:
    """Parse one source text into a unit; syntax errors are collected."""
    return Parser(text, path).parse_unit()


def parse_query(text: str) -> RelExpr:
    """Parse a standalone query expression (the shell's ``query`` argument)."""
    parser = Parser(text, None)
    try:
        expr = parser.parse_relexpr([])
        if parser.current.kind != EOF:
            raise parser.error(
                f"found {parser.current.describe()} after the expression"
            )
    except _SyncError:
        expr = None
    if parser.errors or expr is None:
        raise DodlError(
            "; ".join(d.render() for d in parser.errors) or "empty query"
        )
    return expr
