"""Concrete syntax for surface programs and context files.

Hand-written recursive-descent parser. Whitespace-insensitive, line comments
start with "--". The annotation form is "(e :: t)". The hole token "[]" is
only legal in context files.
"""

from __future__ import annotations

import re

from .syntax import (SArrow, SBool, SApp, SAnn, SFalse, SHole, SLam, SLet,
                     STrue, STyVar, SVar, SrcConstraint, SrcExpr, SrcMono,
                     SrcProgram, SrcScheme, ClassDecl, InstDecl, count_holes,
                     frozen)


class ParseError(Exception):
    def __init__(self, line, column, message, expected=None):
        super().__init__(line, column, message)
        self.line, self.column, self.message = line, column, message
        self.expected = [] if expected is None else expected

    def __str__(self):
        s = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            s += " (expected " + " or ".join(self.expected) + ")"
        return s


_KEYWORDS = {"class", "instance", "where", "let", "in", "forall"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<hole>\[\])
  | (?P<sym>::|=>|->|[;{}(),.:=\\])
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
""", re.VERBOSE)


@frozen
class Token:
    kind: str  # 'conid' | 'varid' | 'kw' | 'sym' | 'hole' | 'eof'
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        lexeme, kind = m.group(0), m.lastgroup
        if kind == "ident":
            kind = ("kw" if lexeme in _KEYWORDS
                    else "conid" if lexeme[0].isupper() else "varid")
        if kind != "ws":
            tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_hole: bool):
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_hole = allow_hole

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message, expected=()):
        t = self.peek()
        raise ParseError(t.line, t.column, message, list(expected))

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            self.fail(f"unexpected {t.text!r}" if t.text else "unexpected end of input",
                      [text or kind])
        return self.advance()

    def at(self, kind, text=None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    # -- types ---------------------------------------------------------------

    def atype(self) -> SrcMono:
        if self.at("conid", "Bool"):
            self.advance()
            return SBool()
        if self.at("varid"):
            return STyVar(self.advance().text)
        if self.at("sym", "("):
            self.advance()
            t = self.mono()
            self.expect("sym", ")")
            return t
        self.fail("expected a type", ["Bool", "type variable", "("])

    def mono(self) -> SrcMono:
        left = self.atype()
        if self.at("sym", "->"):
            self.advance()
            return SArrow(left, self.mono())
        return left

    def constraint(self) -> SrcConstraint:
        cls = self.expect("conid").text
        if cls == "Bool":
            self.fail("Bool is not a class name")
        return SrcConstraint(cls, self.atype())

    def item_list(self, item) -> list:
        """One item, or a parenthesized comma list of them."""
        if not self.at("sym", "("):
            return [item()]
        self.advance()
        items = [item()]
        while self.at("sym", ","):
            self.advance()
            items.append(item())
        self.expect("sym", ")")
        return items

    def constraint_list(self) -> tuple[SrcConstraint, ...]:
        return tuple(self.item_list(self.constraint))

    def _looks_like_context(self, parse) -> bool:
        # Look ahead for "=>" after what parse reads; consumes nothing.
        save = self.pos
        try:
            parse()
            ok = self.at("sym", "=>")
        except ParseError:
            ok = False
        self.pos = save
        return ok

    def scheme(self) -> SrcScheme:
        binders: list[str] = []
        if self.at("kw", "forall"):
            self.advance()
            binders.append(self.expect("varid").text)
            while self.at("varid"):
                binders.append(self.advance().text)
            self.expect("sym", ".")
        context: tuple[SrcConstraint, ...] = ()
        if self._looks_like_context(self.constraint_list):
            context = self.constraint_list()
            self.expect("sym", "=>")
        if len(set(binders)) != len(binders):
            self.fail("duplicate scheme binders")
        return SrcScheme(tuple(binders), context, self.mono())

    # -- expressions ---------------------------------------------------------

    def aexpr(self) -> SrcExpr | None:
        if self.at("conid", "True"):
            self.advance()
            return STrue()
        if self.at("conid", "False"):
            self.advance()
            return SFalse()
        if self.at("varid"):
            return SVar(self.advance().text)
        if self.at("hole"):
            t = self.advance()
            if not self.allow_hole:
                raise ParseError(t.line, t.column,
                                 "hole [] is only legal in context files")
            return SHole()
        if self.at("sym", "("):
            self.advance()
            e = self.expr()
            if self.at("sym", "::"):
                self.advance()
                e = SAnn(e, self.mono())
            self.expect("sym", ")")
            return e
        return None

    def appexpr(self) -> SrcExpr:
        head = self.aexpr()
        if head is None:
            self.fail("expected an expression")
        while True:
            nxt = self.aexpr()
            if nxt is None:
                return head
            head = SApp(head, nxt)

    def expr(self) -> SrcExpr:
        if self.at("sym", "\\"):
            self.advance()
            x = self.expect("varid").text
            self.expect("sym", ".")
            return SLam(x, self.expr())
        if self.at("kw", "let"):
            self.advance()
            x = self.expect("varid").text
            self.expect("sym", ":")
            sch = self.scheme()
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            return SLet(x, sch, bound, self.expr())
        return self.appexpr()

    # -- declarations --------------------------------------------------------

    def super_context(self):
        # superclass items are bare class names applied to the class variable
        return self.item_list(self._super_item)

    def _super_item(self):
        cls = self.expect("conid").text
        var_tok = self.expect("varid")
        return (cls, var_tok.text, var_tok)

    def class_decl(self) -> ClassDecl:
        self.expect("kw", "class")
        supers = []
        if self._looks_like_context(self.super_context):
            supers = self.super_context()
            self.expect("sym", "=>")
        name = self.expect("conid").text
        var = self.expect("varid").text
        for (_, svar, tok) in supers:
            if svar != var:
                raise ParseError(tok.line, tok.column,
                                 f"superclass constraint must be on the class "
                                 f"variable {var!r}, got {svar!r}")
        self.expect("kw", "where")
        self.expect("sym", "{")
        method = self.expect("varid").text
        self.expect("sym", ":")
        sch = self.scheme()
        self.expect("sym", "}")
        return ClassDecl(tuple(s for s, _, _ in supers), name, var, method, sch)

    def inst_decl(self) -> InstDecl:
        self.expect("kw", "instance")
        context: tuple[SrcConstraint, ...] = ()
        if self._looks_like_context(self.constraint_list):
            context = self.constraint_list()
            self.expect("sym", "=>")
        cls = self.expect("conid").text
        head = self.atype()
        self.expect("kw", "where")
        self.expect("sym", "{")
        method = self.expect("varid").text
        self.expect("sym", "=")
        body = self.expr()
        self.expect("sym", "}")
        return InstDecl(context, cls, head, method, body)

    def program(self) -> SrcProgram:
        decls = []
        while self.at("kw", "class") or self.at("kw", "instance"):
            if self.at("kw", "class"):
                decls.append(self.class_decl())
            else:
                decls.append(self.inst_decl())
            self.expect("sym", ";")
        main = self.expr()
        self.expect("eof")
        return SrcProgram(tuple(decls), main)


def parse_program(text: str) -> SrcProgram:
    return _Parser(text, allow_hole=False).program()


def parse_expr(text: str, allow_hole: bool = False) -> SrcExpr:
    p = _Parser(text, allow_hole)
    e = p.expr()
    p.expect("eof")
    return e


def parse_context(text: str) -> SrcExpr:
    e = parse_expr(text, allow_hole=True)
    n = count_holes(e)
    if n != 1:
        raise ParseError(1, 1, f"context must contain exactly one hole, found {n}")
    return e
