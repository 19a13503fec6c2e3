"""Concrete syntax for surface programs and context files.

Hand-written recursive-descent parser. Whitespace-insensitive, line comments
start with "--". The annotation form is "(e :: t)". The hole token "[]" is
only legal in context files.

A token is a `(kind, text, offset)` tuple, read in one scan of the text;
the last is `("eof", "", len(text))`. Nothing tracks lines: the line and
column of an error are looked up from its offset, in a table of line
starts built at the first error of a text.
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .syntax import (SArrow, SBool, SApp, SAnn, SFalse, SHole, SLam, SLet,
                     STrue, STyVar, SVar, SrcConstraint, SrcExpr, SrcMono,
                     SrcProgram, SrcScheme, ClassDecl, InstDecl, count_holes)


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


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<hole>\[\])
  | (?P<sym>::|=>|->|[;{}(),.:=\\])
  | (?P<kw>(?:class|instance|where|let|in|forall)(?![A-Za-z0-9_']))
  | (?P<conid>[A-Z][A-Za-z0-9_']*)
  | (?P<varid>[a-z][A-Za-z0-9_']*)
  | (?P<bad>.)
""", re.VERBOSE)


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(*_position(_line_starts(text), m.start()),
                             f"unexpected character {m.group()!r}")
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_hole: bool):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_hole = allow_hole
        self.line_starts = None

    # -- token plumbing ------------------------------------------------------

    def error(self, offset, message, expected=()) -> ParseError:
        if self.line_starts is None:
            self.line_starts = _line_starts(self.text)
        return ParseError(*_position(self.line_starts, offset), message,
                          list(expected))

    def advance(self) -> str:
        text = self.tokens[self.pos][1]
        self.pos += 1
        return text

    def fail(self, message, expected=()):
        raise self.error(self.tokens[self.pos][2], message, expected)

    def expect(self, kind, text=None) -> str:
        k, s, _ = self.tokens[self.pos]
        if k != kind or (text is not None and s != text):
            self.fail(f"unexpected {s!r}" if s else "unexpected end of input",
                      [text or kind])
        return self.advance()

    def at(self, kind, text=None) -> bool:
        k, s, _ = self.tokens[self.pos]
        return k == kind and (text is None or s == text)

    def accept(self, kind, text=None) -> bool:
        """Whether the next token is of kind (and text); if so, reads it."""
        if self.at(kind, text):
            self.pos += 1
            return True
        return False

    # -- types ---------------------------------------------------------------

    def atype(self) -> SrcMono:
        if self.accept("conid", "Bool"):
            return SBool()
        if self.at("varid"):
            return STyVar(self.advance())
        if self.accept("sym", "("):
            t = self.mono()
            self.expect("sym", ")")
            return t
        self.fail("expected a type", ["Bool", "type variable", "("])

    def mono(self) -> SrcMono:
        left = self.atype()
        if self.accept("sym", "->"):
            return SArrow(left, self.mono())
        return left

    def constraint(self) -> SrcConstraint:
        cls = self.expect("conid")
        if cls == "Bool":
            self.fail("Bool is not a class name")
        return SrcConstraint(cls, self.atype())

    def item_list(self, item) -> list:
        """One item, or a parenthesized comma list of them."""
        if not self.accept("sym", "("):
            return [item()]
        items = [item()]
        while self.accept("sym", ","):
            items.append(item())
        self.expect("sym", ")")
        return items

    def constraint_list(self) -> tuple[SrcConstraint, ...]:
        return tuple(self.item_list(self.constraint))

    def optional_context(self, parse, default):
        """parse() and a "=>" after it, else default and no token read."""
        save = self.pos
        try:
            context = parse()
            if self.accept("sym", "=>"):
                return context
        except ParseError:
            pass
        self.pos = save
        return default

    def scheme(self) -> SrcScheme:
        binders: list[str] = []
        if self.accept("kw", "forall"):
            binders.append(self.expect("varid"))
            while self.at("varid"):
                binders.append(self.advance())
            self.expect("sym", ".")
        context = self.optional_context(self.constraint_list, ())
        if len(set(binders)) != len(binders):
            self.fail("duplicate scheme binders")
        return SrcScheme(tuple(binders), context, self.mono())

    # -- expressions ---------------------------------------------------------

    def aexpr(self) -> SrcExpr | None:
        if self.accept("conid", "True"):
            return STrue()
        if self.accept("conid", "False"):
            return SFalse()
        if self.at("varid"):
            return SVar(self.advance())
        if self.at("hole"):
            if not self.allow_hole:
                self.fail("hole [] is only legal in context files")
            self.advance()
            return SHole()
        if self.accept("sym", "("):
            e = self.expr()
            if self.accept("sym", "::"):
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
        if self.accept("sym", "\\"):
            x = self.expect("varid")
            self.expect("sym", ".")
            return SLam(x, self.expr())
        if self.accept("kw", "let"):
            x = self.expect("varid")
            self.expect("sym", ":")
            sch = self.scheme()
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            return SLet(x, sch, bound, self.expr())
        return self.appexpr()

    # -- declarations --------------------------------------------------------

    def super_item(self):
        # a bare class name applied to the class variable, and its offset
        cls = self.expect("conid")
        offset = self.tokens[self.pos][2]
        return (cls, self.expect("varid"), offset)

    def class_decl(self) -> ClassDecl:
        self.expect("kw", "class")
        supers = self.optional_context(
            lambda: self.item_list(self.super_item), [])
        name = self.expect("conid")
        var = self.expect("varid")
        for (_, svar, offset) in supers:
            if svar != var:
                raise self.error(offset, "superclass constraint must be on "
                                 f"the class variable {var!r}, got {svar!r}")
        self.expect("kw", "where")
        self.expect("sym", "{")
        method = self.expect("varid")
        self.expect("sym", ":")
        sch = self.scheme()
        self.expect("sym", "}")
        return ClassDecl(tuple(s for s, _, _ in supers), name, var, method, sch)

    def inst_decl(self) -> InstDecl:
        self.expect("kw", "instance")
        context = self.optional_context(self.constraint_list, ())
        cls = self.expect("conid")
        head = self.atype()
        self.expect("kw", "where")
        self.expect("sym", "{")
        method = self.expect("varid")
        self.expect("sym", "=")
        body = self.expr()
        self.expect("sym", "}")
        return InstDecl(context, cls, head, method, body)

    def program(self) -> SrcProgram:
        decls = []
        while self.at("kw", "class") or self.at("kw", "instance"):
            decls.append(self.class_decl() if self.at("kw", "class")
                         else self.inst_decl())
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
