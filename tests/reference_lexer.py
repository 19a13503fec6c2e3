"""The lexer and parser that `dictelab.parser` replaced, the reference for
its differential tests.

`tokenize` here matches one token at a time and tracks the line and column
of every token, as a `Token` of kind, text, line and column.
`dictelab.parser.tokenize` reads the text in one scan into bare texts; the
parser finds a token's line and column only for an error.

`ReferenceParser` is the grammar as a recursive descent on these tokens:
one call per type constructor and parenthesis, a `ParseError` for every
failure, each error at the line and column this lexer tracked, and each
optional context read as the parser once did: a lookahead for "=>" after
it, then a second parse. `parse_program`, `parse_expr` and `parse_context`
here are the parser's entry points on it.
"""

from __future__ import annotations

import re
from collections import namedtuple

from dictelab.parser import ParseError
from dictelab.syntax import (SArrow, SBool, SApp, SAnn, SFalse, SHole, SLam,
                             SLet, STrue, STyVar, SVar, SrcConstraint,
                             SrcProgram, SrcScheme, ClassDecl, InstDecl,
                             count_holes)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<hole>\[\])
  | (?P<sym>::|=>|->|[;{}(),.:=\\])
  | (?P<ident>[A-Za-z][A-Za-z0-9_']*)
""", re.VERBOSE)

_KEYWORDS = {"class", "instance", "where", "let", "in", "forall"}

Token = namedtuple("Token", "kind text line column")


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


class ReferenceParser:
    """The grammar on the tokens of `tokenize`, as (kind, text, index)
    tuples: an error at a token's index is at its tracked position."""

    def __init__(self, text: str, allow_hole: bool):
        tokens = tokenize(text)
        self.tokens = [(t.kind, t.text, i) for i, t in enumerate(tokens)]
        self.positions = [(t.line, t.column) for t in tokens]
        self.pos = 0
        self.allow_hole = allow_hole

    # -- token plumbing ------------------------------------------------------

    def error(self, index, message, expected=()) -> ParseError:
        return ParseError(*self.positions[index], message, list(expected))

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
        if self.at(kind, text):
            self.pos += 1
            return True
        return False

    # -- types ---------------------------------------------------------------

    def atype(self):
        if self.accept("conid", "Bool"):
            return SBool()
        if self.at("varid"):
            return STyVar(self.advance())
        if self.accept("sym", "("):
            t = self.mono()
            self.expect("sym", ")")
            return t
        self.fail("expected a type", ["Bool", "type variable", "("])

    def mono(self):
        left = self.atype()
        if self.accept("sym", "->"):
            return SArrow(left, self.mono())
        return left

    def constraint(self):
        cls = self.expect("conid")
        if cls == "Bool":
            self.fail("Bool is not a class name")
        return SrcConstraint(cls, self.atype())

    def item_list(self, item) -> list:
        if not self.accept("sym", "("):
            return [item()]
        items = [item()]
        while self.accept("sym", ","):
            items.append(item())
        self.expect("sym", ")")
        return items

    def constraint_list(self):
        return tuple(self.item_list(self.constraint))

    def optional_context(self, parse, default):
        save = self.pos
        try:
            parse()
            ok = self.at("sym", "=>")
        except ParseError:
            ok = False
        self.pos = save
        if not ok:
            return default
        context = parse()
        self.expect("sym", "=>")
        return context

    def scheme(self):
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

    def aexpr(self):
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

    def appexpr(self):
        head = self.aexpr()
        if head is None:
            self.fail("expected an expression")
        while True:
            nxt = self.aexpr()
            if nxt is None:
                return head
            head = SApp(head, nxt)

    def expr(self):
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
        cls = self.expect("conid")
        index = self.tokens[self.pos][2]
        return (cls, self.expect("varid"), index)

    def class_decl(self):
        self.expect("kw", "class")
        supers = self.optional_context(
            lambda: self.item_list(self.super_item), [])
        name = self.expect("conid")
        var = self.expect("varid")
        for (_, svar, index) in supers:
            if svar != var:
                raise self.error(index, "superclass constraint must be on "
                                 f"the class variable {var!r}, got {svar!r}")
        self.expect("kw", "where")
        self.expect("sym", "{")
        method = self.expect("varid")
        self.expect("sym", ":")
        sch = self.scheme()
        self.expect("sym", "}")
        return ClassDecl(tuple(s for s, _, _ in supers), name, var, method, sch)

    def inst_decl(self):
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

    def program(self):
        decls = []
        while self.at("kw", "class") or self.at("kw", "instance"):
            decls.append(self.class_decl() if self.at("kw", "class")
                         else self.inst_decl())
            self.expect("sym", ";")
        main = self.expr()
        self.expect("eof")
        return SrcProgram(tuple(decls), main)


def parse_program(text: str):
    return ReferenceParser(text, allow_hole=False).program()


def parse_expr(text: str, allow_hole: bool = False):
    p = ReferenceParser(text, allow_hole)
    e = p.expr()
    p.expect("eof")
    return e


def parse_context(text: str):
    e = parse_expr(text, allow_hole=True)
    n = count_holes(e)
    if n != 1:
        raise ParseError(1, 1, f"context must contain exactly one hole, found {n}")
    return e
