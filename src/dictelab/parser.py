"""Concrete syntax for surface programs and context files.

Hand-written recursive-descent parser. Whitespace-insensitive, line comments
start with "--". The annotation form is "(e :: t)". The hole token "[]" is
only legal in context files.

A token is its text, and the text is read in one scan: `tokenize` is one
`findall` of a regex that skips whitespace and comments, then captures a
token; the last token is "", the end of input. A token's kind is a function
of its text (`_kind`). Types parse in a loop, with a stack of pending left
operands, so no nesting of a type overflows Python's stack.

Inside the parser a failure is a `_Fail` carrying the index of the token it
is at, which `optional_context` catches to read no context. Only the entry
points turn a failure into a `ParseError`; then, and only then, the token's
offset is found by a second scan of the text, and its line and column in a
table of line starts.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import islice

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


class _Fail(Exception):
    """A grammar failure: args are the index of the token it is at, the
    message and the expected list."""


# Whitespace and comments, then one token: a fixed text, an identifier,
# the rest of the text from a bad character on, or "" at the end. A bad
# character takes the rest of the text, so it ends the scan, and the first
# one is the last token before "".
_TOKEN_RE = re.compile(r"""
    \s* (?:--[^\n]*\s*)*
    ( \[\] | :: | => | -> | [;{}(),.:=\\]
    | [A-Za-z][A-Za-z0-9_']*
    | .[\s\S]*
    | \Z )
""", re.VERBOSE)

_KINDS = {
    **dict.fromkeys(("class", "instance", "where", "let", "in", "forall"),
                    "kw"),
    **dict.fromkeys(("::", "=>", "->", ";", "{", "}", "(", ")", ",", ".",
                     ":", "=", "\\"), "sym"),
    "[]": "hole",
    "": "eof",
}


def _kind(token: str) -> str:
    """The kind of a token, by its text."""
    kind = _KINDS.get(token)
    if kind is not None:
        return kind
    first = token[0]
    return ("conid" if "A" <= first <= "Z"
            else "varid" if "a" <= first <= "z" else "bad")


def _line_starts(text: str) -> list[int]:
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _error(text: str, index: int, message: str, expected=()) -> ParseError:
    """The error at the index-th token of text."""
    offset = next(islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    return ParseError(*_position(_line_starts(text), offset), message,
                      list(expected))


def tokenize(text: str) -> list[str]:
    """The tokens of text, the last one "", or a ParseError at its first
    bad character."""
    tokens = _TOKEN_RE.findall(text)
    if len(tokens) > 1:
        last = tokens[-2]
        if not last:
            # Trailing blanks: the scan matched the end twice.
            tokens.pop()
        elif _kind(last) == "bad":
            raise _error(text, len(tokens) - 2,
                         f"unexpected character {last[0]!r}")
    return tokens


class _Parser:
    def __init__(self, text: str, allow_hole: bool):
        self.tokens = tokenize(text)
        self.pos = 0
        self.allow_hole = allow_hole

    # -- token plumbing ------------------------------------------------------

    def fail(self, message, expected=()):
        raise _Fail(self.pos, message, expected)

    def unexpected(self, expected):
        token = self.tokens[self.pos]
        self.fail(f"unexpected {token!r}" if token
                  else "unexpected end of input", [expected])

    def expect(self, text) -> str:
        """Reads the next token, which must be text ("" is the end)."""
        if self.tokens[self.pos] != text:
            self.unexpected(text or "eof")
        self.pos += 1
        return text

    def name(self, kind) -> str:
        """Reads the next token, which must be of kind "varid" or
        "conid"."""
        token = self.tokens[self.pos]
        if _kind(token) != kind:
            self.unexpected(kind)
        self.pos += 1
        return token

    def accept(self, text) -> bool:
        """Whether the next token is text; if so, reads it."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    # -- types ---------------------------------------------------------------

    def mono(self, atomic=False) -> SrcMono:
        """A type, or with atomic one atomic type: Bool, a type variable or
        a parenthesized type. Arrows associate to the right."""
        tokens, pos = self.tokens, self.pos
        pending = []        # a left operand of "->", or None for an open "("
        while True:
            token = tokens[pos]
            if token == "(":
                pos += 1
                pending.append(None)
                continue
            if token == "Bool":
                t = SBool()
            elif _kind(token) == "varid":
                t = STyVar(token)
            else:
                self.pos = pos
                self.fail("expected a type", ["Bool", "type variable", "("])
            pos += 1
            # t is an atomic type: an arrow after it makes it pending, or
            # it ends the arrows pending since the innermost open "(".
            while True:
                token = tokens[pos]
                if token == "->" and (pending or not atomic):
                    pos += 1
                    pending.append(t)
                    break
                while pending and pending[-1] is not None:
                    t = SArrow(pending.pop(), t)
                if not pending or token != ")":
                    self.pos = pos
                    if pending:
                        self.unexpected(")")
                    return t
                pos += 1
                pending.pop()

    def constraint(self) -> SrcConstraint:
        cls = self.name("conid")
        if cls == "Bool":
            self.fail("Bool is not a class name")
        return SrcConstraint(cls, self.mono(atomic=True))

    def item_list(self, item) -> list:
        """One item, or a parenthesized comma list of them."""
        if not self.accept("("):
            return [item()]
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(")")
        return items

    def constraint_list(self) -> tuple[SrcConstraint, ...]:
        return tuple(self.item_list(self.constraint))

    def optional_context(self, parse, default):
        """parse() and a "=>" after it, else default and no token read."""
        save = self.pos
        try:
            context = parse()
            if self.accept("=>"):
                return context
        except _Fail:
            pass
        self.pos = save
        return default

    def scheme(self) -> SrcScheme:
        binders: list[str] = []
        if self.accept("forall"):
            binders.append(self.name("varid"))
            while _kind(self.tokens[self.pos]) == "varid":
                binders.append(self.name("varid"))
            self.expect(".")
        context = self.optional_context(self.constraint_list, ())
        if len(set(binders)) != len(binders):
            self.fail("duplicate scheme binders")
        return SrcScheme(tuple(binders), context, self.mono())

    # -- expressions ---------------------------------------------------------

    def aexpr(self) -> SrcExpr | None:
        token = self.tokens[self.pos]
        if token == "True":
            e = STrue()
        elif token == "False":
            e = SFalse()
        elif token == "[]":
            if not self.allow_hole:
                self.fail("hole [] is only legal in context files")
            e = SHole()
        elif token == "(":
            self.pos += 1
            e = self.expr()
            if self.accept("::"):
                e = SAnn(e, self.mono())
            self.expect(")")
            return e
        elif _kind(token) == "varid":
            e = SVar(token)
        else:
            return None
        self.pos += 1
        return e

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
        if self.accept("\\"):
            x = self.name("varid")
            self.expect(".")
            return SLam(x, self.expr())
        if self.accept("let"):
            x = self.name("varid")
            self.expect(":")
            sch = self.scheme()
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return SLet(x, sch, bound, self.expr())
        return self.appexpr()

    # -- declarations --------------------------------------------------------

    def super_item(self):
        # a bare class name applied to the class variable, and its index
        cls = self.name("conid")
        index = self.pos
        return (cls, self.name("varid"), index)

    def class_decl(self) -> ClassDecl:
        self.expect("class")
        supers = self.optional_context(
            lambda: self.item_list(self.super_item), [])
        name = self.name("conid")
        var = self.name("varid")
        for (_, svar, index) in supers:
            if svar != var:
                raise _Fail(index, "superclass constraint must be on the "
                            f"class variable {var!r}, got {svar!r}", ())
        self.expect("where")
        self.expect("{")
        method = self.name("varid")
        self.expect(":")
        sch = self.scheme()
        self.expect("}")
        return ClassDecl(tuple(s for s, _, _ in supers), name, var, method, sch)

    def inst_decl(self) -> InstDecl:
        self.expect("instance")
        context = self.optional_context(self.constraint_list, ())
        cls = self.name("conid")
        head = self.mono(atomic=True)
        self.expect("where")
        self.expect("{")
        method = self.name("varid")
        self.expect("=")
        body = self.expr()
        self.expect("}")
        return InstDecl(context, cls, head, method, body)

    def program(self) -> SrcProgram:
        decls = []
        while True:
            token = self.tokens[self.pos]
            if token == "class":
                decls.append(self.class_decl())
            elif token == "instance":
                decls.append(self.inst_decl())
            else:
                break
            self.expect(";")
        main = self.expr()
        self.expect("")
        return SrcProgram(tuple(decls), main)


def parse_program(text: str) -> SrcProgram:
    try:
        return _Parser(text, allow_hole=False).program()
    except _Fail as fail:
        raise _error(text, *fail.args) from None


def parse_expr(text: str, allow_hole: bool = False) -> SrcExpr:
    p = _Parser(text, allow_hole)
    try:
        e = p.expr()
        p.expect("")
    except _Fail as fail:
        raise _error(text, *fail.args) from None
    return e


def parse_context(text: str) -> SrcExpr:
    e = parse_expr(text, allow_hole=True)
    n = count_holes(e)
    if n != 1:
        raise ParseError(1, 1, f"context must contain exactly one hole, found {n}")
    return e
