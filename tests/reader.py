"""Readers for the printed forms of the intermediate and target languages.

These exist for tests and fixtures: `syntax.pretty` output for both core
languages round-trips through the parsers here, and hand-written target
fixtures (plain text files) are loaded with them. They are written by hand,
not from the printer's notation table, so the round trips cross-check it.
The token syntax is the printer's output syntax: "/\\" for type
abstraction, "@T" for type application, "[...]" for dictionaries and
constraint types, "{...}" for records. Names may contain "$" (reserved
dictionary prefix) and non-ASCII letters (generated dictionary variables).

In types, "." only ever follows a quantifier binder, so greedy type
parsing inside lambda annotations is unambiguous.
"""

from __future__ import annotations

import re

from dictelab.syntax import (
    DCon, DVar, FdDict, FdExpr, FdQ, FdType,
    IApp, IArrow, IBool, IDApp, IDLam, IFalse, IForall, ILam, ILet,
    IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar,
    TApp, TArrow, TBool, TFalse, TForall, TLam, TLet, TProj, TRecord,
    TRecordTy, TTrue, TTyApp, TTyLam, TTyVar, TVar, TgtExpr, TgtType,
)
from dictelab.parser import ParseError


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|--[^\n]*)
  | (?P<sym>->|/\\|::|[\\.,:={}()\[\]@])
  | (?P<ident>[$]?[^\W\d][\w']*)
""", re.VERBOSE)

_KEYWORDS = {"forall", "let", "in", "Bool", "True", "False"}


def _tokenize(text: str):
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        lexeme = m.group(0)
        if m.lastgroup == "ident":
            kind = "kw" if lexeme in _KEYWORDS else "ident"
            tokens.append((kind, lexeme, line, col))
        elif m.lastgroup == "sym":
            tokens.append(("sym", lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Reader:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at(self, kind, text=None) -> bool:
        k, s, _, _ = self.peek()
        return k == kind and (text is None or s == text)

    def expect(self, kind, text=None) -> str:
        k, s, line, col = self.peek()
        if k != kind or (text is not None and s != text):
            raise ParseError(line, col,
                             f"unexpected {s!r}" if s else "unexpected end",
                             [text or kind])
        self.advance()
        return s

    def fail(self, message):
        _, s, line, col = self.peek()
        raise ParseError(line, col, message)

    def finish(self):
        self.expect("eof")


# ---------------------------------------------------------------------------
# Intermediate language
# ---------------------------------------------------------------------------

class _FdReader(_Reader):
    def atype(self) -> FdType:
        if self.at("kw", "Bool"):
            self.advance()
            return IBool()
        if self.at("ident"):
            return ITyVar(self.advance()[1])
        if self.at("sym", "("):
            self.advance()
            t = self.type_()
            self.expect("sym", ")")
            return t
        self.fail("expected a type")

    def q(self) -> FdQ:
        self.expect("sym", "[")
        cls = self.expect("ident")
        arg = self.atype()
        self.expect("sym", "]")
        return FdQ(cls, arg)

    def type_(self) -> FdType:
        if self.at("kw", "forall"):
            self.advance()
            a = self.expect("ident")
            self.expect("sym", ".")
            return IForall(a, self.type_())
        if self.at("sym", "["):
            q = self.q()
            self.expect("sym", "->")
            return IQArrow(q, self.type_())
        left = self.atype()
        if self.at("sym", "->"):
            self.advance()
            return IArrow(left, self.type_())
        return left

    def dict_(self) -> FdDict:
        name = self.expect("ident")
        if not name[0].isupper():
            return DVar(name)
        type_args = []
        while self.at("sym", "@"):
            self.advance()
            type_args.append(self.atype())
        dict_args = []
        while self.at("sym", "["):
            self.advance()
            dict_args.append(self.dict_())
            self.expect("sym", "]")
        return DCon(name, tuple(type_args), tuple(dict_args))

    def aexpr(self):
        if self.at("kw", "True"):
            self.advance()
            return ITrue()
        if self.at("kw", "False"):
            self.advance()
            return IFalse()
        if self.at("ident"):
            return IVar(self.advance()[1])
        if self.at("sym", "("):
            self.advance()
            e = self.expr()
            self.expect("sym", ")")
            return e
        return None

    def expr(self) -> FdExpr:
        if self.at("sym", "\\"):
            self.advance()
            x = self.expect("ident")
            self.expect("sym", ":")
            if self.at("sym", "["):
                # "]" then "." ends a dictionary lambda's constraint;
                # "]" then "->" starts a dictionary-arrow annotation.
                q = self.q()
                if self.at("sym", "."):
                    self.advance()
                    return IDLam(x, q, self.expr())
                self.expect("sym", "->")
                ty = IQArrow(q, self.type_())
            else:
                ty = self.type_()
            self.expect("sym", ".")
            return ILam(x, ty, self.expr())
        if self.at("sym", "/\\"):
            self.advance()
            a = self.expect("ident")
            self.expect("sym", ".")
            return ITyLam(a, self.expr())
        if self.at("kw", "let"):
            self.advance()
            x = self.expect("ident")
            self.expect("sym", ":")
            ty = self.type_()
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            return ILet(x, ty, bound, self.expr())
        return self.appexpr()

    def appexpr(self) -> FdExpr:
        head = self._head()
        while True:
            if self.at("sym", "@"):
                self.advance()
                head = ITyApp(head, self.atype())
            elif self.at("sym", "["):
                self.advance()
                d = self.dict_()
                self.expect("sym", "]")
                if self.at("sym", "."):
                    # It was a method-projection atom in argument position.
                    self.advance()
                    head = IApp(head, IMethod(d, self.expect("ident")))
                else:
                    head = IDApp(head, d)
            else:
                arg = self.aexpr()
                if arg is None:
                    return head
                head = IApp(head, arg)

    def _head(self) -> FdExpr:
        if self.at("sym", "["):
            self.advance()
            d = self.dict_()
            self.expect("sym", "]")
            self.expect("sym", ".")
            return IMethod(d, self.expect("ident"))
        e = self.aexpr()
        if e is None:
            self.fail("expected an expression")
        return e


def read_fd_type(text: str) -> FdType:
    r = _FdReader(text)
    t = r.type_()
    r.finish()
    return t


def read_fd_dict(text: str) -> FdDict:
    r = _FdReader(text)
    d = r.dict_()
    r.finish()
    return d


def read_fd_expr(text: str) -> FdExpr:
    r = _FdReader(text)
    e = r.expr()
    r.finish()
    return e


# ---------------------------------------------------------------------------
# Target language
# ---------------------------------------------------------------------------

class _TgtReader(_Reader):
    def atype(self) -> TgtType:
        if self.at("kw", "Bool"):
            self.advance()
            return TBool()
        if self.at("ident"):
            return TTyVar(self.advance()[1])
        if self.at("sym", "{"):
            self.advance()
            label = self.expect("ident")
            self.expect("sym", ":")
            t = TRecordTy(label, self.type_())
            self.expect("sym", "}")
            return t
        if self.at("sym", "("):
            self.advance()
            t = self.type_()
            self.expect("sym", ")")
            return t
        self.fail("expected a type")

    def type_(self) -> TgtType:
        if self.at("kw", "forall"):
            self.advance()
            a = self.expect("ident")
            self.expect("sym", ".")
            return TForall(a, self.type_())
        left = self.atype()
        if self.at("sym", "->"):
            self.advance()
            return TArrow(left, self.type_())
        return left

    def aexpr(self):
        if self.at("kw", "True"):
            self.advance()
            e: TgtExpr = TTrue()
        elif self.at("kw", "False"):
            self.advance()
            e = TFalse()
        elif self.at("ident"):
            e = TVar(self.advance()[1])
        elif self.at("sym", "{"):
            self.advance()
            label = self.expect("ident")
            self.expect("sym", "=")
            e = TRecord(label, self.expr())
            self.expect("sym", "}")
        elif self.at("sym", "("):
            self.advance()
            e = self.expr()
            self.expect("sym", ")")
        else:
            return None
        while self.at("sym", "."):
            self.advance()
            e = TProj(e, self.expect("ident"))
        return e

    def expr(self) -> TgtExpr:
        if self.at("sym", "\\"):
            self.advance()
            x = self.expect("ident")
            self.expect("sym", ":")
            ty = self.type_()
            self.expect("sym", ".")
            return TLam(x, ty, self.expr())
        if self.at("sym", "/\\"):
            self.advance()
            a = self.expect("ident")
            self.expect("sym", ".")
            return TTyLam(a, self.expr())
        if self.at("kw", "let"):
            self.advance()
            x = self.expect("ident")
            self.expect("sym", ":")
            ty = self.type_()
            self.expect("sym", "=")
            bound = self.expr()
            self.expect("kw", "in")
            return TLet(x, ty, bound, self.expr())
        head = self.aexpr()
        if head is None:
            self.fail("expected an expression")
        while True:
            if self.at("sym", "@"):
                self.advance()
                head = TTyApp(head, self.atype())
            else:
                arg = self.aexpr()
                if arg is None:
                    return head
                head = TApp(head, arg)


def read_tgt_type(text: str) -> TgtType:
    r = _TgtReader(text)
    t = r.type_()
    r.finish()
    return t


def read_tgt_expr(text: str) -> TgtExpr:
    r = _TgtReader(text)
    e = r.expr()
    r.finish()
    return e


# ---------------------------------------------------------------------------
# Fixture files: named sections of target expressions
# ---------------------------------------------------------------------------

def read_sections(text: str) -> dict[str, str]:
    """Split a fixture into sections introduced by '-- name' marker lines."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("--"):
            name = stripped[2:].strip()
            if name:
                current = name
                sections[current] = []
            continue
        if current is not None and stripped:
            sections[current].append(line)
    # Marker lines with no following content are plain comments, not sections.
    return {name: "\n".join(lines)
            for name, lines in sections.items() if lines}


def read_fixture(text: str) -> dict[str, TgtExpr]:
    return {name: read_tgt_expr(body)
            for name, body in read_sections(text).items()}
