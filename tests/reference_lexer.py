"""The lexer the parser replaced, the reference for its differential test.

`tokenize` here matches one token at a time and tracks the line and column
of every token. `dictelab.parser.tokenize` reads the text in one scan and
gives each token its offset; the parser looks a line and column up only
for an error. `ReferenceParser` is the parser's grammar on the tokens
here, reporting each error at the line and column this lexer tracked, and
reading each optional context as the parser once did: a lookahead for
"=>" after it, then a second parse.
"""

from __future__ import annotations

import re
from collections import namedtuple

from dictelab import parser
from dictelab.parser import ParseError

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


class ReferenceParser(parser._Parser):
    """The grammar of `parser._Parser` on the tokens of `tokenize`: each
    token's offset is its index, which names its tracked position."""

    def __init__(self, text: str, allow_hole: bool):
        tokens = tokenize(text)
        self.tokens = [(t.kind, t.text, i) for i, t in enumerate(tokens)]
        self.positions = [(t.line, t.column) for t in tokens]
        self.pos = 0
        self.allow_hole = allow_hole

    def error(self, index, message, expected=()) -> ParseError:
        return ParseError(*self.positions[index], message, list(expected))

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
