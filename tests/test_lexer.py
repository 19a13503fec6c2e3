"""`parser.tokenize` and the parser's error positions against the reference
lexer of tests/reference_lexer.py.

Texts are drawn, from fixed seeds, from the token alphabet plus junk (non-
ASCII letters, a lone "-", "$", digits, tabs, CRLF, other Unicode spaces,
comments and keyword prefixes), and from corpus programs and contexts with
a few random edits. On each, the two lexers must give the same tokens at
the same lines and columns, or the same error, and `parse_program`,
`parse_context` and `parse_expr` must give the same result or a
`ParseError` equal in line, column, message and expected list.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from dictelab import parser

import reference_lexer
from conftest import CORPUS, EQ, count_calls

PIECES = [
    "class", "instance", "where", "let", "in", "forall", "in'", "lets",
    "instances", "classy", "wherever", "forall'", "Let", "In", "Eq", "Ord",
    "Show", "Bool", "True", "False", "a", "b", "x", "eq", "f'", "x_1", "a1",
    "::", "=>", "->", ";", "{", "}", "(", ")", ",", ".", ":", "=", "\\",
    "[]", "[", "]", "-", "-->", "$", "é", "λ", "Ünit", "1", "@", "#",
    "-- note\n", "-- last", " ", "\t", "\n", "\r\n", "\r", "\u00a0",
    "\u2028", "\x0c",
    # fragments that reach deeper into the grammar
    "Eq a =>", "(Eq a, Ord b) =>", "let x : ", " = x in x", "\\x. x",
    "class Eq a where { eq : a -> a -> Bool };",
    "instance Eq Bool where { eq = \\x. \\y. True };",
    "class Eq a => Ord a where { le : a -> a -> Bool };",
    "forall a. ", "(x :: Bool)",
]
SEPARATORS = ["", " ", " ", "\n", "\t", "\r\n"]
CORPUS_TEXTS = sorted((p.name, p.read_text())
                      for p in [*CORPUS.glob("*.src"),
                                *(CORPUS / "contexts").glob("*.ctx")])


def alphabet_text(rng: random.Random) -> str:
    return "".join(rng.choice(PIECES) + rng.choice(SEPARATORS)
                   for _ in range(rng.randint(0, 12)))


def mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        edit = rng.randrange(4)
        if edit == 0:                       # delete a span
            text = text[:i] + text[j:]
        elif edit == 1:                     # insert a piece
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif edit == 2:                     # replace a span by a piece
            text = text[:i] + rng.choice(PIECES) + text[j:]
        else:                               # repeat a span
            text = text[:j] + text[i:j] + text[j:]
    return text


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except parser.ParseError as err:
        return "error", (err.line, err.column, err.message, err.expected)


def reference_outcome(parse, text):
    with mock.patch.object(parser, "_Parser", reference_lexer.ReferenceParser):
        return outcome(parse, text)


PARSES = [parser.parse_program, parser.parse_context, parser.parse_expr,
          lambda text: parser.parse_expr(text, allow_hole=True)]


def check_agrees(text):
    kind, tokens = outcome(parser.tokenize, text)
    ref_kind, ref_tokens = outcome(reference_lexer.tokenize, text)
    assert kind == ref_kind, text
    if kind == "ok":
        assert [t[:2] for t in tokens] == [t[:2] for t in ref_tokens], text
        starts = parser._line_starts(text)
        assert [parser._position(starts, offset) for *_, offset in tokens] \
            == [t[2:] for t in ref_tokens], text
        assert tokens[-1] == ("eof", "", len(text))
    else:
        assert tokens == ref_tokens, text
    for parse in PARSES:
        assert outcome(parse, text) == reference_outcome(parse, text), text


@pytest.mark.parametrize("seed", range(4))
def test_alphabet_texts_agree_with_the_reference(seed):
    rng = random.Random(2300 + seed)
    for _ in range(400):
        check_agrees(alphabet_text(rng))


@pytest.mark.parametrize("name, text", CORPUS_TEXTS,
                         ids=[name for name, _ in CORPUS_TEXTS])
def test_mutated_corpus_texts_agree_with_the_reference(name, text):
    check_agrees(text)
    rng = random.Random(name)
    for _ in range(150):
        check_agrees(mutated(rng, text))


@pytest.mark.parametrize("text, kinds", [
    ("in in' lets instances let", ["kw", "varid", "varid", "varid", "kw"]),
    ("forall forall' Let classy class", ["kw", "varid", "conid", "varid",
                                          "kw"]),
    ("[]x", ["hole", "varid"]),
    ("a -- b\n-->\nc", ["varid", "varid"]),
])
def test_keywords_end_where_an_identifier_would(text, kinds):
    assert [k for k, *_ in parser.tokenize(text)[:-1]] == kinds
    check_agrees(text)


def test_a_parse_builds_its_line_table_at_most_once(monkeypatch):
    # Every scheme below has no context, so its lookahead for one raises
    # and discards a ParseError: 3000 errors, one table.
    calls = count_calls(monkeypatch, parser, "_line_starts")
    lets = " ".join(f"(let f{i} : Bool -> Bool = \\x. x in f{i})"
                    for i in range(2000))
    program = EQ * 1000 + f"f\n{lets}"
    assert len(parser.parse_program(program).decls) == 2000
    assert len(calls) <= 1
    calls.clear()
    parser.parse_expr(f"g\n{lets}")
    assert len(calls) <= 1
    calls.clear()
    parser.parse_expr("True")
    assert calls == []
