"""`parser.tokenize` and the parser's results and error positions against
the reference lexer and parser of tests/reference_lexer.py.

Texts are drawn, from fixed seeds, from the token alphabet plus junk (non-
ASCII letters, a lone "-", "$", digits, tabs, CRLF, other Unicode spaces,
comments and keyword prefixes), and from corpus programs and contexts with
a few random edits. On each, the two lexers must give the same tokens at
the same lines and columns, or the same error, and `parse_program`,
`parse_context` and `parse_expr` must give the same result or a
`ParseError` equal in line, column, message and expected list. The ladder
programs the benchmark parses, and edits of them, must agree too.
"""

from __future__ import annotations

import random

import pytest

from dictelab import parser
from dictelab.parser import ParseError

import reference_lexer
from conftest import (CORPUS, EQ, count_calls, flex_source, tower_source,
                      wide_source)

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


PARSES = [
    (parser.parse_program, reference_lexer.parse_program),
    (parser.parse_context, reference_lexer.parse_context),
    (parser.parse_expr, reference_lexer.parse_expr),
    (lambda text: parser.parse_expr(text, allow_hole=True),
     lambda text: reference_lexer.parse_expr(text, allow_hole=True)),
]


def check_agrees(text):
    kind, tokens = outcome(parser.tokenize, text)
    ref_kind, ref_tokens = outcome(reference_lexer.tokenize, text)
    assert kind == ref_kind, text
    if kind == "ok":
        assert [(parser._kind(t), t) for t in tokens] \
            == [t[:2] for t in ref_tokens], text
        # A token's offset is where the scan's match for it captures.
        offsets = [m.start(1) for m in parser._TOKEN_RE.finditer(text)]
        starts = parser._line_starts(text)
        assert [parser._position(starts, offset)
                for offset in offsets[:len(tokens)]] \
            == [t[2:] for t in ref_tokens], text
        assert tokens[-1] == "" and offsets[len(tokens) - 1] == len(text)
    else:
        assert tokens == ref_tokens, text
    for parse, reference in PARSES:
        assert outcome(parse, text) == outcome(reference, text), text


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
    assert [parser._kind(t) for t in parser.tokenize(text)[:-1]] == kinds
    check_agrees(text)


LADDER_TEXTS = [
    *((f"tower({d})", tower_source(d)) for d in range(1, 11)),
    *((f"wide({k})", wide_source(k)) for k in range(1, 6)),
    *((f"flex({n})", flex_source(n)) for n in range(1, 13)),
    *CORPUS_TEXTS,
]


@pytest.mark.parametrize("name, text", LADDER_TEXTS,
                         ids=[name for name, _ in LADDER_TEXTS])
def test_ladder_programs_parse_as_the_reference_parses_them(name, text):
    # The inputs the benchmark parses, whole and with a few edits each:
    # the same AST, or a ParseError equal in every field.
    parse, reference = PARSES[1 if name.endswith(".ctx") else 0]
    result = outcome(parse, text)
    assert result[0] == "ok" and result == outcome(reference, text)
    rng = random.Random(name)
    for _ in range(10):
        edited = mutated(rng, text)
        assert outcome(parse, edited) == outcome(reference, edited), edited


def test_a_parse_builds_its_line_table_at_most_once(monkeypatch):
    # Every scheme below has no context, so its lookahead for one fails
    # and reads no context: 3000 failures, no ParseError and no table.
    calls = count_calls(monkeypatch, parser, "_line_starts")
    errors = count_calls(monkeypatch, parser, "ParseError")
    lets = " ".join(f"(let f{i} : Bool -> Bool = \\x. x in f{i})"
                    for i in range(2000))
    program = EQ * 1000 + f"f\n{lets}"
    assert len(parser.parse_program(program).decls) == 2000
    assert len(calls) <= 1
    assert calls == errors == []
    calls.clear()
    parser.parse_expr(f"g\n{lets}")
    assert len(calls) <= 1
    assert calls == errors == []
    calls.clear()
    parser.parse_expr("True")
    assert calls == []
    assert errors == []
    # A failed parse builds one table, for its one ParseError.
    with pytest.raises(ParseError) as err:
        parser.parse_program(program + " in")
    assert (err.value.line, err.value.message) \
        == (2002, "unexpected 'in'")
    assert len(calls) == len(errors) == 1
