"""The notation-table printer against its reference.

`tests/reference_pretty.py` keeps the hand-written printers that
`syntax.pretty` replaced; the table-driven walker must print the same bytes
on every node of the three languages. The round trips through the parser
and the test readers are in `test_parser.py` and `test_reader.py`.
"""

from __future__ import annotations

import inspect
import re
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_pretty as ref
from dictelab import syntax as S
from dictelab.fd_core import fd_step

import strategies
from conftest import (NEGATIVE, POSITIVE, corpus_program, corpus_result,
                      squares)

STRATEGIES = ["src_expr", "src_scheme", "src_mono", "src_constraint",
              "fd_term", "fd_qual_type", "fd_dict", "fd_q", "tgt_let_term",
              "tgt_type"]


# ---------------------------------------------------------------------------
# Differential against the reference printers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", STRATEGIES)
@settings(max_examples=200)
@given(data=st.data())
def test_pretty_agrees_with_reference(name, data):
    x = data.draw(getattr(strategies, name))
    assert S.pretty(x) == ref.pretty(x)


@pytest.mark.parametrize("name", POSITIVE + NEGATIVE)
def test_pretty_agrees_on_corpus_programs(name):
    p = corpus_program(name)
    assert S.pretty(p) == ref.pretty(p)


@pytest.mark.parametrize("name", POSITIVE)
def test_pretty_agrees_on_corpus_elaborations(name):
    r = corpus_result(name)
    terms = [r.main_type]
    for sq in squares(r):
        terms += [sq.derivation, sq.direct, sq.composed]
    terms += [m.impl for sigma, _ in r.fd_elabs for m in sigma]
    assert len(terms) > 1
    for t in terms:
        assert S.pretty(t) == ref.pretty(t)


def test_every_printable_class_has_a_notation():
    # The categories the reference dispatcher accepts.
    source = inspect.getsource(ref.pretty)
    bases = tuple(getattr(S, n)
                  for n in re.findall(r"isinstance\(x, (\w+)\)", source))
    assert len(bases) == 11
    printable = {c for c in vars(S).values()
                 if isinstance(c, type) and hasattr(c, "__match_args__")
                 and issubclass(c, bases)}
    assert printable == set(S._NOTATION)


def test_the_notation_table_is_the_one_string_formatter_reads(monkeypatch):
    # `syntax` parses its notations with `_string.formatter_parser`, so that
    # importing it does not import `string`.
    monkeypatch.setattr(S, "formatter_parser", string.Formatter().parse)
    table = {cls: (level, S._compile(n) if isinstance(n, str) else n)
             for cls, (level, n) in S._NOTATION.items()}
    assert table.keys() == S._TABLE.keys()
    assert repr(table) == repr(S._TABLE)


def test_pretty_rejects_other_values():
    for x in (S.SrcConstraintScheme((), (), S.SrcConstraint("Eq", S.SBool())),
              S.TermBind("x", S.TBool()), ("a",), "a"):
        with pytest.raises(TypeError, match="cannot pretty-print"):
            S.pretty(x)


BELOW_THE_ROOT = [
    S.IMethod(S.IChoice((S.DCon("D1_Eq", (), ()),)), "eq"),
    S.ILam("x", S.IBool(), S.IChoice((S.ITrue(),))),
]


@pytest.mark.parametrize("x", BELOW_THE_ROOT, ids=["dictionary", "body"])
def test_pretty_rejects_an_unprintable_node_at_any_depth(x):
    with pytest.raises(TypeError, match="^cannot pretty-print IChoice$"):
        S.pretty(x)


def test_a_stuck_choice_is_reported_as_unprintable():
    # fd_step's "stuck term" message prints the term, whose dictionary is
    # a choice: the printer's TypeError, not a KeyError from its table.
    with pytest.raises(TypeError, match="^cannot pretty-print IChoice$"):
        fd_step((), BELOW_THE_ROOT[0])


# ---------------------------------------------------------------------------
# Deep terms
# ---------------------------------------------------------------------------

def _chain(depth, wrap, leaf):
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


@pytest.mark.parametrize("wrap,leaf,head", [
    (lambda t: S.IApp(t, S.IVar("x")), S.IVar("f"), "f x x"),
    (lambda t: S.TLam("x", S.TBool(), t), S.TVar("x"), "\\x : Bool. \\x"),
], ids=["IApp", "TLam"])
def test_deep_chains_print_under_the_default_recursion_limit(wrap, leaf,
                                                             head):
    # The walker takes one frame per level, as the reference printers did.
    assert sys.getrecursionlimit() == 1000
    t = _chain(900, wrap, leaf)
    text = S.pretty(t)
    assert text.startswith(head) and text == ref.pretty(t)
