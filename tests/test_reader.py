from __future__ import annotations

import pytest
from hypothesis import given

from dictelab import syntax as S
from dictelab.parser import ParseError

from conftest import POSITIVE, corpus_result
from reader import (read_fd_dict, read_fd_expr, read_fd_type, read_sections,
                    read_tgt_expr, read_tgt_type)
from strategies import fd_type, tgt_type


# ---------------------------------------------------------------------------
# Golden notations
# ---------------------------------------------------------------------------

def test_read_fd_type_constraint_arrow():
    t = read_fd_type("forall a. [Eq a] -> a -> Bool")
    assert t == S.IForall("a", S.IQArrow(
        S.FdQ("Eq", S.ITyVar("a")),
        S.IArrow(S.ITyVar("a"), S.IBool())))


def test_read_fd_dict_constructor():
    d = read_fd_dict("D2_Eq @Bool [D1_Eq]")
    assert d == S.DCon("D2_Eq", (S.IBool(),), (S.DCon("D1_Eq", (), ()),))


def test_read_fd_dict_variable():
    assert read_fd_dict("d") == S.DVar("d")


def test_read_fd_expr_method_projection():
    e = read_fd_expr("[d].eq True")
    assert e == S.IApp(S.IMethod(S.DVar("d"), "eq"), S.ITrue())


def test_read_fd_expr_dict_application_vs_method():
    # `e [d]` is dictionary application; `e [d].m` applies e to a projection
    app = read_fd_expr("f [d]")
    assert app == S.IDApp(S.IVar("f"), S.DVar("d"))
    meth = read_fd_expr("f [d].eq")
    assert meth == S.IApp(S.IVar("f"), S.IMethod(S.DVar("d"), "eq"))


def test_read_fd_expr_dict_lambda():
    e = read_fd_expr("\\d : [Eq Bool]. [d].eq")
    assert e == S.IDLam("d", S.FdQ("Eq", S.IBool()),
                        S.IMethod(S.DVar("d"), "eq"))


def test_read_tgt_expr_record_and_projection():
    e = read_tgt_expr("({eq = True}).eq")
    assert e == S.TProj(S.TRecord((("eq", S.TTrue()),)), "eq")


def test_read_tgt_type_record():
    t = read_tgt_type("{eq : Bool -> Bool}")
    assert t == S.TRecordTy((("eq", S.TArrow(S.TBool(), S.TBool())),))


def test_read_reserved_dollar_names():
    assert read_tgt_expr("$d_x") == S.TVar("$d_x")


def test_read_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        read_fd_expr("\\x : . x")
    assert exc.value.line == 1


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        read_fd_expr("True True)")


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

@given(fd_type)
def test_fd_type_roundtrip(t):
    assert read_fd_type(S.pretty(t)) == t


@given(tgt_type)
def test_tgt_type_roundtrip(t):
    assert read_tgt_type(S.pretty(t)) == t


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_fd_elaborations_roundtrip(name):
    r = corpus_result(name)
    for _, ie in r.fd_elabs:
        assert read_fd_expr(S.pretty(ie)) == ie


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_tgt_elaborations_roundtrip(name):
    r = corpus_result(name)
    for te in r.tgt_elabs:
        assert read_tgt_expr(S.pretty(te)) == te


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_environment_impls_roundtrip(name):
    r = corpus_result(name)
    for sigma, _ in r.fd_elabs:
        for entry in sigma:
            assert read_fd_expr(S.pretty(entry.impl)) == entry.impl


# ---------------------------------------------------------------------------
# Fixture sections
# ---------------------------------------------------------------------------

def test_read_sections_splits_on_markers():
    text = "-- one\nTrue\n-- two\nFalse\n"
    assert read_sections(text) == {"one": "True", "two": "False"}


def test_read_sections_ignores_bare_comments():
    text = "-- just a comment with no body\n\n-- real\nTrue\n"
    assert read_sections(text) == {"real": "True"}


def test_read_sections_joins_continuation_lines():
    text = "-- s\n(\\x : Bool. x)\n  True\n"
    assert read_sections(text)["s"].splitlines() == \
        ["(\\x : Bool. x)", "  True"]
