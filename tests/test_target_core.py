from __future__ import annotations

import pytest
from hypothesis import given

from dictelab import syntax as S
from dictelab.fd_core import (FdChecker, FdTypeError, FuelExhausted,
                              OVERLAP, elab_fd_type, fd_env_wf)
from dictelab.syntax import (
    FdClassEntry, FdConstraintScheme, FdQ, IArrow, IBool, ITyVar, MethodImpl,
    TBool, TermBind, TRecord, TTrue,
)
from dictelab.target_core import TgtTypeError, tgt_eval

from conftest import POSITIVE, corpus_result, corpus_text, type_and_translate
from reader import read_fixture, read_tgt_expr, read_tgt_type
from reference_eval import is_tgt_value, kleene_eq, tgt_step
from reference_typing import tgt_typecheck
from strategies import tgt_term


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def test_record_literal_type():
    e = read_tgt_expr("{eq = \\x : Bool. \\y : Bool. True}")
    ty = tgt_typecheck((), e)
    assert ty == read_tgt_type("{eq : Bool -> Bool -> Bool}")


def test_projection_type():
    e = read_tgt_expr("({l = True}).l")
    assert tgt_typecheck((), e) == TBool()


def test_polymorphic_identity_applied():
    e = read_tgt_expr("(/\\a. \\x : a. x) @Bool")
    assert S.pretty(tgt_typecheck((), e)) == "Bool -> Bool"


def test_projection_of_missing_label_rejected():
    e = read_tgt_expr("({l = True}).wrong")
    with pytest.raises(TgtTypeError):
        tgt_typecheck((), e)


def test_projection_of_non_record_rejected():
    with pytest.raises(TgtTypeError):
        tgt_typecheck((), read_tgt_expr("True.l"))


def test_duplicate_labels_rejected():
    e = TRecord((("l", TTrue()), ("l", S.TFalse())))
    with pytest.raises(TgtTypeError):
        tgt_typecheck((), e)


def test_let_annotation_must_match():
    e = S.TLet("x", TBool(), S.TLam("y", TBool(), S.TVar("y")), S.TVar("x"))
    with pytest.raises(TgtTypeError):
        tgt_typecheck((), e)


def test_environment_lookup():
    env = (TermBind("x", TBool()),)
    assert tgt_typecheck(env, S.TVar("x")) == TBool()


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_records_are_values():
    assert is_tgt_value(read_tgt_expr("{l = (\\x : Bool. x) True}"))
    assert not is_tgt_value(read_tgt_expr("({l = True}).l"))


def test_projection_returns_unevaluated_field():
    e = read_tgt_expr("({l = (\\x : Bool. x) True}).l")
    assert tgt_step(e) == read_tgt_expr("(\\x : Bool. x) True")
    assert tgt_eval(e, 100) == TTrue()


def test_call_by_name():
    omega = S.TApp(S.TLam("x", TBool(), S.TApp(S.TVar("x"), S.TVar("x"))),
                   S.TLam("x", TBool(), S.TApp(S.TVar("x"), S.TVar("x"))))
    e = S.TApp(S.TLam("x", TBool(), TTrue()), omega)
    assert tgt_eval(e, 10) == TTrue()
    with pytest.raises(FuelExhausted):
        tgt_eval(omega, 50)


def test_let_substitutes_unevaluated():
    e = S.TLet("x", TBool(), read_tgt_expr("(\\y : Bool. y) True"),
               S.TVar("x"))
    assert tgt_step(e) == read_tgt_expr("(\\y : Bool. y) True")


def test_type_application_step():
    e = read_tgt_expr("(/\\a. \\x : a. x) @Bool")
    assert tgt_step(e) == read_tgt_expr("\\x : Bool. x")


# ---------------------------------------------------------------------------
# Kleene equality
# ---------------------------------------------------------------------------

@given(tgt_term)
def test_kleene_eq_reflexive_when_terminating(e):
    try:
        tgt_eval(e, 200)
    except (FuelExhausted, TgtTypeError):
        return  # diverging or stuck (the generator produces open terms)
    assert kleene_eq(e, e, 200)


def test_kleene_eq_up_to_alpha():
    e1 = read_tgt_expr("\\x : Bool. x")
    e2 = read_tgt_expr("(\\f : Bool -> Bool. f) (\\y : Bool. y)")
    assert kleene_eq(e1, e2, 100)


def test_kleene_eq_distinguishes_results():
    assert not kleene_eq(read_tgt_expr("True"), read_tgt_expr("False"), 10)


def test_kleene_eq_symmetric():
    a = read_tgt_expr("({l = True}).l")
    b = read_tgt_expr("True")
    assert kleene_eq(a, b, 10) == kleene_eq(b, a, 10)


# ---------------------------------------------------------------------------
# The discriminating fixture
# ---------------------------------------------------------------------------

def _fixture():
    return read_fixture(corpus_text("D1"))


def test_fixture_discern_typechecks():
    f = _fixture()
    ty = tgt_typecheck((), f["discern"])
    assert S.pretty(ty) == \
        "{base : Bool -> Bool} -> {base : Bool -> Bool} -> Bool"


def test_fixture_observes_which_dictionary_it_received():
    f = _fixture()
    assert tgt_eval(f["test2a"], 1000) == TTrue()
    assert tgt_eval(f["test2b"], 1000) == S.TFalse()
    assert not kleene_eq(f["test2a"], f["test2b"], 1000)


def test_analogous_method_environment_is_rejected_upstream():
    # The two target dictionaries the fixture discriminates between would,
    # one language earlier, be two environment entries at the same ground
    # head - exactly what well-formedness rules out.
    tc = (FdClassEntry("base", "Base", "a", IArrow(ITyVar("a"), IBool())),)
    scheme = FdConstraintScheme((), (), FdQ("Base", IBool()))
    sigma = (
        MethodImpl("D1_Base", scheme, "base",
                   S.ILam("x", IBool(), S.ITrue())),
        MethodImpl("D2_Base", scheme, "base",
                   S.ILam("x", IBool(), S.IFalse())),
    )
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(sigma, tc)
    assert exc.value.kind == OVERLAP


# ---------------------------------------------------------------------------
# Elaborations stay well-typed across translation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE)
def test_translated_elaborations_typecheck_at_translated_type(name):
    r = corpus_result(name)
    for sigma, ie in r.fd_elabs:
        fd_ty, te = type_and_translate(FdChecker(sigma, r.fd_class_env), ie)
        assert S.alpha_eq(tgt_typecheck((), te),
                          elab_fd_type(r.fd_class_env, fd_ty))


@pytest.mark.parametrize("name", POSITIVE)
def test_direct_elaborations_typecheck(name):
    r = corpus_result(name)
    for te in r.tgt_elabs:
        assert tgt_typecheck((), te) == TBool()
