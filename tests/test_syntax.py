from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictelab import syntax as S
from dictelab.parser import parse_expr

from reference_eval import subst_tgt_var
from strategies import TYVARS, fd_type, src_mono, tgt_term, tgt_type, type_mapping


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

def test_free_vars_order_first_occurrence():
    t = S.SArrow(S.STyVar("a"), S.SArrow(S.SBool(), S.STyVar("b")))
    assert S.free_type_vars(t) == ["a", "b"]


def test_free_vars_no_duplicates():
    t = S.SArrow(S.STyVar("a"), S.STyVar("a"))
    assert S.free_type_vars(t) == ["a"]


def test_free_vars_bound_excluded():
    t = S.IForall("a", S.IArrow(S.ITyVar("a"), S.ITyVar("b")))
    assert S.free_type_vars(t) == ["b"]


@given(src_mono, type_mapping)
def test_subst_removes_substituted_var(t, m):
    out = S.subst_type(t, m)
    fvs = set(S.free_type_vars(out))
    for a, replacement in m.items():
        if a not in S.free_type_vars(replacement):
            # a may re-enter through another mapping entry's range
            others = {x for b, r in m.items() if b != a
                      for x in S.free_type_vars(r)}
            if a not in others:
                assert a not in fvs


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def test_subst_simple():
    t = S.SArrow(S.STyVar("a"), S.STyVar("a"))
    assert S.subst_type(t, {"a": S.SBool()}) == S.SArrow(S.SBool(), S.SBool())


def test_subst_no_occurrence():
    assert S.subst_type(S.SBool(), {"a": S.SBool()}) == S.SBool()


def test_subst_capture_avoidance():
    # forall a. a -> b  with  b := a  must rename the binder
    t = S.IForall("a", S.IArrow(S.ITyVar("a"), S.ITyVar("b")))
    out = S.subst_type(t, {"b": S.ITyVar("a")})
    assert isinstance(out, S.IForall)
    assert out.var != "a"
    assert out.body == S.IArrow(S.ITyVar(out.var), S.ITyVar("a"))
    expected = S.IForall("z", S.IArrow(S.ITyVar("z"), S.ITyVar("a")))
    assert S.alpha_eq(out, expected)


@given(fd_type)
def test_subst_empty_mapping_is_identity(t):
    assert S.subst_type(t, {}) == t


@given(fd_type, st.sampled_from(TYVARS))
def test_subst_self_is_identity_up_to_alpha(t, a):
    assert S.alpha_eq(S.subst_type(t, {a: S.ITyVar(a)}), t)


@given(src_mono, st.sampled_from(TYVARS), src_mono, st.sampled_from(TYVARS),
       src_mono)
def test_subst_composition_on_disjoint_mappings(t, a, s1, b, s2):
    # sequential application equals the composed simultaneous substitution
    # when the second variable does not occur in the first range
    if a == b or b in S.free_type_vars(s1):
        return
    seq = S.subst_type(S.subst_type(t, {a: s1}), {b: s2})
    composed = S.subst_type(t, {a: S.subst_type(s1, {b: s2}), b: s2})
    assert S.alpha_eq(seq, composed)


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def test_alpha_eq_lambda():
    e1 = S.TLam("x", S.TBool(), S.TVar("x"))
    e2 = S.TLam("y", S.TBool(), S.TVar("y"))
    assert S.alpha_eq(e1, e2)


def test_alpha_eq_distinguishes_bodies():
    e1 = S.TLam("x", S.TBool(), S.TTrue())
    e2 = S.TLam("x", S.TBool(), S.TFalse())
    assert not S.alpha_eq(e1, e2)


def test_alpha_eq_type_abstraction():
    e1 = S.TTyLam("a", S.TLam("x", S.TTyVar("a"), S.TVar("x")))
    e2 = S.TTyLam("b", S.TLam("y", S.TTyVar("b"), S.TVar("y")))
    assert S.alpha_eq(e1, e2)


def test_alpha_eq_shadowing_not_confused():
    # \x. \x. x  vs  \a. \b. a  differ: the inner binder shadows
    inner_x = S.TLam("x", S.TBool(), S.TLam("x", S.TBool(), S.TVar("x")))
    wrong = S.TLam("a", S.TBool(), S.TLam("b", S.TBool(), S.TVar("a")))
    right = S.TLam("a", S.TBool(), S.TLam("b", S.TBool(), S.TVar("b")))
    assert not S.alpha_eq(inner_x, wrong)
    assert S.alpha_eq(inner_x, right)


@given(tgt_term)
def test_alpha_eq_reflexive(e):
    assert S.alpha_eq(e, e)


@given(tgt_term, tgt_term)
def test_alpha_eq_symmetric(e1, e2):
    assert S.alpha_eq(e1, e2) == S.alpha_eq(e2, e1)


@given(tgt_term, tgt_term, tgt_term)
@settings(max_examples=50)
def test_alpha_eq_transitive(e1, e2, e3):
    if S.alpha_eq(e1, e2) and S.alpha_eq(e2, e3):
        assert S.alpha_eq(e1, e3)


@given(tgt_term, st.sampled_from(["x", "y"]))
def test_alpha_eq_invariant_under_renaming(e, fresh):
    wrapped = S.TLam("z", S.TBool(), e)
    renamed = S.TLam(fresh, S.TBool(),
                     subst_tgt_var(e, "z", S.TVar(fresh)))
    if fresh not in S.free_vars(e, "tv"):
        assert S.alpha_eq(wrapped, renamed)


# ---------------------------------------------------------------------------
# Records are label-indexed
# ---------------------------------------------------------------------------

def test_record_field_order_is_canonical():
    r1 = S.TRecord((("b", S.TTrue()), ("a", S.TFalse())))
    r2 = S.TRecord((("a", S.TFalse()), ("b", S.TTrue())))
    assert r1 == r2


def test_record_type_order_is_canonical():
    t1 = S.TRecordTy((("b", S.TBool()), ("a", S.TBool())))
    t2 = S.TRecordTy((("a", S.TBool()), ("b", S.TBool())))
    assert t1 == t2


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

def test_plug_trivial():
    assert S.plug(S.SHole(), S.STrue()) == S.STrue()


def test_plug_captures():
    ctx = S.SLam("x", S.SHole())
    assert S.plug(ctx, S.SVar("x")) == S.SLam("x", S.SVar("x"))


def test_plug_under_let():
    ctx = parse_expr("let f : Bool = True in (f :: Bool)")
    # build the same shape with a hole in the bound position
    ctx = S.SLet("f", ctx.scheme, S.SHole(), ctx.body)
    out = S.plug(ctx, S.SFalse())
    assert out.bound == S.SFalse()


def test_count_holes():
    assert S.count_holes(S.SApp(S.SHole(), S.SHole())) == 2
    assert S.count_holes(S.STrue()) == 0


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

def test_avoid_name():
    assert S.avoid_name("x", {"x", "x'"}) == "x''"
    assert S.avoid_name("x", set()) == "x"


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def test_pretty_arrow():
    assert S.pretty(S.SArrow(S.SBool(), S.SBool())) == "Bool -> Bool"


def test_pretty_arrow_left_parenthesized():
    t = S.SArrow(S.SArrow(S.SBool(), S.SBool()), S.SBool())
    assert S.pretty(t) == "(Bool -> Bool) -> Bool"


def test_pretty_lambda():
    assert S.pretty(S.SLam("x", S.STrue())) == "\\x. True"


def test_pretty_forall():
    t = S.IForall("a", S.IArrow(S.ITyVar("a"), S.ITyVar("a")))
    assert S.pretty(t) == "forall a. a -> a"


def test_pretty_record():
    e = S.TRecord((("eq", S.TTrue()),))
    assert S.pretty(e) == "{eq = True}"


def test_pretty_projection():
    e = S.TProj(S.TVar("d"), "eq")
    assert S.pretty(e) == "d.eq"
