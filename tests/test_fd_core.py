from __future__ import annotations

import pytest

from dictelab import fd_core, syntax as S
from dictelab.fd_core import (
    AMBIGUITY, ARITY_MISMATCH, FdChecker, FdTypeError, FuelExhausted,
    MISMATCH, OVERLAP, PREFIX_VIOLATION, UNBOUND_DICT, UNBOUND_VAR,
    UNKNOWN_CONSTRUCTOR, UNKNOWN_METHOD,
    elab_fd_type, expected_impl_type, fd_env_wf,
    fd_eval, fd_step, is_fd_value,
)
from dictelab.syntax import (
    DictBind, FdClassEntry, FdConstraintScheme, FdQ, IArrow, IBool, ITyVar,
    MethodImpl,
)

from conftest import (POSITIVE, corpus_result, count_calls,
                      type_and_translate)
from reader import read_fd_dict, read_fd_expr, read_fd_type

TC_EQ = (FdClassEntry("eq", "Eq", "a",
                      IArrow(ITyVar("a"), IArrow(ITyVar("a"), IBool()))),)

SIGMA_EQ = (
    MethodImpl("D1_Eq",
               FdConstraintScheme((), (), FdQ("Eq", IBool())),
               "eq",
               read_fd_expr("\\x : Bool. \\y : Bool. True")),
    MethodImpl("D2_Eq",
               FdConstraintScheme(
                   ("a",), (FdQ("Eq", ITyVar("a")),),
                   FdQ("Eq", IArrow(ITyVar("a"), ITyVar("a")))),
               "eq",
               read_fd_expr(
                   "/\\a. \\d : [Eq a]. \\f : a -> a. \\g : a -> a. True")),
)


# ---------------------------------------------------------------------------
# Head unification
# ---------------------------------------------------------------------------

def test_unify_heads_variable_against_ground():
    out = S.unify(FdQ("Eq", ITyVar("b")), FdQ("Eq", IBool()), {"b"})
    assert out == {"b": IBool()}


def test_unify_heads_structural():
    out = S.unify(FdQ("Eq", IArrow(ITyVar("a"), ITyVar("b"))),
                  FdQ("Eq", IArrow(IBool(), IBool())), {"a", "b"})
    assert out == {"a": IBool(), "b": IBool()}


def test_unify_heads_clash():
    assert S.unify(FdQ("Eq", IBool()),
                   FdQ("Eq", IArrow(IBool(), IBool())), set()) is None


def test_unify_heads_different_classes():
    assert S.unify(FdQ("Eq", ITyVar("a")), FdQ("Ord", ITyVar("a")),
                   {"a"}) is None


def test_unify_types_occurs_check():
    assert S.unify(ITyVar("a"), IArrow(ITyVar("a"), IBool()),
                   {"a"}) is None


# ---------------------------------------------------------------------------
# Type translation
# ---------------------------------------------------------------------------

def test_elab_fd_type_replaces_constraints_with_records():
    t = read_fd_type("forall a. [Eq a] -> a -> Bool")
    out = elab_fd_type(TC_EQ, t)
    assert S.pretty(out) == "forall a. {eq : a -> a -> Bool} -> a -> Bool"


def test_elab_fd_q_is_single_method_record():
    out = elab_fd_type(TC_EQ, FdQ("Eq", IBool()))
    assert S.pretty(out) == "{eq : Bool -> Bool -> Bool}"


def test_expected_impl_type_instantiates_head():
    out = expected_impl_type(TC_EQ, SIGMA_EQ[1])
    assert S.pretty(out) == \
        "forall a. [Eq a] -> (a -> a) -> (a -> a) -> Bool"


# ---------------------------------------------------------------------------
# Environment well-formedness
# ---------------------------------------------------------------------------

def test_fixture_environment_is_well_formed():
    fd_env_wf(SIGMA_EQ, TC_EQ)


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_environments_are_well_formed(name):
    r = corpus_result(name)
    for sigma, _ in r.fd_elabs:
        fd_env_wf(sigma, r.fd_class_env)


def test_duplicate_ground_heads_overlap():
    dup = SIGMA_EQ[:1] + (
        MethodImpl("D3_Eq", SIGMA_EQ[0].scheme, "eq",
                   read_fd_expr("\\x : Bool. \\y : Bool. False")),)
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(dup, TC_EQ)
    assert exc.value.kind == OVERLAP


def test_observably_different_copies_still_overlap():
    # Two entries at the same ground head whose implementations disagree:
    # evaluation could tell them apart, but well-formedness rejects the
    # environment before it ever matters.
    tc = (FdClassEntry("base", "Base", "a", IArrow(ITyVar("a"), IBool())),)
    scheme = FdConstraintScheme((), (), FdQ("Base", IBool()))
    sigma = (
        MethodImpl("D1_Base", scheme, "base", read_fd_expr("\\x : Bool. x")),
        MethodImpl("D2_Base", scheme, "base",
                   read_fd_expr("\\x : Bool. True")),
    )
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(sigma, tc)
    assert exc.value.kind == OVERLAP


def test_implementation_may_only_use_earlier_entries():
    fwd = read_fd_expr(
        "\\x : Bool. \\y : Bool. "
        "[D2_Eq @Bool [D1_Eq]].eq (\\z : Bool. z) (\\z : Bool. z)")
    sigma = (MethodImpl("D1_Eq", SIGMA_EQ[0].scheme, "eq", fwd),) \
        + SIGMA_EQ[1:]
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(sigma, TC_EQ)
    assert exc.value.kind == PREFIX_VIOLATION


def test_dropping_a_referenced_entry_breaks_dictionaries():
    d = read_fd_dict("D2_Eq @Bool [D1_Eq]")
    q = FdChecker(SIGMA_EQ, TC_EQ).check_dict((), d)
    assert q == FdQ("Eq", IArrow(IBool(), IBool()))
    with pytest.raises(FdTypeError) as exc:
        FdChecker(SIGMA_EQ[1:], TC_EQ).check_dict((), d)
    assert exc.value.kind == UNKNOWN_CONSTRUCTOR


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------

def test_method_projection_instantiates_class_variable():
    ty = FdChecker(SIGMA_EQ, TC_EQ).check_expr(
        (), read_fd_expr("[D1_Eq].eq"))
    assert S.pretty(ty) == "Bool -> Bool -> Bool"


def test_method_projection_through_local_dict():
    tt = (S.TyVarBind("b"), DictBind("d", FdQ("Eq", ITyVar("b"))),)
    ty, te = type_and_translate(FdChecker(SIGMA_EQ, TC_EQ),
                                read_fd_expr("[d].eq"), tt)
    assert S.pretty(ty) == "b -> b -> Bool"
    assert te == S.TProj(S.TVar("$d_d"), "eq")


def test_dictionary_abstraction_and_application():
    e = read_fd_expr("(\\d : [Eq Bool]. [d].eq) [D1_Eq] True True")
    ty = FdChecker(SIGMA_EQ, TC_EQ).check_expr((), e)
    assert ty == IBool()


def test_type_application():
    e = read_fd_expr("(/\\a. \\x : a. x) @Bool")
    ty = FdChecker((), ()).check_expr((), e)
    assert ty == IArrow(IBool(), IBool())


def test_application_of_non_function_is_mismatch():
    with pytest.raises(FdTypeError) as exc:
        FdChecker((), ()).check_expr((), read_fd_expr("True True"))
    assert exc.value.kind == MISMATCH


def test_unbound_variable():
    with pytest.raises(FdTypeError) as exc:
        FdChecker((), ()).check_expr((), read_fd_expr("x"))
    assert exc.value.kind == UNBOUND_VAR


def test_unbound_dict_variable():
    with pytest.raises(FdTypeError) as exc:
        FdChecker(SIGMA_EQ, TC_EQ).check_dict((), read_fd_dict("d"))
    assert exc.value.kind == UNBOUND_DICT


def test_the_rule_table_covers_exactly_the_terms_and_the_choice():
    # The checker finds a term's typing rule by one lookup on its class.
    assert set(FdChecker._RULES) == {*S.FdExpr.__subclasses__(), S.IChoice}


@pytest.mark.parametrize("node", [
    S.DVar("d"), S.DCon("D1_Eq", (), ()), IBool(), S.TTrue(), S.SVar("x"),
    S.IChoice(()), "x", None,
], ids=repr)
def test_a_node_with_no_typing_rule_raises_type_error(node):
    # A dictionary, a type, a node of another language, an empty choice
    # or no node at all is no term.
    with pytest.raises(TypeError):
        FdChecker(SIGMA_EQ, TC_EQ).check_expr((), node)


def test_argument_type_must_match():
    e = read_fd_expr("(\\f : Bool -> Bool. True) True")
    with pytest.raises(FdTypeError) as exc:
        FdChecker((), ()).check_expr((), e)
    assert exc.value.kind == MISMATCH


@pytest.mark.parametrize("e, kind, detail", [
    (read_fd_expr("(\\d : [Eq Bool]. True) [D2_Eq @Bool [D1_Eq]]"), MISMATCH,
     "dictionary has type [Eq (Bool -> Bool)], expected [Eq Bool]"),
    (read_fd_expr("let x : Bool = \\y : Bool. y in x"), MISMATCH,
     "let binding has type Bool -> Bool, annotated Bool"),
    (S.IChoice((S.ITrue(), read_fd_expr("\\y : Bool. y"))), MISMATCH,
     "alternatives of one derivation have types Bool and Bool -> Bool"),
    (read_fd_expr("[D2_Eq @Bool].eq"), ARITY_MISMATCH,
     "'D2_Eq' expects 1 dictionary arguments, got 0"),
    (read_fd_expr("[D1_Eq].ne"), UNKNOWN_METHOD, "unknown method 'ne'"),
], ids=["dictionary", "let", "choice", "arity", "method"])
def test_an_ill_typed_term_is_rejected(e, kind, detail):
    with pytest.raises(FdTypeError) as exc:
        FdChecker(SIGMA_EQ, TC_EQ).check_expr((), e)
    assert (exc.value.kind, exc.value.detail) == (kind, detail)


TC_ORD = TC_EQ + (FdClassEntry("le", "Ord", "a",
                               IArrow(ITyVar("a"), IBool())),)


@pytest.mark.parametrize("sigma, tc, kind, detail", [
    (SIGMA_EQ, TC_EQ + TC_EQ, AMBIGUITY, "duplicate class or method name"),
    (SIGMA_EQ, TC_EQ + (FdClassEntry("eq", "Ord", "a", ITyVar("a")),),
     AMBIGUITY, "duplicate class or method name"),
    (SIGMA_EQ[:1] * 2, TC_EQ, AMBIGUITY, "duplicate dictionary constructor"),
    ((MethodImpl("D1_Eq", SIGMA_EQ[0].scheme, "le", SIGMA_EQ[0].impl),),
     TC_ORD, UNKNOWN_METHOD,
     "'D1_Eq' implements 'le' but class 'Eq' declares 'eq'"),
    ((MethodImpl("D1_Eq", FdConstraintScheme(("a",), (), FdQ("Eq", IBool())),
                 "eq", SIGMA_EQ[0].impl),), TC_EQ, AMBIGUITY,
     "constraint scheme of 'D1_Eq' is ambiguous"),
    ((MethodImpl("D1_Eq", SIGMA_EQ[0].scheme, "eq",
                 read_fd_expr("True True")),), TC_EQ, MISMATCH,
     "applied a non-function of type Bool"),
], ids=["class", "method", "constructor", "foreign-method", "ambiguous",
        "implementation"])
def test_an_ill_formed_environment_is_rejected(sigma, tc, kind, detail):
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(sigma, tc)
    assert (exc.value.kind, exc.value.detail) == (kind, detail)


# An annotation is checked against the type variables bound where it
# stands, and only an annotation with a free one reads them.

def test_a_term_without_open_annotations_reads_no_type_variables(
        monkeypatch):
    scanned = count_calls(monkeypatch, fd_core, "env_tyvars")
    e = read_fd_expr(
        "let g : Bool -> Bool = \\x : Bool. x in "
        "(/\\a. \\d : [Eq Bool]. \\y : Bool. g ([d].eq y y)) @(Bool -> Bool) "
        "[D1_Eq] True")
    assert FdChecker(SIGMA_EQ, TC_EQ).check_expr((), e) == IBool()
    assert scanned == []
    FdChecker((), ()).check_expr((), read_fd_expr("/\\a. \\x : a. x"))
    assert scanned == [((S.TyVarBind("a"),),)]


def test_a_shadowed_type_binder_is_the_inner_one():
    checker = FdChecker((), ())
    e = read_fd_expr("/\\a. /\\a. \\x : a. x")
    assert S.pretty(checker.check_expr((), e)) == \
        "forall a. forall a. a -> a"
    applied = S.IApp(
        read_fd_expr("(/\\a. /\\a. \\x : a. x) @Bool @(Bool -> Bool)"),
        S.ITrue())
    with pytest.raises(FdTypeError) as exc:
        checker.check_expr((), applied)
    assert str(exc.value) == \
        "Mismatch: argument has type Bool, expected Bool -> Bool"


@pytest.mark.parametrize("text, bound", [
    ("(/\\b. \\x : b. x) @a", "/\\a. (/\\b. \\x : b. x) @a"),
    ("[D2_Eq @a [d]].eq", "/\\a. \\d : [Eq a]. [D2_Eq @a [d]].eq"),
    ("\\x : a. x", "/\\a. \\x : a. x"),
    ("\\d : [Eq a]. True", "/\\a. \\d : [Eq a]. True"),
    ("let x : a -> a = \\y : a. y in x",
     "/\\a. let x : a -> a = \\y : a. y in x"),
], ids=["ITyApp", "DCon", "ILam", "IDLam", "ILet"])
def test_an_open_annotation_is_checked_where_it_stands(text, bound):
    checker = FdChecker(SIGMA_EQ, TC_EQ)
    for e in (read_fd_expr(text), read_fd_expr(f"/\\b. {text}")):
        with pytest.raises(FdTypeError) as exc:
            checker.check_expr((), e)
        assert str(exc.value) == "UnboundTyVar: unbound type variable 'a'"
    checker.check_expr((), read_fd_expr(bound))
    env = (S.TyVarBind("a"), DictBind("d", FdQ("Eq", ITyVar("a"))))
    checker.check_expr(env, read_fd_expr(text))


# ---------------------------------------------------------------------------
# Elaboration to records
# ---------------------------------------------------------------------------

def test_ground_dictionary_elaborates_to_record():
    _, te = type_and_translate(FdChecker(SIGMA_EQ, TC_EQ),
                               read_fd_dict("D1_Eq"))
    assert S.pretty(te) == "{eq = \\x : Bool. \\y : Bool. True}"


def test_nested_dictionary_applies_wrapper():
    _, te = type_and_translate(FdChecker(SIGMA_EQ, TC_EQ),
                               read_fd_dict("D2_Eq @Bool [D1_Eq]"))
    # outer record abstraction applied to the type and the inner record
    assert isinstance(te, S.TApp)
    assert isinstance(te.fun, S.TTyApp)


def test_elaboration_is_deterministic():
    r = corpus_result("P2")
    sigma, ie = r.fd_elabs[0]
    outs = set()
    for _ in range(5):
        _, te = type_and_translate(FdChecker(sigma, r.fd_class_env), ie)
        outs.add(S.pretty(te))
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

OMEGA = S.IApp(S.ILam("x", IBool(), S.IApp(S.IVar("x"), S.IVar("x"))),
               S.ILam("x", IBool(), S.IApp(S.IVar("x"), S.IVar("x"))))


def test_values():
    assert is_fd_value(read_fd_expr("True"))
    assert is_fd_value(read_fd_expr("\\x : Bool. x"))
    assert is_fd_value(read_fd_expr("/\\a. \\x : a. x"))
    assert is_fd_value(read_fd_expr("\\d : [Eq Bool]. True"))
    assert not is_fd_value(read_fd_expr("(\\x : Bool. x) True"))


def test_beta_step():
    e = read_fd_expr("(\\x : Bool. x) True")
    assert fd_step((), e) == S.ITrue()


def test_method_invocation_uses_environment_implementation():
    e = read_fd_expr("[D1_Eq].eq True False")
    assert fd_eval(SIGMA_EQ, e, 100) == S.ITrue()


def test_method_step_replays_stored_implementation():
    e = read_fd_expr("[D2_Eq @Bool [D1_Eq]].eq")
    stepped = fd_step(SIGMA_EQ, e)
    # the constructor's implementation applied to its type and dict args
    assert stepped == S.IDApp(S.ITyApp(SIGMA_EQ[1].impl, IBool()),
                              read_fd_dict("D1_Eq"))


def test_call_by_name_skips_diverging_argument():
    e = S.IApp(S.ILam("x", IBool(), S.ITrue()), OMEGA)
    assert fd_eval((), e, 10) == S.ITrue()


def test_let_substitutes_without_evaluating():
    e = S.ILet("x", IBool(), OMEGA, S.ITrue())
    assert fd_step((), e) == S.ITrue()


def test_fuel_exhaustion():
    with pytest.raises(FuelExhausted):
        fd_eval((), OMEGA, 50)


def test_evaluation_preserves_types_along_the_trace():
    r = corpus_result("P1")
    sigma, e = r.fd_elabs[0]
    ty0 = FdChecker(sigma, r.fd_class_env).check_expr((), e)
    for _ in range(1000):
        nxt = fd_step(sigma, e)
        if nxt is None:
            assert is_fd_value(e)
            break
        ty = FdChecker(sigma, r.fd_class_env).check_expr((), nxt)
        assert S.alpha_eq(ty, ty0)
        e = nxt
    else:
        pytest.fail("trace did not terminate")


@pytest.mark.parametrize("name", POSITIVE)
def test_closed_well_typed_terms_never_get_stuck(name):
    r = corpus_result(name)
    for sigma, e in r.fd_elabs:
        while not is_fd_value(e):
            nxt = fd_step(sigma, e)
            assert nxt is not None, f"stuck at {S.pretty(e)}"
            e = nxt
        assert e in (S.ITrue(), S.IFalse())
