from __future__ import annotations

import re

import pytest

from dictelab import fd_core, syntax as S
from dictelab.fd_core import (
    AMBIGUITY, ARITY_MISMATCH, FdChecker, FdTypeError, FuelExhausted,
    MISMATCH, OVERLAP, PREFIX_VIOLATION, UNBOUND_DICT, UNBOUND_VAR,
    UNKNOWN_CONSTRUCTOR, UNKNOWN_METHOD,
    elab_fd_type, expected_impl_type, fd_env_wf,
    fd_eval, fd_step, is_fd_value,
)
from dictelab.parser import parse_program
from dictelab.source_typer import typecheck_program
from dictelab.syntax import (
    DictBind, FdClassEntry, FdConstraintScheme, FdQ, IArrow, IBool, IForall,
    ITyVar, MethodImpl,
)

from conftest import (PICK, POSITIVE, corpus_result, count_calls,
                      flex_source, sigma_source, tower_source,
                      type_and_translate, wide_source)
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


def test_unify_occurs_check_through_a_bound_variable():
    # b := a -> Bool, then a against b -> Bool: a occurs in b's value.
    a, b = ITyVar("a"), ITyVar("b")
    assert S.unify(IArrow(b, a), IArrow(IArrow(a, IBool()),
                                        IArrow(b, IBool())),
                   {"a", "b"}) is None


def test_unify_occurs_check_reads_a_binder_types_free_variables():
    a = ITyVar("a")
    assert S.unify(a, IForall("c", IArrow(a, ITyVar("c"))), {"a"}) is None
    # A name bound inside the type is another variable.
    t = IForall("a", IArrow(a, a))
    assert S.unify(a, t, {"a"}) == {"a": t}


def test_unify_takes_binder_types_up_to_renaming():
    def poly(x, y):
        return IForall(x, IArrow(ITyVar(x), ITyVar(y)))
    assert S.unify(IArrow(poly("c", "e"), ITyVar("a")),
                   IArrow(poly("d", "e"), IBool()), {"a"}) == {"a": IBool()}
    assert S.unify(poly("c", "c"), poly("d", "e"), set()) is None
    assert S.unify(poly("c", "e"), poly("c", "a"), {"a"}) is None


def test_unify_refuses_a_node_with_no_type_variable_sort():
    with pytest.raises(TypeError, match="no type-variable sort for str"):
        S.unify("a", "a", {"a"})


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


@pytest.mark.parametrize("impl, kind, detail", [
    ("[D1_Eq].eq", PREFIX_VIOLATION,
     "implementation of 'D1_Eq' references a constructor declared later: "
     "unknown dictionary constructor 'D1_Eq'"),
    ("[DNope_Eq].eq", UNKNOWN_CONSTRUCTOR,
     "unknown dictionary constructor 'DNope_Eq'"),
    ("[DNope_Eq [D1_Eq]].eq", PREFIX_VIOLATION,
     "implementation of 'D1_Eq' references a constructor declared later: "
     "unknown dictionary constructor 'D1_Eq'"),
], ids=["own", "undeclared", "undeclared_around_own"])
def test_only_a_constructor_declared_later_violates_the_prefix(
        impl, kind, detail):
    # P1's Σ, its one implementation replaced: a constructor that an
    # entry at or after the implementation's own declares is out of the
    # prefix, and one that no entry declares is unknown. The prefix is
    # checked before typing, so a constructor out of it is reported even
    # where typing would first find another error.
    (entry,) = corpus_result("P1").fd_elabs[0][0]
    sigma = (MethodImpl(entry.con, entry.scheme, entry.method,
                        read_fd_expr(impl)),)
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(sigma, corpus_result("P1").fd_class_env)
    assert (exc.value.kind, exc.value.detail) == (kind, detail)


def _nested_violation_sigma() -> tuple:
    """D2_Ord's implementation uses D1_Eq, whose own implementation uses
    D3_Ord, declared after both."""
    scheme = FdConstraintScheme((), (), FdQ("Ord", IArrow(IBool(), IBool())))
    return (
        MethodImpl("D1_Eq", SIGMA_EQ[0].scheme, "eq", read_fd_expr(
            "\\x : Bool. \\y : Bool. [D3_Ord].le (\\z : Bool. z)")),
        MethodImpl("D2_Ord", FdConstraintScheme((), (), FdQ("Ord", IBool())),
                   "le", read_fd_expr("\\x : Bool. [D1_Eq].eq x x")),
        MethodImpl("D3_Ord", scheme, "le",
                   read_fd_expr("\\f : Bool -> Bool. True")))


def test_a_prefix_violation_names_the_implementation_that_makes_it():
    # The violation is D1_Eq's, found before D2_Ord's implementation,
    # which reaches D3_Ord only through D1_Eq, is typed.
    with pytest.raises(FdTypeError) as exc:
        fd_env_wf(_nested_violation_sigma(), TC_ORD)
    assert (exc.value.kind, exc.value.detail) == (
        PREFIX_VIOLATION,
        "implementation of 'D1_Eq' references a constructor declared "
        "later: unknown dictionary constructor 'D3_Ord'")


def test_dropping_a_referenced_entry_breaks_dictionaries():
    d = read_fd_dict("D2_Eq @Bool [D1_Eq]")
    q = FdChecker(SIGMA_EQ, TC_EQ).check_dict((), d)
    assert q == FdQ("Eq", IArrow(IBool(), IBool()))
    with pytest.raises(FdTypeError) as exc:
        FdChecker(SIGMA_EQ[1:], TC_EQ).check_dict((), d)
    assert exc.value.kind == UNKNOWN_CONSTRUCTOR


def prefix_typing_verdict(sigma, TC):
    """The paper's rule, as the reference for `fd_env_wf` over environments
    whose schemes are well formed: each implementation, in order, types
    under the strict prefix of sigma before it, at its expected type. A
    constructor unknown to the prefix that sigma declares is out of the
    prefix. None, or the (kind, detail) of the first failing entry."""
    declared = {entry.con for entry in sigma}
    for i, entry in enumerate(sigma):
        try:
            ty = FdChecker(sigma[:i], TC).check_expr((), entry.impl)
        except FdTypeError as err:
            unknown = re.fullmatch("unknown dictionary constructor '(.*)'",
                                   err.detail)
            if err.kind == UNKNOWN_CONSTRUCTOR and unknown[1] in declared:
                return PREFIX_VIOLATION, (
                    f"implementation of {entry.con!r} references a "
                    f"constructor declared later: {err.detail}")
            return err.kind, err.detail
        want = expected_impl_type(TC, entry)
        if not S.alpha_eq(ty, want):
            return MISMATCH, (f"implementation of {entry.con!r} has type "
                              f"{S.pretty(ty)}, expected {S.pretty(want)}")
    return None


def prefix_mutants(sigma):
    """sigma, and sigma with entry i's implementation replaced by a
    projection of each constructor, or of an undeclared one, alone or as
    an application's argument; by a projection of a later constructor
    applied to one of entry i's own, and the other way round; and by a
    projection of each earlier entry's constructor with a context, whose
    dictionary arguments are the constructor at or after entry i, or the
    undeclared one."""
    yield sigma
    cons = [(entry.con, entry.method) for entry in sigma]
    for i, entry in enumerate(sigma):
        impls, own = [], S.IMethod(S.DCon(entry.con, (), ()), entry.method)
        for j, (con, method) in enumerate([*cons, ("DNope", entry.method)]):
            proj = S.IMethod(S.DCon(con, (), ()), method)
            impls += [proj, S.IApp(S.ILam("x", IBool(), S.IVar("x")), proj)]
            if j < i:
                continue
            if i < j < len(cons):
                impls += [S.IApp(proj, own), S.IApp(own, proj)]
            for other in sigma[:i]:
                sc = other.scheme
                if sc.context:
                    impls.append(S.IMethod(S.DCon(
                        other.con, (IBool(),) * len(sc.binders),
                        (S.DCon(con, (), ()),) * len(sc.context)),
                        other.method))
        for impl in impls:
            yield (*sigma[:i], MethodImpl(entry.con, entry.scheme,
                                          entry.method, impl), *sigma[i + 1:])


# The programs whose environments the differential mutates, besides the
# corpus, by name. Each is typed in its own test, so that no typed forest
# outlives it.
PREFIX_SOURCES = {**{f"flex{n}": flex_source(n) for n in range(1, 6)},
                  **{f"wide{k}": wide_source(k) for k in range(1, 4)},
                  **{f"tower{d}": tower_source(d) for d in range(1, 9)},
                  **{f"sigma{k}": sigma_source(k) for k in range(1, 5)},
                  "PICK": PICK}


@pytest.mark.parametrize("name", [*POSITIVE, *PREFIX_SOURCES, "nested"])
def test_the_prefix_scan_agrees_with_typing_under_each_prefix(name):
    if name == "nested":
        sigmas, TC = [_nested_violation_sigma()], TC_ORD
    else:
        r = corpus_result(name) if name in POSITIVE else \
            typecheck_program(parse_program(PREFIX_SOURCES[name]))
        sigmas, TC = r.decls.variants, r.fd_class_env
    verdicts = set()
    for base in sigmas:
        for sigma in prefix_mutants(base):
            want = prefix_typing_verdict(sigma, TC)
            try:
                fd_env_wf(sigma, TC)
                got = None
            except FdTypeError as err:
                got = err.kind, err.detail
            assert got == want, [entry.impl for entry in sigma]
            verdicts.add(want and want[0])
    assert PREFIX_VIOLATION in verdicts


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
