"""The environment machines against the small-step reference.

`fd_core.fd_eval` and `target_core.tgt_eval` must agree with the
small-step loops in `tests/reference_eval.py` exactly: the same value
(`==`, so printed values do not change), success at the reference step
count n and `FuelExhausted` at n - 1, and the same error class, kind and
message on a stuck term.

Exactness holds on every term none of whose binders is named like one of
its free variables of the same sort, closed terms in particular. Elsewhere
small-step substitution may rename a binder, while the machine's closures
keep every name. The open Hypothesis terms are therefore
compared after renaming their free variables apart; the raw terms must
still end in a value or a documented error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from dictelab import syntax as S
from dictelab.fd_core import (FdChecker, FdTypeError, FuelExhausted, fd_eval,
                              fd_step, is_fd_value)
from dictelab.harness import generate_fd_term
from dictelab.parser import parse_program
from dictelab.source_typer import typecheck_program
from dictelab.syntax import FdConstraintScheme, FdQ, IBool, MethodImpl
from dictelab.target_core import TgtTypeError, tgt_eval

from conftest import (PICK, POSITIVE, corpus_result, flex_source,
                      sigma_source, tower_source, type_and_translate)
from reader import read_fd_expr
from reference_eval import is_tgt_value, run_small_step, tgt_step
from strategies import fd_term, tgt_let_term

LIMIT = 100_000


def assert_agrees(machine, step, is_value, e, limit=LIMIT):
    n, value, error = run_small_step(step, is_value, e, limit)
    if n is None:
        with pytest.raises(FuelExhausted):
            machine(e, limit)
        return
    if error is None:
        assert machine(e, n) == value
        threshold = n
    else:
        with pytest.raises((FdTypeError, TgtTypeError)) as exc:
            machine(e, n + 1)
        assert type(exc.value) is type(error)
        assert getattr(exc.value, "kind", None) == getattr(error, "kind", None)
        assert str(exc.value) == str(error)
        threshold = n + 1
    if threshold > 0:
        with pytest.raises(FuelExhausted):
            machine(e, threshold - 1)


def assert_fd_agrees(sigma, e, limit=LIMIT):
    assert_agrees(lambda t, fuel: fd_eval(sigma, t, fuel),
                  lambda t: fd_step(sigma, t), is_fd_value, e, limit)


def assert_tgt_agrees(e, limit=LIMIT):
    assert_agrees(tgt_eval, tgt_step, is_tgt_value, e, limit)


# ---------------------------------------------------------------------------
# Elaborations of both pipelines, and the fd values translated
# ---------------------------------------------------------------------------

def _programs():
    out = {name: corpus_result(name) for name in POSITIVE}
    for n in range(1, 6):
        out[f"flex{n}"] = typecheck_program(parse_program(flex_source(n)))
    for d in range(1, 9):
        out[f"tower{d}"] = typecheck_program(parse_program(tower_source(d)))
    # Methods reached through an instance context's dictionary variable.
    for k in range(1, 5):
        out[f"sigma{k}"] = typecheck_program(parse_program(sigma_source(k)))
    out["pick"] = typecheck_program(parse_program(PICK))
    return out


@pytest.mark.parametrize("name", list(_programs()))
def test_machines_agree_on_elaborations(name):
    r = _programs()[name]
    for sigma, ie in r.fd_elabs:
        checker = FdChecker(sigma, r.fd_class_env)
        assert_fd_agrees(sigma, ie)
        assert_tgt_agrees(type_and_translate(checker, ie)[1])
        value = fd_eval(sigma, ie, LIMIT)
        assert_tgt_agrees(type_and_translate(checker, value)[1])
    for te in r.tgt_elabs:
        assert_tgt_agrees(te)


# ---------------------------------------------------------------------------
# Generated well-typed terms, many of them function-valued
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["P2", "P4"])
@pytest.mark.parametrize("size", [4, 6])
def test_machines_agree_on_generated_terms(name, size):
    r = corpus_result(name)
    sigma = r.fd_elabs[0][0]
    checker = FdChecker(sigma, r.fd_class_env)
    for seed in range(200):
        e = generate_fd_term(seed, size, sigma, r.fd_class_env)
        assert_fd_agrees(sigma, e)
        assert_tgt_agrees(type_and_translate(checker, e)[1])


# ---------------------------------------------------------------------------
# Open and ill-typed terms
# ---------------------------------------------------------------------------

# The constructors the `fd_dict` strategy names, with closed implementations
# that bind term, dictionary and type variables, and one (D3) whose
# implementation is open. The schemes play no part in evaluation.
SCHEME = FdConstraintScheme((), (), FdQ("Eq", IBool()))
SIGMA = (
    MethodImpl("D1", SCHEME, "eq",
               read_fd_expr("\\x : Bool. \\y : Bool. True")),
    MethodImpl("D2", SCHEME, "eq",
               read_fd_expr("/\\a. /\\b. \\d : [Eq a]. \\d' : [Eq b]. "
                            "\\x : a -> b. [d].eq")),
    MethodImpl("D3", SCHEME, "eq", read_fd_expr("x")),
)


def rename_free_apart(e, sorts):
    """e with every free variable renamed to a name no binder uses."""
    for sort in sorts:
        e = S.subst(e, sort, {x: S._VAR_CLASS[sort]("free_" + x)
                              for x in S.free_vars(e, sort)})
    return e


@settings(max_examples=300, deadline=None)
@given(fd_term)
def test_fd_machine_agrees_on_open_terms(e):
    try:
        fd_eval(SIGMA, e, 200)
    except (FdTypeError, FuelExhausted):
        pass
    assert_fd_agrees(SIGMA, rename_free_apart(e, ("iv", "id", "ic")), 200)


@settings(max_examples=300, deadline=None)
@given(tgt_let_term)
def test_tgt_machine_agrees_on_open_terms(e):
    try:
        tgt_eval(e, 200)
    except (TgtTypeError, FuelExhausted):
        pass
    assert_tgt_agrees(rename_free_apart(e, ("tv", "ta")), 200)


# ---------------------------------------------------------------------------
# Edge cases: every error the machines raise, the argument order of a
# method's implementation, a record's one field, and closures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "(\\x : Bool. x) y",
    "(\\x : Bool. x) True True",
    "(\\d : [Eq Bool]. True) @Bool",
    "(/\\a. True) [D1]",
    "(\\x : Bool. [d].eq) True",
    "(\\d : [Eq Bool]. [d].eq) [D4] True",
    "(/\\a. \\x : a. x) @Bool True True",
    "[D2 @Bool @(Bool -> Bool) [D1] [D4]].eq",
    "(\\x : Bool. [D3].eq) True",
    # The free d of the argument must not be captured by the dictionary
    # binder: small-step renames the binder and gets stuck like the machine.
    "(\\x : Bool. \\d : [Eq Bool]. x) [d].eq [D1] True True",
])
def test_fd_machine_agrees_on_edge_cases(text):
    assert_fd_agrees(SIGMA, read_fd_expr(text))


# P2's Σ, whose D1_Base implements base and no other method.
P2_SIGMA = corpus_result("P2").fd_elabs[0][0]


@pytest.mark.parametrize("sigma, e, stuck", [
    (SIGMA, S.IMethod(S.ITrue(), "eq"), "[True].eq"),
    (SIGMA, S.IApp(S.ILam("x", IBool(), S.IMethod(S.IVar("x"), "eq")),
                   S.ITrue()), "[True].eq"),
    (P2_SIGMA, S.IMethod(S.DCon("D1_Base", (), ()), "sub1"),
     "[D1_Base].sub1"),
], ids=["e0", "e1", "another_method"])
def test_a_projection_from_no_dictionary_is_a_stuck_term(sigma, e, stuck):
    # A method projection is an eliminator that waits for a dictionary
    # constructor of its method: any other value leaves it stuck, as the
    # small step has it, not foreign to the machine. A constructor of
    # another method has no implementation of this one to unfold to.
    assert_fd_agrees(sigma, e)
    with pytest.raises(FdTypeError) as exc:
        fd_eval(sigma, e, LIMIT)
    assert str(exc.value) == f"Stuck: stuck term {stuck}"


@pytest.mark.parametrize("e", [
    S.TApp(S.TLam("x", S.TBool(), S.TVar("x")), S.TVar("y")),
    S.TApp(S.TTrue(), S.TFalse()),
    S.TTyApp(S.TLam("x", S.TBool(), S.TVar("x")), S.TBool()),
    S.TProj(S.TLam("x", S.TBool(), S.TVar("x")), "l"),
    S.TProj(S.TRecord("l", S.TTrue()), "m"),
    S.TLet("r", S.TBool(), S.TRecord("l", S.TVar("z")),
           S.TApp(S.TProj(S.TVar("r"), "l"), S.TTrue())),
    # The argument x is closed over its own environment, not the callee's.
    S.TLet("f", S.TBool(), S.TLam("y", S.TBool(), S.TVar("y")),
           S.TLet("x", S.TBool(), S.TTrue(),
                  S.TApp(S.TVar("f"), S.TVar("x")))),
    # A projection moves to its record's one field, here another record.
    S.TProj(S.TProj(S.TRecord("l", S.TRecord("m", S.TFalse())), "l"), "m"),
])
def test_tgt_machine_agrees_on_edge_cases(e):
    assert_tgt_agrees(e)
