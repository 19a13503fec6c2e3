"""The target language: System F with records.

Standard syntax-directed typechecker and a substitution-based call-by-name
small-step evaluator. Record literals are values regardless of their field
expressions; projection extracts the (unevaluated) field once the literal
is exposed. Kleene equivalence compares the values two closed terms reach
within a fuel budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    TApp, TArrow, TBool, TFalse, TForall, TLam, TLet, TProj, TRecord,
    TRecordTy, TTrue, TTyApp, TTyLam, TVar, TgtExpr, TgtType,
    TermBind, TyVarBind,
    alpha_eq, env_tyvars, free_type_vars, subst_tgt_var, subst_type,
)
from . import syntax as S
from .fd_core import FuelExhausted


@dataclass
class TgtTypeError(Exception):
    detail: str

    def __str__(self):
        return self.detail


def check_tgt_type_wf(tyvars: set[str], t: TgtType):
    for a in free_type_vars(t):
        if a not in tyvars:
            raise TgtTypeError(f"unbound type variable {a!r}")


def tgt_typecheck(env, e: TgtExpr) -> TgtType:
    match e:
        case TTrue() | TFalse():
            return TBool()
        case TVar(x):
            for bind in reversed(env):
                if isinstance(bind, TermBind) and bind.name == x:
                    return bind.ty
            raise TgtTypeError(f"unbound variable {x!r}")
        case TLam(x, ty, body):
            check_tgt_type_wf(env_tyvars(env), ty)
            bty = tgt_typecheck(tuple(env) + (TermBind(x, ty),), body)
            return TArrow(ty, bty)
        case TApp(f, a):
            fty = tgt_typecheck(env, f)
            if not isinstance(fty, TArrow):
                raise TgtTypeError(
                    f"applied a non-function of type {S.pretty(fty)}")
            aty = tgt_typecheck(env, a)
            if not alpha_eq(aty, fty.left):
                raise TgtTypeError(
                    f"argument has type {S.pretty(aty)}, "
                    f"expected {S.pretty(fty.left)}")
            return fty.right
        case TTyLam(a, body):
            bty = tgt_typecheck(tuple(env) + (TyVarBind(a),), body)
            return TForall(a, bty)
        case TTyApp(f, ty):
            fty = tgt_typecheck(env, f)
            if not isinstance(fty, TForall):
                raise TgtTypeError(
                    f"type applied to non-polymorphic type {S.pretty(fty)}")
            check_tgt_type_wf(env_tyvars(env), ty)
            return subst_type(fty.body, {fty.var: ty})
        case TRecord(fields):
            labels = [l for l, _ in fields]
            if len(set(labels)) != len(labels):
                raise TgtTypeError("duplicate label in record literal")
            return TRecordTy(tuple((l, tgt_typecheck(env, x))
                                   for l, x in fields))
        case TProj(inner, label):
            ity = tgt_typecheck(env, inner)
            if not isinstance(ity, TRecordTy):
                raise TgtTypeError(
                    f"projection from non-record type {S.pretty(ity)}")
            for l, ty in ity.fields:
                if l == label:
                    return ty
            raise TgtTypeError(f"record has no field {label!r}")
        case TLet(x, ty, bound, body):
            check_tgt_type_wf(env_tyvars(env), ty)
            bty = tgt_typecheck(env, bound)
            if not alpha_eq(bty, ty):
                raise TgtTypeError(
                    f"let binding has type {S.pretty(bty)}, "
                    f"annotated {S.pretty(ty)}")
            return tgt_typecheck(tuple(env) + (TermBind(x, ty),), body)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def is_tgt_value(e: TgtExpr) -> bool:
    # Record literals are values even with unevaluated fields.
    return isinstance(e, (TTrue, TFalse, TLam, TTyLam, TRecord))


def tgt_step(e: TgtExpr):
    """One leftmost call-by-name step, or None when e is a value."""
    match e:
        case TApp(TLam(x, _, body), a):
            return subst_tgt_var(body, x, a)
        case TApp(f, a):
            f2 = tgt_step(f)
            if f2 is None:
                raise TgtTypeError(f"stuck application {S.pretty(e)}")
            return TApp(f2, a)
        case TTyApp(TTyLam(a, body), ty):
            return subst_type(body, {a: ty})
        case TTyApp(f, ty):
            f2 = tgt_step(f)
            if f2 is None:
                raise TgtTypeError(f"stuck type application {S.pretty(e)}")
            return TTyApp(f2, ty)
        case TProj(TRecord(fields), label):
            for l, x in fields:
                if l == label:
                    return x
            raise TgtTypeError(f"record has no field {label!r}")
        case TProj(inner, label):
            i2 = tgt_step(inner)
            if i2 is None:
                raise TgtTypeError(f"stuck projection {S.pretty(e)}")
            return TProj(i2, label)
        case TLet(x, _, bound, body):
            return subst_tgt_var(body, x, bound)
        case _ if is_tgt_value(e):
            return None
    raise TgtTypeError(f"stuck term {S.pretty(e)}")


def tgt_eval(e: TgtExpr, fuel: int) -> TgtExpr:
    while True:
        if is_tgt_value(e):
            return e
        if fuel <= 0:
            raise FuelExhausted()
        e = tgt_step(e)
        fuel -= 1


def kleene_eq(e1: TgtExpr, e2: TgtExpr, fuel: int) -> bool:
    """Both terms evaluate within fuel to alpha-equal values."""
    return alpha_eq(tgt_eval(e1, fuel), tgt_eval(e2, fuel))
