"""The target typechecker, the reference for typing target terms.

Nothing in the package types a target term: the target is reached by the
two translations and observed by evaluation. The tests type the corpus
translations, fixtures and generated terms here, and a checker over
translated forests is to be compared with it.
"""

from __future__ import annotations

from dictelab import syntax as S
from dictelab.syntax import (
    TApp, TArrow, TBool, TFalse, TForall, TLam, TLet, TProj, TRecord,
    TRecordTy, TTrue, TTyApp, TTyLam, TVar, TgtExpr, TgtType,
    TermBind, TyVarBind,
    alpha_eq, env_tyvars, free_type_vars, subst_type,
)
from dictelab.target_core import TgtTypeError


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
        case TRecord(l, x):
            return TRecordTy(l, tgt_typecheck(env, x))
        case TProj(inner, label):
            ity = tgt_typecheck(env, inner)
            if not isinstance(ity, TRecordTy):
                raise TgtTypeError(
                    f"projection from non-record type {S.pretty(ity)}")
            if ity.label != label:
                raise TgtTypeError(f"record has no field {label!r}")
            return ity.ty
        case TLet(x, ty, bound, body):
            check_tgt_type_wf(env_tyvars(env), ty)
            bty = tgt_typecheck(env, bound)
            if not alpha_eq(bty, ty):
                raise TgtTypeError(
                    f"let binding has type {S.pretty(bty)}, "
                    f"annotated {S.pretty(ty)}")
            return tgt_typecheck(tuple(env) + (TermBind(x, ty),), body)
    raise TypeError(e)
