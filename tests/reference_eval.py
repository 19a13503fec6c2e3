"""Small-step reference evaluation for the differential tests of the machines.

`fd_core.fd_eval` and `target_core.tgt_eval` are call-by-name environment
machines. `run_small_step` is the substitution-based small-step loop they
replaced, for either language: leftmost call-by-name, one `fd_step` or
`tgt_step` per unit of fuel. `fd_step` stays in the package because
`check_metatheory` walks its traces; `tgt_step` lives here because nothing
else needs it, as does `subst_tgt_var`, its substitution. `kleene_eq` is
the tests' observation of two target terms.

On a term with no binder named like one of its free variables of the same
sort (every closed term, in particular) the machines must agree with this
loop exactly: the same value (`==`), the same fuel threshold, and the same
error class, kind and message on a stuck term.
"""

from __future__ import annotations

from dictelab import syntax as S
from dictelab.fd_core import FdTypeError
from dictelab.syntax import (
    TApp, TFalse, TLam, TLet, TProj, TRecord, TTrue, TTyApp, TTyLam,
    TgtExpr, subst_type,
)
from dictelab.target_core import TgtTypeError, tgt_eval


def subst_tgt_var(e: TgtExpr, name: str, by: TgtExpr) -> TgtExpr:
    return S.subst(e, "tv", {name: by})


def is_tgt_value(e) -> bool:
    # Record literals are values even with unevaluated fields.
    return isinstance(e, (TTrue, TFalse, TLam, TTyLam, TRecord))


def tgt_step(e):
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


def run_small_step(step, is_value, e, limit: int):
    """(n, value, error): e takes n steps to reach value, or n steps before
    the next one raises error. n is None when e takes more than limit."""
    for n in range(limit + 1):
        if is_value(e):
            return n, e, None
        try:
            e = step(e)
        except (FdTypeError, TgtTypeError) as err:
            return n, None, err
    return None, None, None


def kleene_eq(e1, e2, fuel: int) -> bool:
    """Both target terms evaluate within fuel to alpha-equal values."""
    return S.alpha_eq(tgt_eval(e1, fuel), tgt_eval(e2, fuel))
