"""The target language: System F with records.

A call-by-name environment machine metered by fuel, which reaches the
value of the leftmost call-by-name small-step semantics in the same number
of steps, and the error it raises on a stuck term. The small-step
reference and the target typechecker are kept in the tests. Record
literals are values regardless of their field expressions; projection
extracts the (unevaluated) field once the literal is exposed.
"""

from __future__ import annotations

from .syntax import (
    TApp, TFalse, TLam, TLet, TProj, TRecord, TTrue, TTyApp, TTyLam, TVar,
    TgtExpr, read_back,
)
from . import syntax as S
from .fd_core import spend_fuel


class TgtTypeError(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail

    def __str__(self):
        return self.detail


# ---------------------------------------------------------------------------
# Evaluation: a call-by-name environment machine
# ---------------------------------------------------------------------------

# A stack frame of the machine, by the node it stands for: the abstraction
# an application frame waits for and the sort it binds, and how a stuck
# frame is reported.
_TGT_FRAMES = {
    TApp: (TLam, "tv", "stuck application"),
    TTyApp: (TTyLam, "ta", "stuck type application"),
    TProj: (TRecord, None, "stuck projection"),
}
_TGT_SORTS = ("ta", "tv")
_TGT_VALUES = frozenset({TTrue, TFalse, TLam, TTyLam, TRecord})


def tgt_eval(e: TgtExpr, fuel: int) -> TgtExpr:
    """The value e reaches by leftmost call-by-name reduction in at most
    fuel steps.

    The environment machine of `fd_core.fd_eval` for the target: term and
    type variables map to unevaluated closures, and the stack holds
    argument, type-argument and projection frames. Record literals are
    values regardless of their fields; a projection takes the unevaluated
    field. Beta, type beta, let and projection each cost one unit of fuel,
    the steps of the small-step semantics, and the final closure is read
    back with one substitution per sort.
    """
    env: dict = {}
    stack = []
    while True:
        kind = type(e)
        if kind is TApp:
            stack.append((kind, e.arg, env))
            e = e.fun
        elif kind is TTyApp:
            stack.append((kind, e.ty, env))
            e = e.fun
        elif kind is TProj:
            stack.append((kind, e.label, None))
            e = e.expr
        elif kind is TVar:
            closure = env.get(("tv", e.name))
            if closure is None:
                spend_fuel(fuel)
                raise TgtTypeError(f"stuck term {S.pretty(e)}")
            e, env = closure
        elif kind is TLet:
            fuel = spend_fuel(fuel)
            env = {**env, ("tv", e.name): (e.bound, env)}
            e = e.body
        elif kind not in _TGT_VALUES:
            raise TypeError(e)      # no term, a choice node for one
        elif not stack:
            return read_back(e, env, _TGT_SORTS)
        else:
            frame, arg, aenv = stack[-1]
            lam, sort, what = _TGT_FRAMES[frame]
            if kind is not lam:
                spend_fuel(fuel)
                stuck = frame(read_back(e, env, _TGT_SORTS),
                              arg if aenv is None
                              else read_back(arg, aenv, _TGT_SORTS))
                raise TgtTypeError(f"{what} {S.pretty(stuck)}")
            fuel = spend_fuel(fuel)
            stack.pop()
            if frame is TProj:
                e = next((x for l, x in e.fields if l == arg), None)
                if e is None:
                    raise TgtTypeError(f"record has no field {arg!r}")
            else:
                env = {**env, (sort, e.param): (arg, aenv)}
                e = e.body
