"""The target language: System F with records.

A call-by-name environment machine metered by fuel, which reaches the
value of the leftmost call-by-name small-step semantics in the same number
of steps, and the error it raises on a stuck term; like the machine of
the intermediate language, it evaluates a packed forest too, forking
where it inspects a choice (`tgt_leaves`). The small-step
reference and the target typechecker are kept in the tests. Record
literals are values regardless of their field expressions; projection
extracts the (unevaluated) field once the literal is exposed.
"""

from __future__ import annotations

from .syntax import (
    TApp, TChoice, TFalse, TLam, TLet, TProj, TRecord, TTrue, TTyApp, TTyLam,
    TVar, TgtExpr,
)
from . import syntax as S
from .fd_core import FuelExhausted, spend_fuel


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
# an application frame waits for, the sort it binds and the index of its
# body among its fields, and how a stuck frame is reported.
_TGT_FRAMES = {
    TApp: (TLam, "tv", 2, "stuck application"),
    TTyApp: (TTyLam, "ta", 1, "stuck type application"),
    TProj: (TRecord, None, None, "stuck projection"),
}
_TGT_SORTS = ("ta", "tv")
_TGT_VALUES = frozenset({TTrue, TFalse, TLam, TTyLam, TRecord})


def tgt_eval(e: TgtExpr, fuel: int) -> TgtExpr:
    """The value e reaches by leftmost call-by-name reduction in at most
    fuel steps: the one leaf of `tgt_leaves` over e's first tree, or the
    error it raised.

    The environment machine of `fd_core.fd_eval` for the target: term and
    type variables map to unevaluated closures, and the stack holds
    argument, type-argument and projection frames. Record literals are
    values regardless of their fields; a projection takes the unevaluated
    field. Beta, type beta, let and projection each cost one unit of fuel,
    the steps of the small-step semantics, and the final closure is read
    back with one substitution per sort.
    """
    (leaf,) = tgt_leaves(e, fuel, 1)
    if leaf.error is not None:
        raise leaf.error
    return leaf.value


def tgt_leaves(forest: TgtExpr, fuel: int, limit: int) -> list:
    """The leaves (`syntax.Leaf`) of evaluating each of the first limit
    trees of forest with fuel, as `fd_core.fd_leaves` evaluates an
    intermediate forest: the machine forks where a choice reaches the head
    of the current term, the only place it inspects one."""
    forks = S.Forks(forest, limit)
    return forks.leaves(lambda *state: _tgt_run(forks, *state), fuel)


def _tgt_run(forks, e, pos, env, stack, fuel, decisions, low):
    """The machine from one state (see `syntax.Forks`) to its leaf."""
    child = forks.child

    def code(node, npos):
        return forks.tree(node, npos, decisions)
    try:
        while True:
            kind = type(e)
            if kind is TApp:
                stack.append((kind, e.arg, pos and child(pos, e, 1), env))
                e, pos = e.fun, pos and child(pos, e, 0)
            elif kind is TTyApp:
                stack.append((kind, e.ty, None, env))
                e, pos = e.fun, pos and child(pos, e, 0)
            elif kind is TProj:
                stack.append((kind, e.label, None, None))
                e, pos = e.expr, pos and child(pos, e, 0)
            elif kind is TVar:
                closure = env.get(("tv", e.name))
                if closure is None:
                    spend_fuel(fuel)
                    raise TgtTypeError(f"stuck term {S.pretty(e)}")
                e, pos, env = closure
            elif kind is TLet:
                fuel = spend_fuel(fuel)
                env = {**env, ("tv", e.name): (e.bound,
                                                pos and child(pos, e, 2), env)}
                e, pos = e.body, pos and child(pos, e, 3)
            elif kind is TChoice and pos:
                j = forks.decide(pos, e, (e, pos, env, stack, fuel, decisions,
                                          low))
                e, pos = e.alts[j], child(pos, e, j)
            elif kind not in _TGT_VALUES:
                raise TypeError(e)      # no term, a choice node for one
            elif not stack:
                leaf = forks.value((e, pos, env, stack, fuel, decisions, low),
                                   _TGT_SORTS)
                if leaf:
                    return leaf
            else:
                frame, arg, apos, aenv = stack[-1]
                lam, sort, body, what = _TGT_FRAMES[frame]
                if kind is not lam:
                    spend_fuel(fuel)
                    stuck = frame(S.read_back((e, pos, env), _TGT_SORTS, code),
                                  arg if aenv is None else S.read_back(
                                      (arg, apos, aenv), _TGT_SORTS, code))
                    raise TgtTypeError(f"{what} {S.pretty(stuck)}")
                fuel = spend_fuel(fuel)
                stack.pop()
                if frame is TProj:
                    k = next((k for k, (label, _) in enumerate(e.fields)
                              if label == arg), None)
                    if k is None:
                        raise TgtTypeError(f"record has no field {arg!r}")
                    field = e.fields[k]
                    pos = pos and child(child(child(pos, e, 0), e.fields, k),
                                        field, 1)
                    e = field[1]
                else:
                    env = {**env, (sort, e.param): (arg, apos, aenv)}
                    e, pos = e.body, pos and child(pos, e, body)
    except (TgtTypeError, FuelExhausted) as err:
        return S.Leaf(low, decisions, None, err)
