"""The target language: System F with records.

Evaluation is the call-by-name environment machine of the intermediate
language (`fd_core.run_machine`), read through the target's table: it
reaches the value of the leftmost call-by-name small-step semantics in
the same number of steps, raises the error that semantics raises on a
stuck term, and evaluates a packed forest too, forking where it inspects
a choice (`tgt_leaves`). Record literals are values regardless of their
field expressions; projection extracts the (unevaluated) field once the
literal is exposed. The small-step reference and the target typechecker
are kept in the tests.
"""

from __future__ import annotations

from .syntax import TChoice, TgtExpr
from . import syntax as S
from .fd_core import language, run_machine


class TgtTypeError(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail

    def __str__(self):
        return self.detail


_TGT = language(TgtExpr, TChoice, ("ta", "tv"), TgtTypeError)


def tgt_eval(e: TgtExpr, fuel: int) -> TgtExpr:
    """The value e reaches by leftmost call-by-name reduction in at most
    fuel steps: the one leaf of `tgt_leaves` over e's first tree, or the
    error it raised.

    The machine (`fd_core.run_machine`) at the target: its frames are
    arguments, type arguments and projections, and beta, type beta, let
    and projection each cost one unit of fuel, the steps of the
    small-step semantics.
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
    return forks.leaves(
        lambda *state: run_machine(_TGT, (), forks, *state), fuel)
