"""Reference type-directed term generator for the differential test of
`harness.generate_fd_term`.

This is the generator the package used before its rules were drawn by
index: each call of `gen` builds its atoms by scanning the environment and
every method call with `alpha_eq`, and a list of closures, one per rule
that applies, of which `rng.choice` picks one. `Generators` is the per-Σ
state it read: the closed dictionaries and the method call of each with
its type, as a list, and the target types of the latest term (`kept`).

`harness.generate_fd_term` must agree with it exactly, seed by seed: the
same term (`==` and `pretty`), hence the same random draws and fresh
names, and the same `kept` set.
"""

from __future__ import annotations

import random

from dictelab import fd_core, syntax as S
from dictelab.harness import closed_dicts
from dictelab.syntax import (
    FdExpr, IApp, IArrow, IBool, IDApp, IDLam, IFalse, IForall, ILam, ILet,
    IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar, TermBind,
    alpha_eq, subst_type,
)


class Generators:
    """The generator's state over one Σ: the closed dictionaries of sigma
    (`closed_dicts`), the method call of each with its type (`calls`),
    and the target types of the latest term generated (`kept`)."""

    def __init__(self, sigma, TC):
        self.dicts = closed_dicts(sigma)
        self.calls = []
        for q, d in self.dicts:
            entry = fd_core.lookup_class_by_name(TC, q.cls)
            self.calls.append((IMethod(d, entry.method),
                               subst_type(entry.method_type,
                                          {entry.var: q.arg})))
        self.kept = frozenset()


def generate_fd_term(seed: int, size_bound: int, state: Generators) -> FdExpr:
    """A closed well-typed term, deterministic per seed; the term's
    target types replace state.kept."""
    rng = random.Random(seed)
    dicts, calls, kept = state.dicts, state.calls, set()

    def gen_type(depth: int):
        if depth <= 0:
            return IBool()
        match rng.randrange(4):
            case 0:
                return IBool()
            case 1:
                return IArrow(gen_type(depth - 1), gen_type(depth - 1))
            case 2:
                a = f"g{rng.randrange(3)}"
                return IForall(a, IArrow(ITyVar(a), gen_type(depth - 1)))
            case _:
                if dicts:
                    q, _ = rng.choice(dicts)
                    return IQArrow(q, gen_type(depth - 1))
                return IBool()

    fresh = [0]

    def fresh_name(prefix: str) -> str:
        fresh[0] += 1
        return f"{prefix}{fresh[0]}"

    def gen(env, ty, size) -> FdExpr:
        kept.add(ty)
        atoms = []
        for bind in env:
            if isinstance(bind, TermBind) and alpha_eq(bind.ty, ty):
                atoms.append(IVar(bind.name))
        if isinstance(ty, IBool):
            atoms.append(ITrue())
            atoms.append(IFalse())
        for call, call_ty in calls:
            if alpha_eq(call_ty, ty):
                atoms.append(call)
        intro = None
        match ty:
            case IArrow(l, r):
                x = fresh_name("x")
                intro = lambda s: ILam(x, l, gen(env + (TermBind(x, l),), r, s))
            case IForall(a, body):
                intro = lambda s: ITyLam(a, gen(env, body, s))
            case IQArrow(q, r):
                dv = fresh_name("dd")
                intro = lambda s: IDLam(
                    dv, q, gen(env + (S.DictBind(dv, q),), r, s))
        if size <= 0:
            if intro is not None:
                return intro(0)
            if atoms:
                return rng.choice(atoms)
            # Unreachable for the types gen_type produces, but stay total.
            return ITrue()
        options = []
        if intro is not None:
            options.append(lambda: intro(size - 1))
        if atoms:
            options.append(lambda: rng.choice(atoms))

        def elim_app():
            t1 = gen_type(1)
            f = gen(env, IArrow(t1, ty), size - 1)
            a = gen(env, t1, size - 1)
            return IApp(f, a)

        def elim_tyapp():
            a = fresh_name("b")
            f = gen(env, IForall(a, ty), size - 1)
            return ITyApp(f, gen_type(1))

        def elim_let():
            t1 = gen_type(1)
            x = fresh_name("v")
            bound = gen(env, t1, size - 1)
            body = gen(env + (TermBind(x, t1),), ty, size - 1)
            return ILet(x, t1, bound, body)

        options.append(elim_app)
        options.append(elim_let)
        options.append(elim_tyapp)
        if dicts:
            def elim_dapp():
                q, d = rng.choice(dicts)
                f = gen(env, IQArrow(q, ty), size - 1)
                return IDApp(f, d)
            options.append(elim_dapp)
        return rng.choice(options)()

    e = gen((), gen_type(2), size_bound)
    state.kept = kept
    # gen reaches itself through its closure: a cycle, which would keep
    # kept alive past the next term, until a garbage collection.
    del gen
    return e
