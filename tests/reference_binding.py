"""Reference implementations for the differential tests of the binding core.

These are the reflective free-variable, substitution and alpha-equivalence
walks that `dictelab.syntax` replaced with its binding table, and the
hand-written unifiers and name-resolution walk that `syntax.unify` and
`syntax.subst` replaced. They rediscover each node's fields from
its `__match_args__` on every visit and share only the binder declarations
(`_BINDERS`, `_VAR_SORT`) with the code under test. `rename_bound` builds
alpha-variants for the alpha-equivalence tests.
"""

from __future__ import annotations

import itertools

from dictelab import syntax as S
from dictelab.source_typer import lookup_method
from dictelab.syntax import (
    FdType, IArrow, IBool, ITyVar, SAnn, SApp, SArrow, SBool, SLam, SLet,
    SMeth, SrcExpr, SrcMono, STyVar, SVar, avoid_name,
)

_VAR_SORT = S._VAR_SORT
_VAR_CLASS = {sort: cls for cls, sort in _VAR_SORT.items()}
_BINDERS = S._BINDERS

_NODE_BASES = (S.SrcMono, S.SrcConstraint, S.SrcScheme,
               S.SrcConstraintScheme, S.SrcExpr, S.FdType, S.FdQ,
               S.FdConstraintScheme, S.FdDict, S.FdExpr, S.TgtType, S.TgtExpr)


def _is_node(x) -> bool:
    return isinstance(x, _NODE_BASES)


def _binder_names(node):
    field, _, _ = _BINDERS[type(node)]
    value = getattr(node, field)
    return (value,) if isinstance(value, str) else tuple(value)


def free_vars(node, sort: str) -> list[str]:
    out: list[str] = []

    def go(x, bound: frozenset):
        if isinstance(x, tuple):
            for item in x:
                go(item, bound)
            return
        if not _is_node(x):
            return
        cls = type(x)
        if cls in _VAR_SORT and _VAR_SORT[cls] == sort:
            if x.name not in bound and x.name not in out:
                out.append(x.name)
            return
        spec = _BINDERS.get(cls)
        if spec is not None and spec[1] == sort:
            _, _, scope = spec
            inner = bound | set(_binder_names(x))
            for f in x.__match_args__:
                if f == spec[0]:
                    continue
                go(getattr(x, f), inner if f in scope else bound)
            return
        for f in x.__match_args__:
            go(getattr(x, f), bound)

    go(node, frozenset())
    return out


def subst(node, sort: str, mapping: dict):
    if not mapping:
        return node

    def range_fvs(m, bsort):
        taken = set()
        for v in m.values():
            taken.update(free_vars(v, bsort))
        return taken

    def go(x, m):
        if not m:
            return x
        if isinstance(x, tuple):
            return tuple(go(item, m) for item in x)
        if not _is_node(x):
            return x
        cls = type(x)
        if cls in _VAR_SORT and _VAR_SORT[cls] == sort:
            return m.get(x.name, x)
        spec = _BINDERS.get(cls)
        if spec is not None:
            # A binder of any sort is renamed when it would capture a free
            # variable of its own sort in the range.
            bfield, bsort, scope = spec
            names = _binder_names(x)
            inner = m
            if bsort == sort:
                inner = {k: v for k, v in m.items() if k not in names}
            clash = range_fvs(inner, bsort)
            renames = {}
            taken = set(names) | clash
            if bsort == sort:
                taken |= set(inner)
            for sf in scope:
                taken.update(free_vars(getattr(x, sf), bsort))
            new_names = []
            for n in names:
                if n in clash:
                    n2 = avoid_name(n, taken)
                    taken.add(n2)
                    renames[n] = _VAR_CLASS[bsort](n2)
                    new_names.append(n2)
                else:
                    new_names.append(n)
            kwargs = {}
            for f in x.__match_args__:
                v = getattr(x, f)
                if f == bfield:
                    kwargs[f] = (new_names[0] if isinstance(v, str)
                                 else tuple(new_names))
                elif f in scope:
                    if renames:
                        v = subst(v, bsort, renames)
                    kwargs[f] = go(v, inner)
                else:
                    kwargs[f] = go(v, m)
            return cls(**kwargs)
        return cls(**{f: go(getattr(x, f), m) for f in x.__match_args__})

    return go(node, dict(mapping))


def alpha_eq(a, b) -> bool:
    counter = [0]

    def go(x, y, env1, env2):
        if isinstance(x, tuple) or isinstance(y, tuple):
            if not (isinstance(x, tuple) and isinstance(y, tuple)):
                return False
            return len(x) == len(y) and all(
                go(p, q, env1, env2) for p, q in zip(x, y))
        if not _is_node(x) or not _is_node(y):
            return x == y
        cls = type(x)
        if cls is not type(y):
            return False
        if cls in _VAR_SORT:
            sort = _VAR_SORT[cls]
            i = env1.get((sort, x.name))
            j = env2.get((sort, y.name))
            if i is None and j is None:
                return x.name == y.name
            return i is not None and i == j
        spec = _BINDERS.get(cls)
        if spec is not None:
            bfield, sort, scope = spec
            nx, ny = _binder_names(x), _binder_names(y)
            if len(nx) != len(ny):
                return False
            inner1, inner2 = dict(env1), dict(env2)
            for n1, n2 in zip(nx, ny):
                idx = counter[0]
                counter[0] += 1
                inner1[(sort, n1)] = idx
                inner2[(sort, n2)] = idx
            for f in x.__match_args__:
                if f == bfield:
                    continue
                e1 = inner1 if f in scope else env1
                e2 = inner2 if f in scope else env2
                if not go(getattr(x, f), getattr(y, f), e1, e2):
                    return False
            return True
        return all(go(getattr(x, f), getattr(y, f), env1, env2)
                   for f in x.__match_args__)

    return go(a, b, {}, {})


def rename_bound(node):
    """An alpha-variant of node in which every bound name is fresh."""
    counter = itertools.count()

    def go(x):
        if isinstance(x, tuple):
            return tuple(go(item) for item in x)
        if not _is_node(x):
            return x
        kwargs = {f: go(getattr(x, f)) for f in x.__match_args__}
        spec = _BINDERS.get(type(x))
        if spec is not None:
            bfield, sort, scope = spec
            names = _binder_names(x)
            fresh = tuple(f"{n}_{next(counter)}" for n in names)
            renaming = {n: _VAR_CLASS[sort](n2) for n, n2 in zip(names, fresh)}
            for f in scope:
                kwargs[f] = subst(kwargs[f], sort, renaming)
            kwargs[bfield] = (fresh[0] if isinstance(getattr(x, bfield), str)
                              else fresh)
        return type(x)(**kwargs)

    return go(node)


# ---------------------------------------------------------------------------
# The hand-written unifiers
# ---------------------------------------------------------------------------

def match_mono(pattern, vars: set[str], target):
    """One-way first-order matching of source monotypes."""
    subst: dict = {}

    def go(p, t) -> bool:
        match p, t:
            case STyVar(a), _ if a in vars:
                if a in subst:
                    return subst[a] == t
                subst[a] = t
                return True
            case SBool(), SBool():
                return True
            case STyVar(a), STyVar(b):
                return a == b
            case SArrow(p1, p2), SArrow(t1, t2):
                return go(p1, t1) and go(p2, t2)
        return False

    return subst if go(pattern, target) else None


def unify_mono(t1: SrcMono, t2: SrcMono, vars: set[str]):
    """Most general unifier over vars, first-order with occurs check."""
    subst: dict[str, SrcMono] = {}

    def resolve(t):
        while isinstance(t, STyVar) and t.name in subst:
            t = subst[t.name]
        return t

    def occurs(a, t):
        t = resolve(t)
        match t:
            case STyVar(b):
                return a == b
            case SArrow(l, r):
                return occurs(a, l) or occurs(a, r)
        return False

    def go(x, y) -> bool:
        x, y = resolve(x), resolve(y)
        match x, y:
            case STyVar(a), _ if a in vars:
                if x == y:
                    return True
                if occurs(a, y):
                    return False
                subst[a] = y
                return True
            case _, STyVar(b) if b in vars:
                return go(y, x)
            case SBool(), SBool():
                return True
            case STyVar(a), STyVar(b):
                return a == b
            case SArrow(l1, r1), SArrow(l2, r2):
                return go(l1, l2) and go(r1, r2)
        return False

    return subst if go(t1, t2) else None


def unify_fd_types(t1: FdType, t2: FdType, vars: set[str]):
    """First-order MGU over vars with occurs check; None if not unifiable."""
    out: dict[str, FdType] = {}

    def resolve(t):
        while isinstance(t, ITyVar) and t.name in out:
            t = out[t.name]
        return t

    def occurs(a, t):
        t = resolve(t)
        match t:
            case ITyVar(b):
                return a == b
            case IArrow(l, r):
                return occurs(a, l) or occurs(a, r)
        return False

    def go(x, y) -> bool:
        x, y = resolve(x), resolve(y)
        match x, y:
            case ITyVar(a), _ if a in vars:
                if x == y:
                    return True
                if occurs(a, y):
                    return False
                out[a] = y
                return True
            case _, ITyVar(b) if b in vars:
                return go(y, x)
            case IBool(), IBool():
                return True
            case ITyVar(a), ITyVar(b):
                return a == b
            case IArrow(l1, r1), IArrow(l2, r2):
                return go(l1, l2) and go(r1, r2)
        return False

    return out if go(t1, t2) else None


def unify_heads(q1, q2, vars: set[str]):
    if q1.cls != q2.cls:
        return None
    return unify_fd_types(q1.arg, q2.arg, vars)


# ---------------------------------------------------------------------------
# The hand-written name-resolution walk
# ---------------------------------------------------------------------------

def resolve_names(GC, e: SrcExpr, bound: frozenset = frozenset()) -> SrcExpr:
    """Reclassify variables naming declared methods as method references."""
    match e:
        case SVar(name):
            if name not in bound and lookup_method(GC, name) is not None:
                return SMeth(name)
            return e
        case SLam(x, body):
            return SLam(x, resolve_names(GC, body, bound | {x}))
        case SLet(x, sch, b1, b2):
            return SLet(x, sch, resolve_names(GC, b1, bound),
                        resolve_names(GC, b2, bound | {x}))
        case SApp(f, a):
            return SApp(resolve_names(GC, f, bound),
                        resolve_names(GC, a, bound))
        case SAnn(inner, ty):
            return SAnn(resolve_names(GC, inner, bound), ty)
        case _:
            return e
