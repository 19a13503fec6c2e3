"""Typing and elaboration of the surface language.

All judgments of the surface language live here: superclass closure,
unambiguity, constraint entailment, bidirectional term typing,
class/instance/program typing and environment elaboration. Matching an
instance head or a scheme against a type is `syntax.unify` with the
pattern's binders renamed apart from the type.

The declarations of a program are typed once, and its main expression, or
a context plugged around it, against them. A variable that names a class
method is typed by the method rule where it is checked: no pass resolves
names first, since a method name is never rebound. The elaborating judgments
`infer`, `check` and `entail` emit the intermediate language, whose
dictionaries are first-order and binder-free: an elaboration is its
resolution derivation. A method environment Σ fixes one body per instance
for the whole program; a typed program's Σ is a `MethodEnv`, which keeps
what is derived from it. The typer's output holds derivations only;
`harness.squares` translates them under Σ directly (`DirectTranslator`,
which shares no code with `fd_core`) and through the intermediate
language (`fd_core.FdChecker`, which types them, then translates them), so
decomposition stays a cross-check.

Typing is type-deterministic; only the elaboration is nondeterministic.
The elaborating judgments return one packed forest of derivations (see
`syntax.unpack`): an `IChoice` stands wherever resolution has
alternatives, local dictionary bindings in environment order before
global instances in declaration order, and a node whose children hold
choices stands for their Cartesian product, constraints resolved left to
right. Each judgment also returns its count of elaborations, capped at
`max_elaborations`, and whether a cap cut it; the counts are computed from
the counts of the factors, so no product is materialized. A judgment
resolves each constraint once, and resolution stops adding alternatives
once they exceed the cap, so the cap bounds the work, not only the output.
Unpacking a forest up to the cap yields the capped enumeration in its
order. A typed program reads its counts off the forest, and unpacks its
trees only when one is read (`syntax.Unpacked`).
"""

from __future__ import annotations

import functools
import itertools
import math

from .syntax import (
    ClassDecl, DictBind, InstDecl, SrcConstraint, SrcConstraintScheme,
    SrcExpr, SrcMono, SrcProgram, SrcScheme, TermBind, TyVarBind,
    SAnn, SApp, SArrow, SBool, SFalse, SHole, SLam, SLet, STrue, STyVar,
    SVar,
    FdConstraintScheme, FdClassEntry, FdQ, FdType, MethodImpl,
    DCon, DVar, IApp, IArrow, IBool, IChoice, IDApp, IDLam, IForall, ILam,
    ILet, IMethod, IQArrow, ITrue, IFalse, ITyApp, ITyLam, ITyVar, IVar,
    FdExpr,
    TApp, TArrow, TBool, TChoice, TFalse, TForall, TLam, TLet, TProj,
    TRecord, TRecordTy, TTrue, TTyApp, TTyLam, TTyVar, TVar, TgtExpr,
    dict_target_name, env_tyvars, free_type_vars, frozen, rename_apart,
    subst_type,
)
from . import syntax as S


class SrcTypeError(Exception):
    """A rejected program. Kind "resource" marks a constraint left
    unresolved only because the depth or elaboration cap cut its search."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@frozen
class Limits:
    max_depth: int = 32
    max_elaborations: int = 256


@frozen
class ClassEntry:
    method: str
    superclasses: tuple[str, ...]
    cls: str
    var: str
    scheme: SrcScheme


@frozen
class InstEntry:
    con: str
    scheme: SrcConstraintScheme        # forall fv(head). closed ctx => C head
    method: str
    # Derived data fixed at declaration time (used by both translations):
    fd_scheme: FdConstraintScheme      # scheme, elaborated
    ctx_dvars: tuple[str, ...]         # aligned with scheme.context
    meth_binders: tuple[str, ...]
    meth_qtys: tuple[FdQ, ...]         # elaborated method context
    meth_dvars: tuple[str, ...]
    body_fd: tuple[FdExpr, ...]        # elaborations of body, fixed prefix
    truncated: bool = False

    @property
    def cls(self) -> str:
        return self.scheme.head.cls


# ---------------------------------------------------------------------------
# Environments
# ---------------------------------------------------------------------------

def lookup_class(GC, name: str) -> ClassEntry:
    for entry in GC:
        if entry.cls == name:
            return entry
    raise SrcTypeError("unknown-class", f"unknown class {name!r}")


def lookup_method(GC, method: str) -> ClassEntry | None:
    for entry in GC:
        if entry.method == method:
            return entry
    return None


def lookup_term(env, name: str) -> SrcScheme:
    for bind in reversed(env):
        if isinstance(bind, TermBind) and bind.name == name:
            return bind.ty
    raise SrcTypeError("unbound", f"unbound variable {name!r}")


# ---------------------------------------------------------------------------
# Closure and unambiguity
# ---------------------------------------------------------------------------

def closure(GC, qs) -> tuple[SrcConstraint, ...]:
    """Superclass closure, supers first, duplicates kept."""
    out: list[SrcConstraint] = []
    for q in qs:
        entry = lookup_class(GC, q.cls)
        for sup in entry.superclasses:
            out.extend(closure(GC, [SrcConstraint(sup, q.arg)]))
        out.append(q)
    return tuple(out)


def unambig_scheme(s: SrcScheme) -> bool:
    head_fvs = set(free_type_vars(s.head))
    return all(b in head_fvs for b in s.binders)


def unambig_constraint(c: SrcConstraintScheme) -> bool:
    head_fvs = set(free_type_vars(c.head.arg))
    return all(b in head_fvs for b in c.binders)


# ---------------------------------------------------------------------------
# Type elaboration
# ---------------------------------------------------------------------------

def elab_mono(tyvars: set[str], t: SrcMono) -> FdType:
    """The intermediate type of t, whose free type variables must be in
    tyvars: the first that is not is reported, in reading order. Each
    subtree t shares is translated once."""
    for _, a in t._fv:
        if a not in tyvars:
            raise SrcTypeError("unbound", f"unbound type variable {a!r}")
    return _elab_mono(t, {})


def _elab_mono(t: SrcMono, memo: dict) -> FdType:
    out = memo.get(t)
    if out is None:
        match t:
            case SBool():
                out = IBool()
            case STyVar(a):
                out = ITyVar(a)
            case SArrow(l, r):
                out = IArrow(_elab_mono(l, memo), _elab_mono(r, memo))
            case _:
                raise TypeError(t)
        memo[t] = out
    return out


def elab_constraint(GC, tyvars: set[str], q: SrcConstraint) -> FdQ:
    lookup_class(GC, q.cls)
    return FdQ(q.cls, elab_mono(tyvars, q.arg))


def elab_type(GC, env, s: SrcScheme | SrcMono) -> FdType:
    if isinstance(s, SrcMono):
        s = SrcScheme((), (), s)
    tyvars = env_tyvars(env) | set(s.binders)
    ty = elab_mono(tyvars, s.head)
    for q in reversed(s.context):
        ty = IQArrow(elab_constraint(GC, tyvars, q), ty)
    for a in reversed(s.binders):
        ty = IForall(a, ty)
    return ty


def _abstract(binders, dvars, qtys, body: FdExpr) -> FdExpr:
    """Abstract body over the dictionaries dvars of constraint types qtys,
    then over binders."""
    for dv, qty in zip(reversed(dvars), reversed(qtys)):
        body = IDLam(dv, qty, body)
    for a in reversed(binders):
        body = ITyLam(a, body)
    return body


def _instantiate(head: FdExpr, types, dicts) -> FdExpr:
    """Apply head to types, then to dictionaries."""
    for ty in types:
        head = ITyApp(head, ty)
    for d in dicts:
        head = IDApp(head, d)
    return head


# ---------------------------------------------------------------------------
# Constraint entailment
# ---------------------------------------------------------------------------

def _cap(count: int, limits: Limits, truncated: bool = False):
    """A count of elaborations capped at max_elaborations, and whether the
    enumeration was cut, here or (truncated) in a factor."""
    if count > limits.max_elaborations:
        return limits.max_elaborations, True
    return count, truncated


def _choice(alts):
    """One derivation forest for the alternatives alts."""
    return alts[0] if len(alts) == 1 else IChoice(tuple(alts))


def _unresolved(truncated: bool, message: str) -> SrcTypeError:
    """The error for an empty resolution: a resource error when a cap cut
    the search, since a larger cap might find one."""
    if truncated:
        return SrcTypeError("resource",
                            f"{message} (resolution limit reached)")
    return SrcTypeError("unsatisfiable", message)


def _instance_matches(P, q: SrcConstraint, q_vars: set[str]):
    """Instances whose head matches q, whose type variables are q_vars,
    with the matched types per binder."""
    for entry in P:
        sc = entry.scheme
        if sc.head.cls != q.cls:
            continue
        renaming = rename_apart(sc.binders, q_vars)
        binders = tuple(renaming.get(b, b) for b in sc.binders)
        mono_renaming = {a: STyVar(b) for a, b in renaming.items()}
        head_arg = subst_type(sc.head.arg, mono_renaming)
        sigma = S.unify(head_arg, q.arg, set(binders))
        if sigma is None:
            continue
        # All binders occur in the head (unambiguity), so sigma is total.
        type_args = tuple(sigma[b] for b in binders)
        ctx = tuple(subst_type(subst_type(c, mono_renaming),
                               dict(zip(binders, type_args)))
                    for c in sc.context)
        yield entry, type_args, ctx


def entail(P, env, q: SrcConstraint, limits: Limits, depth: int = 0,
           memo=None):
    """The resolutions of q as one dictionary forest, with their capped
    count and whether a cap cut them; an empty choice if there are none.
    memo holds the resolutions already made in env, by constraint and
    depth: a constraint met again is resolved once."""
    memo = {} if memo is None else memo
    key = (q, depth)
    if key not in memo:
        memo[key] = _resolve(P, env, q, limits, depth, memo)
    return memo[key]


def _resolve(P, env, q, limits, depth, memo):
    if depth >= limits.max_depth:
        return IChoice(()), 0, True
    alts, truncated = [], False
    for bind in env:
        # A shadowed binding gives the same derivation as its shadow.
        if isinstance(bind, DictBind) and bind.q == q:
            d = DVar(bind.name)
            if d not in alts:
                alts.append(d)
    count = len(alts)
    q_vars = set(free_type_vars(q.arg))
    tyvars = env_tyvars(env) | q_vars
    for entry, type_args, ctx in _instance_matches(P, q, q_vars):
        if count > limits.max_elaborations:
            break   # later alternatives lie past the cap
        args, n, t = _entail_all(P, env, ctx, limits, depth + 1, memo)
        types = tuple(elab_mono(tyvars, ty) for ty in type_args)
        truncated |= t
        if n:
            alts.append(DCon(entry.con, types, args))
            count += n
    count, cut = _cap(count, limits)
    return _choice(alts), count, cut or truncated


def _entail_all(P, env, qs, limits, depth, memo):
    """Resolve a constraint list left to right: one dictionary forest per
    constraint, and the capped count of their Cartesian product."""
    forests, count, truncated = [], 1, False
    for q in qs:
        d, n, t = entail(P, env, q, limits, depth, memo)
        truncated |= t
        if not n:
            return (), 0, truncated
        forests.append(d)
        count = min(count * n, limits.max_elaborations + 1)
    count, cut = _cap(count, limits, truncated)
    return tuple(forests), count, cut


# ---------------------------------------------------------------------------
# Bidirectional term typing with elaboration
# ---------------------------------------------------------------------------

def _check_no_method_shadow(GC, name: str):
    if lookup_method(GC, name) is not None:
        raise SrcTypeError(
            "shadow", f"{name!r} is a class method and cannot be rebound")


def _let_dict_vars(name: str, qs) -> tuple[str, ...]:
    return tuple(f"δ{name}{i}" for i in range(1, len(qs) + 1))


def infer(P, GC, env, e: SrcExpr, limits: Limits):
    """Returns (type, elaboration forest, count, truncated)."""
    match e:
        case STrue():
            return SBool(), ITrue(), 1, False
        case SFalse():
            return SBool(), IFalse(), 1, False
        case SApp():
            # The spine in a loop, its head first and then each argument
            # from the innermost, as a recursion on the function would.
            args = []
            while type(e) is SApp:
                args.append(e.arg)
                e = e.fun
            fty, forest, n, truncated = infer(P, GC, env, e, limits)
            for a in reversed(args):
                if not isinstance(fty, SArrow):
                    raise SrcTypeError(
                        "mismatch",
                        f"applied a non-function of type {S.pretty(fty)}")
                fa, n2, t2 = check(P, GC, env, a, fty.left, limits)
                forest = IApp(forest, fa)
                n, truncated = _cap(n * n2, limits, truncated | t2)
                fty = fty.right
            return fty, forest, n, truncated
        case SAnn(inner, ty):
            elab_mono(env_tyvars(env), ty)  # well-formedness
            return (ty, *check(P, GC, env, inner, ty, limits))
        case SLet(x, sch, bound, body):
            _check_no_method_shadow(GC, x)
            if not unambig_scheme(sch):
                raise SrcTypeError(
                    "ambiguous",
                    f"ambiguous type scheme for {x!r}: not every bound "
                    f"variable occurs in the head of the type")
            elab_type(GC, env, sch)  # well-formedness
            closed = closure(GC, sch.context)
            dvars = _let_dict_vars(x, closed)
            env1 = (tuple(env)
                    + tuple(TyVarBind(a) for a in sch.binders)
                    + tuple(DictBind(dv, q) for dv, q in zip(dvars, closed)))
            fb, n1, t1 = check(P, GC, env1, bound, sch.head, limits)
            closed_scheme = SrcScheme(sch.binders, closed, sch.head)
            env2 = tuple(env) + (TermBind(x, closed_scheme),)
            bty, fbody, n2, t2 = infer(P, GC, env2, body, limits)
            bound_ty = elab_type(GC, env, closed_scheme)
            qtys = [elab_constraint(GC, env_tyvars(env1), q) for q in closed]
            return (bty, ILet(x, bound_ty, _abstract(sch.binders, dvars, qtys,
                                                     fb), fbody),
                    *_cap(n1 * n2, limits, t1 | t2))
        case SVar(name):
            raise SrcTypeError(
                "not-inferable",
                f"head {name!r} not inferable - annotate its use")
        case SLam():
            raise SrcTypeError(
                "not-inferable", "cannot infer a lambda - annotate it")
        case SHole():
            raise SrcTypeError("not-inferable", "hole outside a context file")
    raise TypeError(e)


def check(P, GC, env, e: SrcExpr, ty: SrcMono, limits: Limits):
    """Returns (elaboration forest, count, truncated)."""
    match e:
        case SVar(name) if (entry := lookup_method(GC, name)) is not None:
            # A method name is never rebound (_check_no_method_shadow).
            full = SrcScheme((entry.var,) + entry.scheme.binders,
                             entry.scheme.context, entry.scheme.head)
            if not unambig_scheme(full):
                raise SrcTypeError(
                    "ambiguous", f"ambiguous method scheme for {name!r}")
            full = _freshen_scheme(full, set(free_type_vars(ty)))
            class_var, meth_binders = full.binders[0], full.binders[1:]
            sigma = S.unify(full.head, ty, set(full.binders))
            if sigma is None:
                raise SrcTypeError(
                    "mismatch",
                    f"method {name!r} cannot be used at type {S.pretty(ty)}")
            class_q = SrcConstraint(entry.cls, sigma[class_var])
            memo = {}
            d, n0, t0 = entail(P, env, class_q, limits, 0, memo)
            if not n0:
                raise _unresolved(
                    t0, f"cannot resolve {S.pretty(class_q)} for method "
                        f"{name!r}")
            args, n1, t1 = _entail_all(
                P, env, [subst_type(q, sigma) for q in full.context], limits,
                0, memo)
            if not n1:
                raise _unresolved(
                    t1, f"cannot satisfy the constraints of method {name!r}")
            tyvars = env_tyvars(env) | set(free_type_vars(ty))
            types = [elab_mono(tyvars, sigma[a]) for a in meth_binders]
            return (_instantiate(IMethod(d, name), types, args),
                    *_cap(n0 * n1, limits, t0 | t1))
        case SVar(name):
            sch = _freshen_scheme(lookup_term(env, name),
                                  set(free_type_vars(ty)))
            sigma = S.unify(sch.head, ty, set(sch.binders))
            if sigma is None:
                raise SrcTypeError(
                    "mismatch",
                    f"{name!r} cannot be used at type {S.pretty(ty)}")
            args, n, truncated = _entail_all(
                P, env, [subst_type(q, sigma) for q in sch.context], limits, 0,
                {})
            if not n:
                raise _unresolved(
                    truncated,
                    f"cannot satisfy the constraints of {name!r} at "
                    f"{S.pretty(ty)}")
            tyvars = env_tyvars(env) | set(free_type_vars(ty))
            types = [elab_mono(tyvars, sigma[a]) for a in sch.binders]
            return _instantiate(IVar(name), types, args), n, truncated
        case SLam(x, body):
            _check_no_method_shadow(GC, x)
            if not isinstance(ty, SArrow):
                raise SrcTypeError(
                    "mismatch",
                    f"lambda checked against non-function type {S.pretty(ty)}")
            env1 = tuple(env) + (TermBind(x, SrcScheme((), (), ty.left)),)
            fb, n, truncated = check(P, GC, env1, body, ty.right, limits)
            arg_ty = elab_mono(env_tyvars(env), ty.left)
            return ILam(x, arg_ty, fb), n, truncated
        case _:
            ity, forest, n, truncated = infer(P, GC, env, e, limits)
            if ity != ty:
                raise SrcTypeError(
                    "mismatch",
                    f"inferred {S.pretty(ity)} but expected {S.pretty(ty)}")
            return forest, n, truncated


def _freshen_scheme(sch: SrcScheme, avoid: set[str]) -> SrcScheme:
    renaming = rename_apart(sch.binders, avoid)
    if not renaming:
        return sch
    mono_renaming = {a: STyVar(b) for a, b in renaming.items()}
    return SrcScheme(tuple(renaming.get(b, b) for b in sch.binders),
                     tuple(subst_type(q, mono_renaming) for q in sch.context),
                     subst_type(sch.head, mono_renaming))


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

def typecheck_class(GC, d: ClassDecl) -> ClassEntry:
    if any(entry.cls == d.name for entry in GC):
        raise SrcTypeError("duplicate", f"duplicate class {d.name!r}")
    if lookup_method(GC, d.method) is not None:
        raise SrcTypeError("duplicate", f"duplicate method {d.method!r}")
    for sup in d.superclasses:
        lookup_class(GC, sup)
    if d.var in d.method_scheme.binders:
        raise SrcTypeError(
            "duplicate", f"method scheme rebinds the class variable {d.var!r}")
    # Well-scopedness of the method type under the class variable.
    elab_type(GC, (TyVarBind(d.var),), d.method_scheme)
    head_fvs = set(free_type_vars(d.method_scheme.head))
    missing = ({d.var} | set(d.method_scheme.binders)) - head_fvs
    if missing:
        raise SrcTypeError(
            "ambiguous",
            f"ambiguous method type for {d.method!r}: "
            f"{', '.join(sorted(missing))} not in the head of the type")
    return ClassEntry(d.method, d.superclasses, d.name, d.var, d.method_scheme)


def typecheck_instance(P, GC, d: InstDecl, limits: Limits) -> InstEntry:
    cls = lookup_class(GC, d.cls)
    if d.method != cls.method:
        raise SrcTypeError(
            "unknown-method",
            f"class {d.cls!r} declares method {cls.method!r}, "
            f"instance defines {d.method!r}")
    binders = tuple(free_type_vars(d.head))
    tyvar_env = tuple(TyVarBind(b) for b in binders)
    for q in d.context:
        elab_constraint(GC, set(binders), q)  # well-scoped, declared
    closed = closure(GC, d.context)
    con = f"D{len(P) + 1}_{d.cls}"
    head_q = SrcConstraint(d.cls, d.head)
    scheme = SrcConstraintScheme(binders, closed, head_q)
    if not unambig_constraint(scheme):
        raise SrcTypeError(
            "ambiguous", f"ambiguous instance context for {con!r}")
    # Non-overlap with every earlier instance of the same class.
    for other in P:
        if other.cls != d.cls:
            continue
        renaming = rename_apart(other.scheme.binders, set(binders))
        other_head = subst_type(other.scheme.head.arg,
                                {a: STyVar(b) for a, b in renaming.items()})
        vars = set(binders) | {renaming.get(b, b)
                               for b in other.scheme.binders}
        if S.unify(d.head, other_head, vars) is not None:
            raise SrcTypeError(
                "overlap",
                f"overlapping instances for class {d.cls!r}: "
                f"{S.pretty(d.head)} overlaps {S.pretty(other.scheme.head.arg)}")
    ctx_dvars = tuple(f"δ{con}_{i}" for i in range(1, len(closed) + 1))
    local_env = tyvar_env + tuple(
        DictBind(dv, q) for dv, q in zip(ctx_dvars, closed))
    # Method scheme instantiated at the instance type; its own binders are
    # renamed apart from the instance binders.
    meth_sch = _freshen_scheme(
        SrcScheme(cls.scheme.binders, cls.scheme.context, cls.scheme.head),
        set(binders) | {cls.var})
    inst = {cls.var: d.head}
    meth_head = subst_type(meth_sch.head, inst)
    meth_ctx = tuple(subst_type(q, inst) for q in meth_sch.context)
    meth_dvars = tuple(f"δ{con}_m{i}"
                       for i in range(1, len(meth_ctx) + 1))
    local_env = (local_env
                 + tuple(TyVarBind(b) for b in meth_sch.binders)
                 + tuple(DictBind(dv, q)
                         for dv, q in zip(meth_dvars, meth_ctx)))
    # Superclass constraints of the class must hold at the instance type.
    for sup in cls.superclasses:
        _, n, truncated = entail(P, local_env, SrcConstraint(sup, d.head),
                                 limits)
        if not n:
            raise _unresolved(
                truncated,
                f"superclass {sup!r} of {d.cls!r} is not derivable at "
                f"{S.pretty(d.head)}")
    forest, n, truncated = check(P, GC, local_env, d.body, meth_head, limits)
    if not n:
        raise _unresolved(
            truncated, f"instance body for {con!r} has no elaboration")
    fd_scheme = FdConstraintScheme(
        binders, tuple(elab_constraint(GC, set(binders), q) for q in closed),
        elab_constraint(GC, set(binders), head_q))
    meth_vars = set(binders) | set(meth_sch.binders)
    return InstEntry(con=con, scheme=scheme, method=d.method,
                     fd_scheme=fd_scheme, ctx_dvars=ctx_dvars,
                     meth_binders=meth_sch.binders,
                     meth_qtys=tuple(elab_constraint(GC, meth_vars, q)
                                     for q in meth_ctx),
                     meth_dvars=meth_dvars,
                     body_fd=tuple(S.unpack(forest, n)),
                     truncated=truncated)


# ---------------------------------------------------------------------------
# Environment elaboration
# ---------------------------------------------------------------------------

def elab_class_env(GC) -> tuple[FdClassEntry, ...]:
    return tuple(
        FdClassEntry(entry.method, entry.cls, entry.var,
                     elab_type(GC, (TyVarBind(entry.var),), entry.scheme))
        for entry in GC)


def _method_impl(entry: InstEntry, body: FdExpr) -> MethodImpl:
    """The method-environment entry of an instance with the given body,
    abstracted over the method's, then the instance's, binders and
    dictionaries."""
    sc = entry.fd_scheme
    impl = _abstract(entry.meth_binders, entry.meth_dvars, entry.meth_qtys,
                     body)
    return MethodImpl(entry.con, sc, entry.method,
                      _abstract(sc.binders, entry.ctx_dvars, sc.context, impl))


# ---------------------------------------------------------------------------
# Direct translation to the target
# ---------------------------------------------------------------------------

class DirectTranslator:
    """The direct translation of derivations to the target, under the
    method environment that picks `bodies`, one per instance of P.

    A dictionary becomes its instance's record, built from the typed
    declaration; a method call becomes a projection and a dictionary
    variable a term variable with a reserved prefix. Translation is
    structural, so each result is memoized by the identity of its node,
    which its entry keeps alive, as `FdChecker.translate` does.
    """

    def __init__(self, TC, P, bodies):
        self.classes = {entry.cls: entry for entry in TC}
        self.instances = {e.con: (e, body) for e, body in zip(P, bodies)}
        self._memo: dict = {}       # id(node) -> (node, translation)

    def __call__(self, node):
        hit = self._memo.get(id(node))
        if hit is None:
            hit = self._memo[id(node)] = (node, self._translate(node))
        return hit[1]

    def dict_var(self, dv: str) -> TgtExpr:
        return TVar(dict_target_name(dv))

    def _translate(self, node):
        tr = self
        match node:     # the most frequent nodes first
            case IDLam(dv, q, body):
                return TLam(dict_target_name(dv), tr(q), tr(body))
            case IDApp(f, a) | IApp(f, a):
                return TApp(tr(f), tr(a))
            case ILet(x, ty, bound, body):
                return TLet(x, tr(ty), tr(bound), tr(body))
            case ILam(x, ty, body):
                return TLam(x, tr(ty), tr(body))
            case IVar(x):
                return TVar(x)
            case ITrue():
                return TTrue()
            case IFalse():
                return TFalse()
            case ITyLam(a, body):
                return TTyLam(a, tr(body))
            case ITyApp(f, ty):
                return TTyApp(tr(f), tr(ty))
            case IMethod(d, m):
                return TProj(tr(d), m)
            case DVar(dv):
                return self.dict_var(dv)
            case DCon(con, types, dicts):
                entry, body = self.instances[con]
                sc = entry.fd_scheme
                field = self._abstract(entry.meth_binders, entry.meth_dvars,
                                       entry.meth_qtys, tr(body))
                out = self._abstract(sc.binders, entry.ctx_dvars, sc.context,
                                     TRecord(((entry.method, field),)))
                for ty in types:
                    out = TTyApp(out, tr(ty))
                for d in dicts:
                    out = TApp(out, tr(d))
                return out
            case IBool():
                return TBool()
            case ITyVar(a):
                return TTyVar(a)
            case IArrow(l, r) | IQArrow(l, r):
                return TArrow(tr(l), tr(r))
            case IForall(a, body):
                return TForall(a, tr(body))
            case FdQ(cls, arg):
                # The record type of the class's method at arg.
                c = self.classes[cls]
                return TRecordTy(((c.method, subst_type(
                    tr(c.method_type), {c.var: tr(arg)})),))
            case IChoice(alts):
                return TChoice(tuple(map(tr, alts)))
        raise TypeError(node)

    def _abstract(self, binders, dvars, qtys, body: TgtExpr) -> TgtExpr:
        for dv, qty in zip(reversed(dvars), reversed(qtys)):
            body = TLam(dict_target_name(dv), self(qty), body)
        for a in reversed(binders):
            body = TTyLam(a, body)
        return body


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------

class MethodEnv(tuple):
    """A method environment Σ of a typed program: the tuple of its entries,
    one per instance of P, from the instance bodies it picks, over the
    class environment TC. It iterates, slices, compares and hashes as that
    tuple. What is derived from Σ is a function of Σ and TC alone, so Σ
    keeps it for as long as it lives: its direct translator, and what
    `derived` builds, such as its `fd_env_wf`-validated checker and the
    state its streams of terms share (see `harness`). A copy or a pickle
    is rebuilt without any of it."""

    def __new__(cls, TC, P, bodies):
        sigma = super().__new__(cls, map(_method_impl, P, bodies))
        sigma.TC, sigma.P, sigma.bodies = TC, P, bodies
        sigma._kept = {}
        return sigma

    def __reduce__(self):
        return MethodEnv, (self.TC, self.P, self.bodies)

    def derived(self, build):
        """build(Σ, TC), built at the first call with build and kept."""
        if build not in self._kept:
            self._kept[build] = build(self, self.TC)
        return self._kept[build]

    direct = functools.cached_property(
        lambda self: DirectTranslator(self.TC, self.P, self.bodies))


@frozen
class Declarations:
    """A program's typed classes and instances, the class environment TC,
    and its method environments (`MethodEnv`), whose state every result
    typed against them shares."""
    GC: tuple
    P: tuple
    TC: tuple
    variants: tuple
    truncated: bool
    limits: Limits


@frozen
class ProgramResult:
    """A main expression typed against its declarations.

    Its forest is a function of decls and main, and a DAG whose shared
    subforests a walk as a tree would visit once per path, so it takes no
    part in `==`, hash or `repr`."""
    main_type: SrcMono
    main: SrcExpr       # as given: a method name is an SVar
    decls: Declarations
    forest: FdExpr      # every elaboration of main, packed
    count: int          # elaborations of main under one Σ, capped
    fd_truncated: bool
    _derived = ("forest",)

    GC = property(lambda self: self.decls.GC)
    P = property(lambda self: self.decls.P)
    fd_class_env = property(lambda self: self.decls.TC)
    tgt_truncated = property(lambda self: self.fd_truncated)

    @functools.cached_property
    def variants_read(self) -> tuple:
        """(Σ, n) for each method environment that the cap reaches, in
        order: the pairs of fd_elabs are the first n elaborations of main
        under each Σ."""
        out, left = [], self.decls.limits.max_elaborations
        for sigma in self.decls.variants:
            n = min(self.count, left)
            if n <= 0:
                break
            out.append((sigma, n))
            left -= n
        return tuple(out)

    @functools.cached_property
    def elaborations(self) -> S.Unpacked:
        """The elaborations of main, the same for every Σ: count of them,
        unpacked from the forest at the first read of one."""
        forest, n = self.forest, self.count
        return S.Unpacked(n, lambda: S.unpack(forest, n))

    @functools.cached_property
    def fd_elabs(self) -> S.Unpacked:
        """(method environment, main elaboration) pairs, variant-major:
        counted off variants_read, built from elaborations at the first
        read of one."""
        elabs, reads = self.elaborations, self.variants_read
        return S.Unpacked(sum(n for _, n in reads), lambda: [
            (sigma, ie) for sigma, n in reads for ie in elabs[:n]])

    @functools.cached_property
    def tgt_elabs(self) -> S.Unpacked:
        """The direct target of each pair of fd_elabs: the forest,
        translated once per Σ here, unpacked at the first read of one."""
        parts = [(sigma.direct(self.forest), n)
                 for sigma, n in self.variants_read]
        return S.Unpacked(len(self.fd_elabs), lambda: [
            te for forest, n in parts for te in S.unpack(forest, n)])


def typecheck_declarations(decls, limits: Limits = Limits()) -> Declarations:
    GC: tuple = ()
    P: tuple = ()
    for d in decls:
        if isinstance(d, ClassDecl):
            GC = GC + (typecheck_class(GC, d),)
        else:
            P = P + (typecheck_instance(P, GC, d, limits),)
    # Method environments differ only in their choice of instance bodies.
    count, truncated = _cap(math.prod(len(e.body_fd) for e in P), limits,
                            any(e.truncated for e in P))
    choices = itertools.product(*(e.body_fd for e in P))
    TC = elab_class_env(GC)
    variants = tuple(MethodEnv(TC, P, bodies)
                     for bodies in itertools.islice(choices, count))
    return Declarations(GC, P, TC, variants, truncated, limits)


def typecheck_main(decls: Declarations, main: SrcExpr) -> ProgramResult:
    main_type, forest, n, t = infer(decls.P, decls.GC, (), main, decls.limits)
    _, truncated = _cap(len(decls.variants) * n, decls.limits,
                        t | decls.truncated)
    return ProgramResult(main_type, main, decls, forest, n, truncated)


def typecheck_program(p: SrcProgram, limits: Limits = Limits()) -> ProgramResult:
    return typecheck_main(typecheck_declarations(p.decls, limits), p.main)
