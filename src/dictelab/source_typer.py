"""Typing and elaboration of the surface language.

All judgments of the surface language live here: superclass closure,
unambiguity, constraint entailment, bidirectional term typing,
class/instance/program typing and environment elaboration. Matching an
instance head or a scheme against a type is `syntax.unify` with the
pattern's binders renamed apart from the type.

The elaborating judgments `infer`, `check` and `entail` run once per
program and emit the intermediate language, whose dictionaries are
first-order and binder-free: an elaboration is its resolution derivation.
A method environment Σ fixes one body per instance for the whole program.
Under Σ, each derivation is translated to the target twice: through the
intermediate language (`fd_core.FdChecker`) and directly here
(`DirectTranslator`, which shares no code with `fd_core`), so the
decomposition check in the harness stays a genuine cross-check.

Typing is type-deterministic; only the elaboration is nondeterministic.
Enumeration order is fixed: local dictionary bindings in environment order
before global instances in declaration order, context constraints resolved
left to right, Cartesian products in that order. Every enumeration is lazy
and pulls at most one alternative past `max_elaborations`, so the cap
bounds the work, not only the output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    ClassDecl, DictBind, InstDecl, SrcConstraint, SrcConstraintScheme,
    SrcExpr, SrcMono, SrcProgram, SrcScheme, TermBind, TyVarBind,
    SAnn, SApp, SArrow, SBool, SFalse, SHole, SLam, SLet, SMeth, STrue,
    STyVar, SVar,
    FdConstraintScheme, FdClassEntry, FdQ, FdType, MethodImpl,
    DCon, DVar, IApp, IArrow, IBool, IDApp, IDLam, IForall, ILam, ILet,
    IMethod, IQArrow, ITrue, IFalse, ITyApp, ITyLam, ITyVar, IVar, FdExpr,
    TApp, TArrow, TBool, TFalse, TForall, TLam, TLet, TProj, TRecord,
    TRecordTy, TTrue, TTyApp, TTyLam, TTyVar, TVar, TgtExpr,
    dict_target_name, env_tyvars, free_type_vars, rename_apart, subst_type,
)
from . import syntax as S


class SrcTypeError(Exception):
    """A rejected program. Kind "resource" marks a constraint left
    unresolved only because the depth or elaboration cap cut its search."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Limits:
    max_depth: int = 32
    max_elaborations: int = 256


@dataclass(frozen=True)
class ClassEntry:
    method: str
    superclasses: tuple[str, ...]
    cls: str
    var: str
    scheme: SrcScheme


@dataclass(frozen=True)
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


def env_dicts(env) -> list[DictBind]:
    return [b for b in env if isinstance(b, DictBind)]


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
    match t:
        case SBool():
            return IBool()
        case STyVar(a):
            if a not in tyvars:
                raise SrcTypeError("unbound", f"unbound type variable {a!r}")
            return ITyVar(a)
        case SArrow(l, r):
            return IArrow(elab_mono(tyvars, l), elab_mono(tyvars, r))
    raise TypeError(t)


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

def _cap(items, limits: Limits, truncated: bool = False):
    """The first max_elaborations items of an iterable and whether the
    enumeration was cut; pulls at most one item more than it keeps."""
    out = list(itertools.islice(items, limits.max_elaborations + 1))
    if len(out) > limits.max_elaborations:
        return out[:limits.max_elaborations], True
    return out, truncated


def _unresolved(truncated: bool, message: str) -> SrcTypeError:
    """The error for an empty resolution: a resource error when a cap cut
    the search, since a larger cap might find one."""
    if truncated:
        return SrcTypeError("resource",
                            f"{message} (resolution limit reached)")
    return SrcTypeError("unsatisfiable", message)


def _dedup(items):
    """items without repeats, in order. Dictionaries have no binders, so
    `==` is alpha-equivalence on them."""
    seen = set()
    for x in items:
        if x not in seen:
            seen.add(x)
            yield x


def _instance_matches(P, q: SrcConstraint):
    """Instances whose head matches q, with the matched types per binder."""
    for entry in P:
        sc = entry.scheme
        if sc.head.cls != q.cls:
            continue
        renaming = rename_apart(sc.binders, set(free_type_vars(q.arg)))
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


def entail(P, env, q: SrcConstraint, limits: Limits, depth: int = 0):
    """All resolutions of q as dictionaries, in DFS order."""
    if depth >= limits.max_depth:
        return [], True
    truncated = False

    def resolutions():
        nonlocal truncated
        for bind in env_dicts(env):
            if bind.q == q:
                yield DVar(bind.name)
        tyvars = env_tyvars(env) | set(free_type_vars(q.arg))
        for entry, type_args, ctx in _instance_matches(P, q):
            arg_lists, t = _entail_all(P, env, ctx, limits, depth + 1)
            types = tuple(elab_mono(tyvars, ty) for ty in type_args)
            truncated |= t
            for ds in arg_lists:
                yield DCon(entry.con, types, tuple(ds))

    out, cut = _cap(_dedup(resolutions()), limits)
    return out, cut or truncated


def _entail_all(P, env, qs, limits, depth):
    """Resolve a constraint list left to right; Cartesian product."""
    lists = []
    truncated = False
    for q in qs:
        alts, t = entail(P, env, q, limits, depth)
        truncated |= t
        if not alts:
            return [], truncated
        lists.append(alts)
    return _cap(itertools.product(*lists), limits, truncated)


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
    """Returns (type, elaborations, truncated)."""
    match e:
        case STrue():
            return SBool(), [ITrue()], False
        case SFalse():
            return SBool(), [IFalse()], False
        case SApp(f, a):
            fty, falts, t1 = infer(P, GC, env, f, limits)
            if not isinstance(fty, SArrow):
                raise SrcTypeError(
                    "mismatch",
                    f"applied a non-function of type {S.pretty(fty)}")
            aalts, t2 = check(P, GC, env, a, fty.left, limits)
            alts, trunc = _cap(
                itertools.starmap(IApp, itertools.product(falts, aalts)),
                limits, t1 | t2)
            return fty.right, alts, trunc
        case SAnn(inner, ty):
            elab_mono(env_tyvars(env), ty)  # well-formedness
            alts, t = check(P, GC, env, inner, ty, limits)
            return ty, alts, t
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
            balts, t1 = check(P, GC, env1, bound, sch.head, limits)
            closed_scheme = SrcScheme(sch.binders, closed, sch.head)
            env2 = tuple(env) + (TermBind(x, closed_scheme),)
            bty, alts2, t2 = infer(P, GC, env2, body, limits)
            bound_ty = elab_type(GC, env, closed_scheme)
            qtys = [elab_constraint(GC, env_tyvars(env1), q) for q in closed]
            wrapped = [_abstract(sch.binders, dvars, qtys, e1)
                       for e1 in balts]
            out, trunc = _cap(
                (ILet(x, bound_ty, e1, e2)
                 for e1, e2 in itertools.product(wrapped, alts2)),
                limits, t1 | t2)
            return bty, out, trunc
        case SVar(name) | SMeth(name):
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
    """Returns (elaborations, truncated)."""
    match e:
        case SVar(name):
            sch = _freshen_scheme(lookup_term(env, name),
                                  set(free_type_vars(ty)))
            sigma = S.unify(sch.head, ty, set(sch.binders))
            if sigma is None:
                raise SrcTypeError(
                    "mismatch",
                    f"{name!r} cannot be used at type {S.pretty(ty)}")
            arg_lists, truncated = _entail_all(
                P, env, [subst_type(q, sigma) for q in sch.context], limits, 0)
            if not arg_lists:
                raise _unresolved(
                    truncated,
                    f"cannot satisfy the constraints of {name!r} at "
                    f"{S.pretty(ty)}")
            tyvars = env_tyvars(env) | set(free_type_vars(ty))
            types = [elab_mono(tyvars, sigma[a]) for a in sch.binders]
            return ([_instantiate(IVar(name), types, ds)
                     for ds in arg_lists], truncated)
        case SMeth(name):
            entry = lookup_method(GC, name)
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
            d_alts, t0 = entail(P, env, class_q, limits)
            if not d_alts:
                raise _unresolved(
                    t0, f"cannot resolve {S.pretty(class_q)} for method "
                        f"{name!r}")
            arg_lists, t1 = _entail_all(
                P, env, [subst_type(q, sigma) for q in full.context], limits, 0)
            if not arg_lists:
                raise _unresolved(
                    t1, f"cannot satisfy the constraints of method {name!r}")
            tyvars = env_tyvars(env) | set(free_type_vars(ty))
            types = [elab_mono(tyvars, sigma[a]) for a in meth_binders]
            return _cap((_instantiate(IMethod(d, name), types, ds)
                         for d in d_alts for ds in arg_lists),
                        limits, t0 | t1)
        case SLam(x, body):
            _check_no_method_shadow(GC, x)
            if not isinstance(ty, SArrow):
                raise SrcTypeError(
                    "mismatch",
                    f"lambda checked against non-function type {S.pretty(ty)}")
            env1 = tuple(env) + (TermBind(x, SrcScheme((), (), ty.left)),)
            alts, truncated = check(P, GC, env1, body, ty.right, limits)
            arg_ty = elab_mono(env_tyvars(env), ty.left)
            return [ILam(x, arg_ty, e1) for e1 in alts], truncated
        case _:
            ity, alts, truncated = infer(P, GC, env, e, limits)
            if ity != ty:
                raise SrcTypeError(
                    "mismatch",
                    f"inferred {S.pretty(ity)} but expected {S.pretty(ty)}")
            return alts, truncated


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

def resolve_names(GC, e: SrcExpr) -> SrcExpr:
    """Reclassify free variables naming declared methods as method
    references."""
    return S.subst(e, "sv", {entry.method: SMeth(entry.method)
                             for entry in GC})


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
        alts, truncated = entail(P, local_env, SrcConstraint(sup, d.head),
                                 limits)
        if not alts:
            raise _unresolved(
                truncated,
                f"superclass {sup!r} of {d.cls!r} is not derivable at "
                f"{S.pretty(d.head)}")
    body = resolve_names(GC, d.body)
    body_fd, truncated = check(P, GC, local_env, body, meth_head, limits)
    if not body_fd:
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
                     body_fd=tuple(body_fd), truncated=truncated)


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
    and the entry keeps the node alive.
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

@dataclass(frozen=True)
class ProgramResult:
    main_type: SrcMono
    GC: tuple
    P: tuple
    # (method environment variant, main elaboration) pairs, variant-major.
    fd_elabs: tuple
    fd_class_env: tuple
    fd_truncated: bool
    # The direct target translation of each pair of fd_elabs, in order.
    tgt_elabs: tuple

    @property
    def tgt_truncated(self) -> bool:
        return self.fd_truncated


def typecheck_program(p: SrcProgram, limits: Limits = Limits()) -> ProgramResult:
    GC: tuple = ()
    P: tuple = ()
    for d in p.decls:
        if isinstance(d, ClassDecl):
            GC = GC + (typecheck_class(GC, d),)
        else:
            P = P + (typecheck_instance(P, GC, d, limits),)
    main = resolve_names(GC, p.main)
    main_type, fd_main, t_fd = infer(P, GC, (), main, limits)
    TC = elab_class_env(GC)
    # Method environments differ only in their choice of instance bodies.
    choices, t_env = _cap(itertools.product(*(e.body_fd for e in P)),
                          limits, any(e.truncated for e in P))

    def elaborations():
        for bodies in choices:
            sigma = tuple(map(_method_impl, P, bodies))
            direct = DirectTranslator(TC, P, bodies)
            for ie in fd_main:
                yield (sigma, ie), direct(ie)

    pairs, truncated = _cap(elaborations(), limits, t_fd | t_env)
    return ProgramResult(
        main_type=main_type, GC=GC, P=P,
        fd_elabs=tuple(pair for pair, _ in pairs), fd_class_env=TC,
        fd_truncated=truncated, tgt_elabs=tuple(te for _, te in pairs))
