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
what is derived from it, each built as build(Σ, TC) (`MethodEnv.derived`).
The typer's output holds derivations only; `harness` translates them
under Σ directly (`DirectTranslator`, Σ's own, derived like its checker,
and sharing no code with `fd_core`) and through the intermediate
language (`fd_core.FdChecker`, which types them, then translates them), so
decomposition stays a cross-check.

Every per-node walk finds its rule by the node's exact class, never by
`match`: `infer`, `check` and `_elab_mono`, which recurse through
themselves, test `type(x) is C` in a chain (`check` tries the method rule
before the variable rule, and gives every other expression to `infer`),
and the direct translation looks its rule up in
`DirectTranslator._TRANSLATIONS`.

Typing is type-deterministic; only the elaboration is nondeterministic.
The elaborating judgments return one packed forest of derivations (see
`syntax.unpack`), and nothing else: an `IChoice` stands wherever
resolution has alternatives, local dictionary bindings in environment
order before global instances in declaration order, and a node whose
children hold choices stands for their Cartesian product, constraints
resolved left to right. Resolution is total: an instance is admitted only
if every constraint of its context is below its head in (type size, class
rank) (`_check_termination`), so no depth bounds the search, and a
judgment resolves each constraint once. A forest therefore holds every
elaboration. A typed program reads the number of its trees off each root
forest (`syntax.tree_count`), unpacks at most a cap of them, an `int`
whose one default is `MAX_ELABORATIONS`, and only when one is read
(`syntax.Unpacked`): its elaborations under each Σ (`fd_elabs`), and
their direct targets (`tgt_elabs`), for which the forest is translated
once per Σ, by Σ's own translator, at that first read.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

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
    """A rejected program. Kind "undecidable" marks an instance whose
    resolution might not terminate (`_check_termination`)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# The default cap: how many elaborations a typed program reads.
MAX_ELABORATIONS = 256


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


def unambiguous(binders, head) -> bool:
    """Whether every binder of a scheme occurs in its head."""
    head_fvs = set(free_type_vars(head))
    return all(b in head_fvs for b in binders)


# ---------------------------------------------------------------------------
# Type elaboration
# ---------------------------------------------------------------------------

def elab_mono(tyvars: set[str], t: SrcMono) -> FdType:
    """The intermediate type of t, whose free type variables must be in
    tyvars: the first that is not is reported, in reading order. Each
    subtree t shares is translated once per node, for the node's life
    (`_elab`; without it, perfbench flex `wall_s` +6.9%, wide +16%)."""
    for _, a in t._fv:
        if a not in tyvars:
            raise SrcTypeError("unbound", f"unbound type variable {a!r}")
    return _elab_mono(t)


def _elab_mono(t: SrcMono) -> FdType:
    out = getattr(t, "_elab", None)
    if out is None:
        kind = type(t)
        if kind is SBool:
            out = IBool()
        elif kind is STyVar:
            out = ITyVar(t.name)
        elif kind is SArrow:
            out = IArrow(_elab_mono(t.left), _elab_mono(t.right))
        else:
            raise TypeError(t)
        object.__setattr__(t, "_elab", out)
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

_UNRESOLVED = IChoice(())     # the forest of a constraint without resolutions


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


def entail(P, env, q: SrcConstraint, memo=None):
    """The resolutions of q as one dictionary forest; `_UNRESOLVED` if
    there are none. memo holds the resolutions already made in env: a
    constraint met again is resolved once. Every instance step makes the
    constraint smaller (`_check_termination`), so none is met again while
    it is being resolved."""
    memo = {} if memo is None else memo
    if q not in memo:
        memo[q] = None
        memo[q] = _resolve(P, env, q, memo)
    assert memo[q] is not None, f"{S.pretty(q)} met again in its resolution"
    return memo[q]


def _resolve(P, env, q, memo):
    alts = []
    for bind in env:
        # A shadowed binding gives the same derivation as its shadow.
        if isinstance(bind, DictBind) and bind.q == q:
            d = DVar(bind.name)
            if d not in alts:
                alts.append(d)
    q_vars = set(free_type_vars(q.arg))
    tyvars = env_tyvars(env) | q_vars
    for entry, type_args, ctx in _instance_matches(P, q, q_vars):
        args = _entail_all(P, env, ctx, memo)
        if args is not None:
            types = tuple(elab_mono(tyvars, ty) for ty in type_args)
            alts.append(DCon(entry.con, types, args))
    if len(alts) == 1:
        return alts[0]
    return IChoice(tuple(alts)) if alts else _UNRESOLVED


def _entail_all(P, env, qs, memo):
    """Resolve a constraint list left to right: one dictionary forest per
    constraint, or None if one of them has no resolution."""
    forests = []
    for q in qs:
        d = entail(P, env, q, memo)
        if d is _UNRESOLVED:
            return None
        forests.append(d)
    return tuple(forests)


# ---------------------------------------------------------------------------
# Bidirectional term typing with elaboration
# ---------------------------------------------------------------------------

def _check_no_method_shadow(GC, name: str):
    if lookup_method(GC, name) is not None:
        raise SrcTypeError(
            "shadow", f"{name!r} is a class method and cannot be rebound")


def _let_dict_vars(name: str, qs) -> tuple[str, ...]:
    return tuple(f"δ{name}{i}" for i in range(1, len(qs) + 1))


def infer(P, GC, env, e: SrcExpr):
    """Returns (type, elaboration forest)."""
    kind = type(e)
    if kind is STrue:
        return SBool(), ITrue()
    if kind is SFalse:
        return SBool(), IFalse()
    if kind is SApp:
        # The spine in a loop, its head first and then each argument from
        # the innermost, as a recursion on the function would.
        args = []
        while type(e) is SApp:
            args.append(e.arg)
            e = e.fun
        fty, forest = infer(P, GC, env, e)
        for a in reversed(args):
            if not isinstance(fty, SArrow):
                raise SrcTypeError(
                    "mismatch",
                    f"applied a non-function of type {S.pretty(fty)}")
            forest = IApp(forest, check(P, GC, env, a, fty.left))
            fty = fty.right
        return fty, forest
    if kind is SAnn:
        ty = e.ty
        elab_mono(env_tyvars(env), ty)  # well-formedness
        return ty, check(P, GC, env, e.expr, ty)
    if kind is SLet:
        x, sch = e.name, e.scheme
        _check_no_method_shadow(GC, x)
        if not unambiguous(sch.binders, sch.head):
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
        fb = check(P, GC, env1, e.bound, sch.head)
        closed_scheme = SrcScheme(sch.binders, closed, sch.head)
        env2 = tuple(env) + (TermBind(x, closed_scheme),)
        bty, fbody = infer(P, GC, env2, e.body)
        bound_ty = elab_type(GC, env, closed_scheme)
        qtys = [elab_constraint(GC, env_tyvars(env1), q) for q in closed]
        return bty, ILet(x, bound_ty,
                         _abstract(sch.binders, dvars, qtys, fb), fbody)
    if kind is SVar:
        raise SrcTypeError(
            "not-inferable",
            f"head {e.name!r} not inferable - annotate its use")
    if kind is SLam:
        raise SrcTypeError(
            "not-inferable", "cannot infer a lambda - annotate it")
    if kind is SHole:
        raise SrcTypeError("not-inferable", "hole outside a context file")
    raise TypeError(e)


def check(P, GC, env, e: SrcExpr, ty: SrcMono):
    """Returns the elaboration forest."""
    kind = type(e)
    if kind is SVar:
        name = e.name
        entry = lookup_method(GC, name)
        if entry is not None:
            # A method name is never rebound (_check_no_method_shadow), and
            # its scheme is unambiguous (typecheck_class).
            full = SrcScheme((entry.var,) + entry.scheme.binders,
                             entry.scheme.context, entry.scheme.head)
            full = _freshen_scheme(full, set(free_type_vars(ty)))
            class_var, meth_binders = full.binders[0], full.binders[1:]
            sigma = S.unify(full.head, ty, set(full.binders))
            if sigma is None:
                raise SrcTypeError(
                    "mismatch",
                    f"method {name!r} cannot be used at type {S.pretty(ty)}")
            class_q = SrcConstraint(entry.cls, sigma[class_var])
            memo = {}
            d = entail(P, env, class_q, memo)
            if d is _UNRESOLVED:
                raise SrcTypeError(
                    "unsatisfiable", f"cannot resolve {S.pretty(class_q)} "
                                     f"for method {name!r}")
            args = _entail_all(
                P, env, [subst_type(q, sigma) for q in full.context], memo)
            if args is None:
                raise SrcTypeError(
                    "unsatisfiable",
                    f"cannot satisfy the constraints of method {name!r}")
            tyvars = env_tyvars(env) | set(free_type_vars(ty))
            types = [elab_mono(tyvars, sigma[a]) for a in meth_binders]
            return _instantiate(IMethod(d, name), types, args)
        sch = _freshen_scheme(lookup_term(env, name), set(free_type_vars(ty)))
        sigma = S.unify(sch.head, ty, set(sch.binders))
        if sigma is None:
            raise SrcTypeError(
                "mismatch", f"{name!r} cannot be used at type {S.pretty(ty)}")
        args = _entail_all(
            P, env, [subst_type(q, sigma) for q in sch.context], {})
        if args is None:
            raise SrcTypeError(
                "unsatisfiable", f"cannot satisfy the constraints of "
                                 f"{name!r} at {S.pretty(ty)}")
        tyvars = env_tyvars(env) | set(free_type_vars(ty))
        types = [elab_mono(tyvars, sigma[a]) for a in sch.binders]
        return _instantiate(IVar(name), types, args)
    if kind is SLam:
        x = e.param
        _check_no_method_shadow(GC, x)
        if not isinstance(ty, SArrow):
            raise SrcTypeError(
                "mismatch",
                f"lambda checked against non-function type {S.pretty(ty)}")
        env1 = tuple(env) + (TermBind(x, SrcScheme((), (), ty.left)),)
        fb = check(P, GC, env1, e.body, ty.right)
        return ILam(x, elab_mono(env_tyvars(env), ty.left), fb)
    ity, forest = infer(P, GC, env, e)
    if ity != ty:
        raise SrcTypeError(
            "mismatch",
            f"inferred {S.pretty(ity)} but expected {S.pretty(ty)}")
    return forest


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


def _measure(t: SrcMono) -> Counter:
    """The nodes of t, counted under None, and the uses of each of its type
    variables, counted under its name."""
    labels, todo = [], [t]
    while todo:
        t = todo.pop()
        labels.append(None)
        if type(t) is SArrow:
            todo += t.left, t.right
        elif type(t) is STyVar:
            labels.append(t.name)
    return Counter(labels)


def _check_termination(GC, con: str, closed, head_q: SrcConstraint):
    """Reject an instance whose resolution might not terminate. Each
    constraint D t' of its closed context must be no larger than its head
    C t, use no type variable more often, and, where the sizes are equal,
    D must be declared before C. A substitution keeps these comparisons,
    so every instance step lowers (type size, class rank)."""
    rank = {entry.cls: i for i, entry in enumerate(GC)}
    head = _measure(head_q.arg)
    for q in closed:
        m = _measure(q.arg)
        if not (m <= head and (m[None] < head[None]
                               or rank[q.cls] < rank[head_q.cls])):
            raise SrcTypeError(
                "undecidable",
                f"instance {con!r} may not terminate: its context "
                f"constraint {S.pretty(q)} is not smaller than its head "
                f"{S.pretty(head_q)}")


def _read(forest, cap: int):
    """How many trees of forest a typed program reads, at most cap, and
    whether forest has more."""
    total = S.tree_count(forest)
    return min(total, cap), total > cap


def typecheck_instance(P, GC, d: InstDecl, cap: int) -> InstEntry:
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
    _check_termination(GC, con, closed, head_q)
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
        if entail(P, local_env, SrcConstraint(sup, d.head)) is _UNRESOLVED:
            raise SrcTypeError(
                "unsatisfiable", f"superclass {sup!r} of {d.cls!r} is not "
                                 f"derivable at {S.pretty(d.head)}")
    forest = check(P, GC, local_env, d.body, meth_head)
    n, truncated = _read(forest, cap)
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
    method environment Σ (a `MethodEnv`, whose instance bodies it reads)
    over the class environment TC.

    A dictionary becomes its instance's record, built from the typed
    declaration; a method call becomes a projection and a dictionary
    variable a term variable with a reserved prefix. Translation is
    structural, so each result is memoized by the identity of its node,
    which its entry keeps alive, as `FdChecker.translate` does. A node
    is translated by the rule of its class (`_TRANSLATIONS`), looked up
    inside the memo entry (`__call__`), so a nesting level costs two
    frames, this one and the rule's, and deep input keeps its limit.
    """

    def __init__(self, sigma, TC):
        self.classes = {entry.cls: entry for entry in TC}
        self.instances = {e.con: (e, body)
                          for e, body in zip(sigma.P, sigma.bodies)}
        self._memo: dict = {}       # id(node) -> (node, translation)

    def __call__(self, node):
        hit = self._memo.get(id(node))
        if hit is None:
            rule = self._TRANSLATIONS.get(type(node))
            if rule is None:
                raise TypeError(node)
            hit = self._memo[id(node)] = (node, rule(self, node))
        return hit[1]

    def dict_var(self, dv: str) -> TgtExpr:
        return TVar(dict_target_name(dv))

    def _dlam(self, node: IDLam) -> TgtExpr:
        return TLam(dict_target_name(node.param), self(node.q),
                    self(node.body))

    def _app(self, node: IDApp | IApp) -> TgtExpr:
        return TApp(self(node.fun), self(node.arg))

    def _let(self, node: ILet) -> TgtExpr:
        return TLet(node.name, self(node.ty), self(node.bound),
                    self(node.body))

    def _lam(self, node: ILam) -> TgtExpr:
        return TLam(node.param, self(node.ty), self(node.body))

    def _var(self, node: IVar) -> TgtExpr:
        return TVar(node.name)

    def _true(self, _node) -> TgtExpr:
        return TTrue()

    def _false(self, _node) -> TgtExpr:
        return TFalse()

    def _tylam(self, node: ITyLam) -> TgtExpr:
        return TTyLam(node.param, self(node.body))

    def _tyapp(self, node: ITyApp) -> TgtExpr:
        return TTyApp(self(node.fun), self(node.ty))

    def _method(self, node: IMethod) -> TgtExpr:
        return TProj(self(node.dict), node.method)

    def _dvar(self, node: DVar) -> TgtExpr:
        return self.dict_var(node.name)

    def _dcon(self, node: DCon) -> TgtExpr:
        entry, body = self.instances[node.name]
        sc = entry.fd_scheme
        field = self._abstract(entry.meth_binders, entry.meth_dvars,
                               entry.meth_qtys, self(body))
        out = self._abstract(sc.binders, entry.ctx_dvars, sc.context,
                             TRecord(((entry.method, field),)))
        for ty in node.type_args:
            out = TTyApp(out, self(ty))
        for d in node.dict_args:
            out = TApp(out, self(d))
        return out

    def _bool(self, _node) -> TgtType:
        return TBool()

    def _tyvar(self, node: ITyVar) -> TgtType:
        return TTyVar(node.name)

    def _arrow(self, node: IArrow) -> TgtType:
        return TArrow(self(node.left), self(node.right))

    def _qarrow(self, node: IQArrow) -> TgtType:
        return TArrow(self(node.q), self(node.result))

    def _forall(self, node: IForall) -> TgtType:
        return TForall(node.var, self(node.body))

    def _constraint(self, node: FdQ) -> TgtType:
        # The record type of the class's method at the argument.
        c = self.classes[node.cls]
        return TRecordTy(((c.method, subst_type(
            self(c.method_type), {c.var: self(node.arg)})),))

    def _choice(self, node: IChoice) -> TgtExpr:
        return TChoice(tuple(map(self, node.alts)))

    # The target of each class of node, found by one lookup.
    _TRANSLATIONS = {
        IDLam: _dlam, IDApp: _app, IApp: _app, ILet: _let, ILam: _lam,
        IVar: _var, ITrue: _true, IFalse: _false, ITyLam: _tylam,
        ITyApp: _tyapp, IMethod: _method, DVar: _dvar, DCon: _dcon,
        IBool: _bool, ITyVar: _tyvar, IArrow: _arrow, IQArrow: _qarrow,
        IForall: _forall, FdQ: _constraint, IChoice: _choice}

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
    keeps what `derived` builds for as long as it lives: its direct
    translator, its one checker (`fd_env_wf`), which types the reports'
    forests and every stream's terms, and its term generator's state
    (see `harness`). A copy or a pickle is rebuilt without any of it."""

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
    cap: int


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
        out, left = [], self.decls.cap
        for sigma in self.decls.variants:
            n = min(self.count, left)
            if n <= 0:
                break
            out.append((sigma, n))
            left -= n
        return tuple(out)

    @functools.cached_property
    def fd_elabs(self) -> S.Unpacked:
        """(method environment, main elaboration) pairs, variant-major:
        counted off variants_read; at the first read of one, the forest
        unpacked once, its trees the same for every Σ."""
        forest, n, reads = self.forest, self.count, self.variants_read

        def build():
            elabs = S.unpack(forest, n)
            return [(sigma, ie) for sigma, k in reads for ie in elabs[:k]]
        return S.Unpacked(sum(k for _, k in reads), build)

    @functools.cached_property
    def tgt_elabs(self) -> S.Unpacked:
        """The direct target of each pair of fd_elabs, counted off it: at
        the first read of one, the forest translated once per Σ, by Σ's
        own translator, and unpacked."""
        forest, reads = self.forest, self.variants_read
        return S.Unpacked(len(self.fd_elabs), lambda: [
            te for sigma, n in reads
            for te in S.unpack(sigma.derived(DirectTranslator)(forest), n)])


def typecheck_declarations(decls, cap: int = MAX_ELABORATIONS) -> Declarations:
    GC: tuple = ()
    P: tuple = ()
    for d in decls:
        if isinstance(d, ClassDecl):
            GC = GC + (typecheck_class(GC, d),)
        else:
            P = P + (typecheck_instance(P, GC, d, cap),)
    # Method environments differ only in their choice of instance bodies.
    truncated = (math.prod(len(e.body_fd) for e in P) > cap
                 or any(e.truncated for e in P))
    choices = itertools.product(*(e.body_fd for e in P))
    TC = elab_class_env(GC)
    variants = tuple(MethodEnv(TC, P, bodies)
                     for bodies in itertools.islice(choices, cap))
    return Declarations(GC, P, TC, variants, truncated, cap)


def typecheck_main(decls: Declarations, main: SrcExpr) -> ProgramResult:
    main_type, forest = infer(decls.P, decls.GC, (), main)
    n, truncated = _read(forest, decls.cap)
    truncated |= decls.truncated or len(decls.variants) * n > decls.cap
    return ProgramResult(main_type, main, decls, forest, n, truncated)


def typecheck_program(p: SrcProgram,
                      cap: int = MAX_ELABORATIONS) -> ProgramResult:
    return typecheck_main(typecheck_declarations(p.decls, cap), p.main)
