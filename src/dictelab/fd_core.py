"""The intermediate language: System F with first-class dictionaries.

Typing is one judgment (`FdChecker.check_expr` and `check_dict`): it
returns a type and builds nothing else, so walking an evaluation trace
types each step and never translates it. Dictionary constructors are
typed against the strict prefix of the method environment (an instance
may only use instances declared before it), while evaluation of a method
projection uses the full environment.

The composed corner of the commuting square is a second, structural walk
over a typed term (`FdChecker.translate`): each typing rule's
corresponding target term, with a dictionary constructor becoming its
implementation's translation closing over a record. It reads no typing
environment, so one node always gets the same target term, and it
translates a packed forest of derivations (`syntax.unpack`) too: a choice
becomes the choice of its alternatives' translations, which typing has
checked to have one type, and unpacking the result gives the translation
of each derivation, in order. Forests share subforests, and derivations
unpacked from one forest share subtrees, so a checker types each shared
(node, environment) pair once and translates each shared node once,
reusing results by object identity (hash-consing's idea, applied to
results instead of nodes). Types and dictionaries are hash-consed
themselves, so comparing two types is an identity test unless both hold
a binder, and a closed dictionary is typed once per method environment.

Evaluation is call-by-name and metered by fuel: `fd_step` is the
substitution-based small-step semantics, whose traces `check_metatheory`
walks, and `fd_eval` reaches the same value, in the same number of steps,
with an environment machine.
"""

from __future__ import annotations

from .syntax import (
    DCon, DVar, DictBind, FdClassEntry, FdDict, FdExpr, FdQ, FdType,
    IApp, IArrow, IBool, IChoice, IDApp, IDLam, IFalse, IForall, ILam, ILet,
    IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar,
    TApp, TArrow, TBool, TChoice, TForall, TLam, TLet, TProj, TRecord,
    TRecordTy, TTrue, TFalse, TTyApp, TTyLam, TTyVar, TVar, TgtExpr, TgtType,
    TermBind, TyVarBind,
    alpha_eq, dict_target_name, env_tyvars, rename_apart, subst_fd_dvar,
    subst_fd_var, subst_type,
)
from . import syntax as S


# Error kinds
UNBOUND_VAR = "UnboundVar"
UNBOUND_TYVAR = "UnboundTyVar"
UNBOUND_DICT = "UnboundDict"
UNKNOWN_CONSTRUCTOR = "UnknownConstructor"
UNKNOWN_METHOD = "UnknownMethod"
MISMATCH = "Mismatch"
ARITY_MISMATCH = "ArityMismatch"
OVERLAP = "Overlap"
AMBIGUITY = "Ambiguity"
PREFIX_VIOLATION = "PrefixViolation"
STUCK = "Stuck"


class FdTypeError(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(kind, detail)
        self.kind, self.detail = kind, detail

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class FuelExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# Types: well-formedness and translation to target types
# ---------------------------------------------------------------------------

_NO_TYVARS = frozenset()


def check_fd_type_wf(TC, tyvars: set[str], t: FdType | FdQ, seen=None):
    """Raises FdTypeError at the first ill-formed part of t, a type or a
    dictionary type, in reading order. seen holds the ids of the arrows
    already checked under tyvars in this call: a shared one is checked
    once."""
    match t:
        case IBool():
            pass
        case ITyVar(a):
            if a not in tyvars:
                raise FdTypeError(UNBOUND_TYVAR, f"unbound type variable {a!r}")
        case IArrow(l, r) | IQArrow(l, r):
            if seen is None:
                seen = set()
            elif id(t) in seen:
                return
            check_fd_type_wf(TC, tyvars, l, seen)
            check_fd_type_wf(TC, tyvars, r, seen)
            seen.add(id(t))
        case IForall(a, body):
            check_fd_type_wf(TC, tyvars | {a}, body)
        case FdQ(cls, arg):
            lookup_class_by_name(TC, cls)
            check_fd_type_wf(TC, tyvars, arg, seen)
        case _:
            raise TypeError(t)


def lookup_class_by_name(TC, cls: str) -> FdClassEntry:
    for entry in TC:
        if entry.cls == cls:
            return entry
    raise FdTypeError(UNKNOWN_METHOD, f"unknown class {cls!r}")


def lookup_class_by_method(TC, method: str) -> FdClassEntry:
    for entry in TC:
        if entry.method == method:
            return entry
    raise FdTypeError(UNKNOWN_METHOD, f"unknown method {method!r}")


def elab_fd_type(TC, t: FdType, memo=None) -> TgtType:
    """The target type of t; memo holds the translations made so far in
    this call, so each subtree t shares is translated once."""
    memo = {} if memo is None else memo
    out = memo.get(t)
    if out is None:
        match t:
            case IBool():
                out = TBool()
            case ITyVar(a):
                out = TTyVar(a)
            case IArrow(l, r):
                out = TArrow(elab_fd_type(TC, l, memo),
                             elab_fd_type(TC, r, memo))
            case IQArrow(q, r):
                out = TArrow(elab_fd_q(TC, q), elab_fd_type(TC, r, memo))
            case IForall(a, body):
                out = TForall(a, elab_fd_type(TC, body, memo))
            case _:
                raise TypeError(t)
        memo[t] = out
    return out


def elab_fd_q(TC, q: FdQ) -> TgtType:
    """A dictionary type becomes the single-field record of its method."""
    entry = lookup_class_by_name(TC, q.cls)
    method_tt = elab_fd_type(TC, entry.method_type)
    return TRecordTy(((entry.method,
                       subst_type(method_tt, {entry.var: elab_fd_type(TC, q.arg)})),))


# ---------------------------------------------------------------------------
# Typechecking, and the composed translation of typed terms
# ---------------------------------------------------------------------------

class FdChecker:
    """Typechecker for one fixed method environment, and the composed
    translation of the terms it has typed.

    `check_expr` and `check_dict` are the typing judgment alone: they
    return a type and build no target term. `translate` is the second
    translation step, from a typed term to the target.

    Typing and translation are deterministic, so results are memoized at
    two levels. Types and dictionaries are interned (`syntax.interned`),
    so a memo keyed by them is keyed by identity. Errors are never
    memoized.

    Per Σ, shared by every checker `child` makes, the prefix checkers of
    implementations among them: the constructors whose implementations
    are checked, each against the strict prefix of the environment at
    first use (`_impl_memo`), each constructor's translation (`_records`),
    type translations, by the type (`_elabs`), and the type of each
    method projection, by the method and the dictionary's type
    (`_methods`). All are bounded by the environment and the types it is
    used at.

    Per Σ, shared by every checker `child` makes for the same Σ, but not
    by a prefix checker, against whose shorter environment a dictionary
    may not type: the type of each closed dictionary constructor
    application (`_dicts`). It reads no typing environment, so it is
    typed once per Σ; like `_elabs`, the memo is bounded by the closed
    dictionaries the Σ is used with. A dictionary with a free variable
    is typed at each use.

    Per checker, one per term of a stream: `check_expr`, through which all
    recursion goes, is memoized on the identities of the node and of the
    environment (`_memo`), so a shared subterm is typed once; every
    entry keeps both alive, so an identity is never reused while its entry
    exists. `collect` bounds `_memo` while a trace is walked. A binder
    extends its environment by one binding, and an annotation reads the
    type variables of the environment at hand only if it has a free one
    (`_wf`). The result types of type applications are memoized by the
    polymorphic type and its argument (`_insts`), so a trace instantiates
    each polymorphic type once; these keys are the term's own types, so
    the memo ends with the checker. Translation is structural and reads no
    typing environment, so its results are memoized by the identity of
    the node alone (`_targets`), which keeps the node alive; walking a
    trace translates nothing, so `collect` leaves them.
    """

    def __init__(self, sigma, TC):
        self.sigma = tuple(sigma)
        self.TC = tuple(TC)
        self._impl_memo: set[str] = set()
        self._records: dict[str, TgtExpr] = {}
        self._elabs: dict = {}      # FdType or FdQ -> TgtType
        self._methods: dict = {}    # (method, FdQ) -> FdType
        self._dicts: dict = {}      # closed DCon -> FdQ
        self._insts: dict = {}      # (IForall, FdType) -> FdType
        # (id(node), id(env)) -> (node, env, type), with the entries used
        # before the last collect() in a second generation.
        self._memo: dict = {}
        self._old_memo: dict = {}
        self._targets: dict = {}    # id(node) -> (node, translation)

    def child(self, sigma=None) -> FdChecker:
        """A checker for sigma, by default this one's, that shares this
        checker's per-Σ memos and starts with empty per-term memos. sigma
        must be a prefix of this checker's environment; a checker for a
        sigma given has its own dictionary memo."""
        out = FdChecker(self.sigma if sigma is None else sigma, self.TC)
        out._impl_memo, out._records, out._elabs, out._methods = \
            self._impl_memo, self._records, self._elabs, self._methods
        if sigma is None:
            out._dicts = self._dicts
        return out

    def collect(self):
        """Forget every memo entry not used since the previous collect().

        Walking an evaluation trace, collect after each step: the checker
        then keeps alive what the last two steps share, not every step."""
        self._old_memo, self._memo = self._memo, {}

    def _wf(self, env, t):
        """Raises FdTypeError unless t, a type or dictionary type, is well
        formed under env, whose type variables are read only if t has a
        free one."""
        check_fd_type_wf(self.TC, env_tyvars(env) if t._fv else _NO_TYVARS, t)

    # -- expressions --------------------------------------------------------

    def check_expr(self, env, e: FdExpr) -> FdType:
        key = (id(e), id(env))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._old_memo.pop(key, None)
            if hit is None:
                hit = (e, env, self._infer(env, e))
            self._memo[key] = hit
        return hit[2]

    def _infer(self, env, e: FdExpr) -> FdType:
        match e:
            case ITrue() | IFalse():
                return IBool()
            case IVar(x):
                for bind in reversed(env):
                    if isinstance(bind, TermBind) and bind.name == x:
                        return bind.ty
                raise FdTypeError(UNBOUND_VAR, f"unbound variable {x!r}")
            case ILam(x, ty, body):
                self._wf(env, ty)
                return IArrow(ty, self.check_expr(env + (TermBind(x, ty),),
                                                  body))
            case IApp(f, a):
                fty = self.check_expr(env, f)
                if not isinstance(fty, IArrow):
                    raise FdTypeError(
                        MISMATCH, f"applied a non-function of type {S.pretty(fty)}")
                aty = self.check_expr(env, a)
                if not alpha_eq(aty, fty.left):
                    raise FdTypeError(
                        MISMATCH,
                        f"argument has type {S.pretty(aty)}, "
                        f"expected {S.pretty(fty.left)}")
                return fty.right
            case IDLam(dv, q, body):
                self._wf(env, q)
                return IQArrow(q, self.check_expr(env + (DictBind(dv, q),),
                                                  body))
            case IDApp(f, d):
                fty = self.check_expr(env, f)
                if not isinstance(fty, IQArrow):
                    raise FdTypeError(
                        MISMATCH,
                        f"dictionary applied to non-constrained type "
                        f"{S.pretty(fty)}")
                dq = self.check_dict(env, d)
                if not alpha_eq(dq, fty.q):
                    raise FdTypeError(
                        MISMATCH,
                        f"dictionary has type {S.pretty(dq)}, "
                        f"expected {S.pretty(fty.q)}")
                return fty.result
            case ITyLam(a, body):
                return IForall(a, self.check_expr(env + (TyVarBind(a),),
                                                  body))
            case ITyApp(f, ty):
                fty = self.check_expr(env, f)
                if not isinstance(fty, IForall):
                    raise FdTypeError(
                        MISMATCH,
                        f"type applied to non-polymorphic type {S.pretty(fty)}")
                self._wf(env, ty)
                rty = self._insts.get((fty, ty))
                if rty is None:
                    rty = self._insts[fty, ty] = subst_type(fty.body,
                                                            {fty.var: ty})
                return rty
            case IMethod(d, m):
                dq = self.check_dict(env, d)
                mty = self._methods.get((m, dq))
                if mty is None:
                    entry = lookup_class_by_method(self.TC, m)
                    if entry.cls != dq.cls:
                        raise FdTypeError(
                            UNKNOWN_METHOD,
                            f"dictionary of class {dq.cls!r} has no method "
                            f"{m!r}")
                    mty = self._methods[m, dq] = subst_type(
                        entry.method_type, {entry.var: dq.arg})
                return mty
            case ILet(x, ty, bound, body):
                self._wf(env, ty)
                bty = self.check_expr(env, bound)
                if not alpha_eq(bty, ty):
                    raise FdTypeError(
                        MISMATCH,
                        f"let binding has type {S.pretty(bty)}, "
                        f"annotated {S.pretty(ty)}")
                return self.check_expr(env + (TermBind(x, ty),), body)
            case IChoice(alts) if alts:
                check = self.check_dict if isinstance(alts[0], FdDict) \
                    else self.check_expr
                types = [check(env, alt) for alt in alts]
                ty = types[0]
                for other in types[1:]:
                    if not alpha_eq(other, ty):
                        raise FdTypeError(
                            MISMATCH,
                            f"alternatives of one derivation have types "
                            f"{S.pretty(ty)} and {S.pretty(other)}")
                return ty
        raise TypeError(e)

    # -- dictionaries -------------------------------------------------------

    def check_dict(self, env, d: FdDict) -> FdQ:
        match d:
            case DVar(dv):
                for bind in reversed(env):
                    if isinstance(bind, DictBind) and bind.name == dv:
                        return bind.q
                raise FdTypeError(UNBOUND_DICT,
                                  f"unbound dictionary variable {dv!r}")
            case DCon():
                if d._fv:
                    return self._check_con(env, d)
                q = self._dicts.get(d)
                if q is None:
                    q = self._dicts[d] = self._check_con(env, d)
                return q
            case IChoice():
                return self.check_expr(env, d)
        raise TypeError(d)

    def _check_con(self, env, d: DCon) -> FdQ:
        """The rule for a dictionary constructor applied to types and
        dictionaries."""
        name, type_args, dict_args = d.name, d.type_args, d.dict_args
        index = next((i for i, entry in enumerate(self.sigma)
                      if entry.con == name), None)
        if index is None:
            raise FdTypeError(UNKNOWN_CONSTRUCTOR,
                              f"unknown dictionary constructor {name!r}")
        sc = self.sigma[index].scheme
        if len(type_args) != len(sc.binders):
            raise FdTypeError(
                ARITY_MISMATCH,
                f"{name!r} expects {len(sc.binders)} type arguments, "
                f"got {len(type_args)}")
        if len(dict_args) != len(sc.context):
            raise FdTypeError(
                ARITY_MISMATCH,
                f"{name!r} expects {len(sc.context)} dictionary "
                f"arguments, got {len(dict_args)}")
        for ty in type_args:
            self._wf(env, ty)
        inst = dict(zip(sc.binders, type_args))
        for want, got in zip(sc.context, dict_args):
            want_q = subst_type(want, inst)
            got_q = self.check_dict(env, got)
            if not alpha_eq(got_q, want_q):
                raise FdTypeError(
                    MISMATCH,
                    f"dictionary argument of {name!r} has type "
                    f"{S.pretty(got_q)}, expected {S.pretty(want_q)}")
        self._check_impl(index)
        return subst_type(sc.head, inst)

    def _check_impl(self, index: int):
        """Check entry's implementation against the strict prefix of the
        method environment, once per Σ."""
        entry = self.sigma[index]
        if entry.con in self._impl_memo:
            return
        prefix = self.child(self.sigma[:index])
        try:
            ity = prefix.check_expr((), entry.impl)
        except FdTypeError as err:
            if err.kind == UNKNOWN_CONSTRUCTOR:
                raise FdTypeError(
                    PREFIX_VIOLATION,
                    f"implementation of {entry.con!r} references a "
                    f"constructor declared later: {err.detail}") from err
            raise
        expected = expected_impl_type(self.TC, entry)
        if not alpha_eq(ity, expected):
            raise FdTypeError(
                MISMATCH,
                f"implementation of {entry.con!r} has type {S.pretty(ity)}, "
                f"expected {S.pretty(expected)}")
        self._impl_memo.add(entry.con)

    # -- the composed translation -------------------------------------------

    def translate(self, e):
        """The target translation of e, a term or dictionary this checker
        has typed: every typing rule's corresponding target term. A choice
        becomes the choice of its alternatives' translations."""
        hit = self._targets.get(id(e))
        if hit is None:
            hit = self._targets[id(e)] = (e, self._translate(e))
        return hit[1]

    def _translate(self, e) -> TgtExpr:
        tr = self.translate
        match e:     # the most frequent nodes first
            case IApp(f, a) | IDApp(f, a):
                return TApp(tr(f), tr(a))
            case IDLam(dv, q, body):
                return TLam(dict_target_name(dv), self._elab(q), tr(body))
            case ILam(x, ty, body):
                return TLam(x, self._elab(ty), tr(body))
            case IVar(x):
                return TVar(x)
            case ILet(x, ty, bound, body):
                return TLet(x, self._elab(ty), tr(bound), tr(body))
            case ITrue():
                return TTrue()
            case IFalse():
                return TFalse()
            case ITyLam(a, body):
                return TTyLam(a, tr(body))
            case ITyApp(f, ty):
                return TTyApp(tr(f), self._elab(ty))
            case IMethod(d, m):
                return TProj(tr(d), m)
            case DVar(dv):
                return TVar(dict_target_name(dv))
            case DCon(name, type_args, dict_args):
                te = self._record(name)
                for ty in type_args:
                    te = TTyApp(te, self._elab(ty))
                for d in dict_args:
                    te = TApp(te, tr(d))
                return te
            case IChoice(alts):
                return TChoice(tuple(map(tr, alts)))
        raise TypeError(e)

    def _elab(self, t) -> TgtType:
        """The target type of an intermediate type or dictionary type."""
        out = self._elabs.get(t)
        if out is None:
            elab = elab_fd_q if type(t) is FdQ else elab_fd_type
            out = self._elabs[t] = elab(self.TC, t)
        return out

    def _record(self, con: str) -> TgtExpr:
        """The translation of constructor con, once per Σ: its checked
        implementation's translation, closing over a record."""
        out = self._records.get(con)
        if out is None:
            entry = next(entry for entry in self.sigma if entry.con == con)
            out = self._records[con] = self._wrap_record(
                entry, self.translate(entry.impl))
        return out

    def _wrap_record(self, entry, te_impl: TgtExpr) -> TgtExpr:
        """Rebuild the implementation's outer binder spine around a record.

        The translated implementation has shape /\\c... \\xd... body; the
        dictionary constructor's translation is the same spine closing over
        {method = body} instead. Zero binders yield the bare record.
        """
        spine = []
        for kind in ([TTyLam] * len(entry.scheme.binders)
                     + [TLam] * len(entry.scheme.context)):
            assert type(te_impl) is kind
            spine.append(te_impl)
            te_impl = te_impl.body
        out: TgtExpr = TRecord(((entry.method, te_impl),))
        for b in reversed(spine):
            out = TLam(b.param, b.ty, out) if type(b) is TLam \
                else TTyLam(b.param, out)
        return out


def expected_impl_type(TC, entry) -> FdType:
    """forall binders. context -> method type at the instance head."""
    sc = entry.scheme
    cls = lookup_class_by_name(TC, sc.head.cls)
    ty = subst_type(cls.method_type, {cls.var: sc.head.arg})
    for q in reversed(sc.context):
        ty = IQArrow(q, ty)
    for b in reversed(sc.binders):
        ty = IForall(b, ty)
    return ty


# ---------------------------------------------------------------------------
# Environment well-formedness
# ---------------------------------------------------------------------------

def fd_env_wf(sigma, TC) -> FdChecker:
    """Raises FdTypeError when the environments are ill-formed; otherwise
    returns a checker for sigma that has checked every implementation."""
    methods = [entry.method for entry in TC]
    classes = [entry.cls for entry in TC]
    if len(set(methods)) != len(methods) or len(set(classes)) != len(classes):
        raise FdTypeError(AMBIGUITY, "duplicate class or method name")
    for entry in TC:
        check_fd_type_wf(TC, {entry.var}, entry.method_type)
    cons = [entry.con for entry in sigma]
    if len(set(cons)) != len(cons):
        raise FdTypeError(AMBIGUITY, "duplicate dictionary constructor")
    checker = FdChecker(sigma, TC)
    for i, entry in enumerate(sigma):
        sc = entry.scheme
        cls = lookup_class_by_name(TC, sc.head.cls)
        if cls.method != entry.method:
            raise FdTypeError(
                UNKNOWN_METHOD,
                f"{entry.con!r} implements {entry.method!r} but class "
                f"{sc.head.cls!r} declares {cls.method!r}")
        binder_set = set(sc.binders)
        for q in (sc.head, *sc.context):
            check_fd_type_wf(TC, binder_set, q)
        head_fvs = set(S.free_type_vars(sc.head.arg))
        if not binder_set <= head_fvs:
            raise FdTypeError(
                AMBIGUITY,
                f"constraint scheme of {entry.con!r} is ambiguous")
        # Directional overlap: each head against every earlier head.
        for other in sigma[:i]:
            if other.scheme.head.cls != sc.head.cls:
                continue
            renaming = {a: ITyVar(b) for a, b in
                        rename_apart(other.scheme.binders, binder_set).items()}
            other_head = subst_type(other.scheme.head, renaming)
            vars = binder_set | {t.name for t in renaming.values()} \
                | (set(other.scheme.binders) - set(renaming))
            if S.unify(sc.head, other_head, vars) is not None:
                raise FdTypeError(
                    OVERLAP,
                    f"overlapping instances {other.con!r} and {entry.con!r} "
                    f"for class {sc.head.cls!r}")
        # Implementation typechecks in the strict prefix.
        checker._check_impl(i)
    return checker


# ---------------------------------------------------------------------------
# Evaluation (call-by-name): small-step for traces, a machine for values
# ---------------------------------------------------------------------------

def is_fd_value(e: FdExpr) -> bool:
    return isinstance(e, (ITrue, IFalse, ILam, IDLam, ITyLam))


def fd_step(sigma, e: FdExpr):
    """One leftmost call-by-name step, or None when e is a value."""
    match e:
        case IApp(ILam(x, _, body), a):
            return subst_fd_var(body, x, a)
        case IApp(f, a):
            f2 = fd_step(sigma, f)
            if f2 is None:
                raise FdTypeError(STUCK, f"stuck application {S.pretty(e)}")
            return IApp(f2, a)
        case ITyApp(ITyLam(a, body), ty):
            return subst_type(body, {a: ty})
        case ITyApp(f, ty):
            f2 = fd_step(sigma, f)
            if f2 is None:
                raise FdTypeError(STUCK, f"stuck type application {S.pretty(e)}")
            return ITyApp(f2, ty)
        case IDApp(IDLam(dv, _, body), d):
            return subst_fd_dvar(body, dv, d)
        case IDApp(f, d):
            f2 = fd_step(sigma, f)
            if f2 is None:
                raise FdTypeError(STUCK,
                                  f"stuck dictionary application {S.pretty(e)}")
            return IDApp(f2, d)
        case IMethod(DCon(name, type_args, dict_args), _m):
            # Method lookup uses the full environment, unlike constructor
            # typing which sees only the prefix.
            for entry in sigma:
                if entry.con == name:
                    out = entry.impl
                    for ty in type_args:
                        out = ITyApp(out, ty)
                    for d in dict_args:
                        out = IDApp(out, d)
                    return out
            raise FdTypeError(UNKNOWN_CONSTRUCTOR,
                              f"unknown constructor {name!r} at runtime")
        case IMethod(DVar(dv), _):
            raise FdTypeError(STUCK, f"free dictionary variable {dv!r}")
        case ILet(x, _, bound, body):
            return subst_fd_var(body, x, bound)
        case _ if is_fd_value(e):
            return None
    raise FdTypeError(STUCK, f"stuck term {S.pretty(e)}")


# A stack frame of the machine, by the application node it stands for: the
# abstraction it waits for, the sort that abstraction binds, and how a stuck
# application is reported.
_FD_FRAMES = {
    IApp: (ILam, "iv", "stuck application"),
    ITyApp: (ITyLam, "ic", "stuck type application"),
    IDApp: (IDLam, "id", "stuck dictionary application"),
}
# Read-back order: types, then dictionaries, then terms. A value read back
# for one sort has no variable of a later sort, so later passes keep it.
_FD_SORTS = ("ic", "id", "iv")
_FD_VALUES = frozenset({ITrue, IFalse, ILam, IDLam, ITyLam})


def spend_fuel(fuel: int) -> int:
    """The fuel left after one reduction step."""
    if fuel <= 0:
        raise FuelExhausted()
    return fuel - 1


def fd_eval(sigma, e: FdExpr, fuel: int) -> FdExpr:
    """The value e reaches by leftmost call-by-name reduction in at most
    fuel steps.

    A Krivine-style environment machine. Its state is the current term, an
    environment mapping term, dictionary and type variables to unevaluated
    closures (term, environment), and a stack of argument frames. Closures
    are never updated, so the machine takes exactly the reductions `fd_step`
    takes: beta, type beta, dictionary beta, let and method unfolding each
    cost one unit of fuel, and a stuck term raises the error `fd_step`
    raises. The final closure is read back with one substitution per sort;
    on a closed e every substituted value is closed, so the result is `==`
    to the small-step value.
    """
    env: dict = {}
    stack = []
    while True:
        kind = type(e)
        if kind is IApp or kind is IDApp:
            stack.append((kind, e.arg, env))
            e = e.fun
        elif kind is ITyApp:
            stack.append((kind, e.ty, env))
            e = e.fun
        elif kind is IVar:
            closure = env.get(("iv", e.name))
            if closure is None:
                spend_fuel(fuel)
                raise FdTypeError(STUCK, f"stuck term {S.pretty(e)}")
            e, env = closure
        elif kind is ILet:
            fuel = spend_fuel(fuel)
            env = {**env, ("iv", e.name): (e.bound, env)}
            e = e.body
        elif kind is IMethod:
            d, denv = e.dict, env
            while type(d) is DVar:
                closure = denv.get(("id", d.name))
                if closure is None:
                    spend_fuel(fuel)
                    raise FdTypeError(STUCK,
                                      f"free dictionary variable {d.name!r}")
                d, denv = closure
            if type(d) is not DCon:
                raise TypeError(d)  # no dictionary, a choice node for one
            fuel = spend_fuel(fuel)
            # Method lookup uses the full environment, unlike constructor
            # typing which sees only the prefix.
            entry = next((x for x in sigma if x.con == d.name), None)
            if entry is None:
                raise FdTypeError(UNKNOWN_CONSTRUCTOR,
                                  f"unknown constructor {d.name!r} at runtime")
            # The implementation applied to the type arguments, then to the
            # dictionary arguments: the first type argument ends on top.
            stack.extend((IDApp, a, denv) for a in reversed(d.dict_args))
            stack.extend((ITyApp, t, denv) for t in reversed(d.type_args))
            e, env = entry.impl, {}
        elif kind not in _FD_VALUES:
            raise TypeError(e)      # no term, a choice node for one
        elif not stack:
            return S.read_back(e, env, _FD_SORTS)
        else:
            frame, arg, aenv = stack[-1]
            lam, sort, what = _FD_FRAMES[frame]
            if kind is not lam:
                spend_fuel(fuel)
                stuck = frame(S.read_back(e, env, _FD_SORTS),
                              S.read_back(arg, aenv, _FD_SORTS))
                raise FdTypeError(STUCK, f"{what} {S.pretty(stuck)}")
            fuel = spend_fuel(fuel)
            stack.pop()
            env = {**env, (sort, e.param): (arg, aenv)}
            e = e.body
