"""The intermediate language: System F with first-class dictionaries.

Typing is one judgment (`FdChecker.check_expr` and `check_dict`): it
returns a type and builds nothing else, so walking an evaluation trace
types each step and never translates it. Every term is typed under the
whole method environment Σ: typing reads of Σ only the schemes of the
constructors a term names, so `fd_env_wf` checks the prefix rule (an
implementation names only constructors declared before it) by a scan.
Evaluation of a method projection uses the whole Σ too.

The composed corner of the commuting square is a second, structural walk
over a typed term (`FdChecker.translate`): each typing rule's
corresponding target term, with a dictionary constructor becoming its
implementation's translation closing over a record. It reads no typing
environment, so one node always gets the same target term, and it
translates a packed forest of derivations (`syntax.unpack`) too: a choice
becomes the choice of its alternatives' translations, which typing has
checked to have one type, and unpacking the result gives the translation
of each derivation, in order. Types and dictionary types have one
translation (`elab_fd_type`), whose memo a checker keeps per Σ. Forests
share subforests, and derivations unpacked from one forest share
subtrees, and a trace step shares what it leaves in place, so the one
checker of a Σ types each shared node once per binding of its free
variables, keeping the type on the node, and translates each shared node
once, reusing results by object identity (hash-consing's idea, applied to
results instead of nodes). Types and dictionaries are hash-consed
themselves, so comparing two types is an identity test unless both hold
a binder, and a closed dictionary is typed once per method environment.

Every per-node walk finds its rule by the node's exact class, never by
`match`. Typing and the composed translation look it up in a table
(`FdChecker._RULES`, `FdChecker._TRANSLATIONS`); the translation does so
inside its memo entry, so a nesting level costs two frames and deep
input keeps its limit. The walks that recurse through themselves
(`check_dict`, `check_fd_type_wf`, `elab_fd_type`, `fd_step`) test
`type(x) is C` in a chain.

Evaluation is call-by-name and metered by fuel: `fd_step` is the
substitution-based small-step semantics, whose traces `check_metatheory`
walks, and `fd_eval` reaches the same value, in the same number of steps,
with an environment machine (`run_machine`), which evaluates the target
too, each language read through its table (`Language`): a method
projection waits for a dictionary constructor, as the record projection
it translates to waits for a record. The machine evaluates a packed
forest too (`fd_leaves`): it forks where evaluation inspects a choice,
and `fd_eval` is the case of one tree.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

from .syntax import (
    DCon, DVar, DictBind, FdClassEntry, FdDict, FdExpr, FdQ, FdType,
    IApp, IArrow, IBool, IChoice, IDApp, IDLam, IFalse, IForall, ILam, ILet,
    IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar, MethodImpl,
    TApp, TArrow, TBool, TChoice, TForall, TLam, TLet, TProj, TRecord,
    TRecordTy, TTrue, TFalse, TTyApp, TTyLam, TTyVar, TVar, TgtExpr, TgtType,
    TermBind, TyVarBind,
    alpha_eq, dict_target_name, env_tyvars, rename_apart, subst, subst_type,
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
    """A typing error of kind, with detail."""

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


def check_fd_type_wf(TC, tyvars: set[str], t: FdType | FdQ):
    """Raises FdTypeError at the first ill-formed part of t, a type or a
    dictionary type, in reading order. The rule is found by t's exact
    class, in a chain of tests, so a nesting level costs one frame."""
    kind = type(t)
    if kind is IBool:
        pass
    elif kind is ITyVar:
        a = t.name
        if a not in tyvars:
            raise FdTypeError(UNBOUND_TYVAR, f"unbound type variable {a!r}")
    elif kind is IArrow:
        check_fd_type_wf(TC, tyvars, t.left)
        check_fd_type_wf(TC, tyvars, t.right)
    elif kind is IQArrow:
        check_fd_type_wf(TC, tyvars, t.q)
        check_fd_type_wf(TC, tyvars, t.result)
    elif kind is IForall:
        check_fd_type_wf(TC, tyvars | {t.var}, t.body)
    elif kind is FdQ:
        lookup_class_by_name(TC, t.cls)
        check_fd_type_wf(TC, tyvars, t.arg)
    else:
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


def elab_fd_type(TC, t: FdType | FdQ, memo=None) -> TgtType:
    """The target type of t, a type or a dictionary type, which becomes
    the single-field record of its class's method; memo holds the
    translations made so far, so each subtree t shares is translated
    once. Like `check_fd_type_wf`, it finds the rule by t's exact class
    in a chain of tests."""
    memo = {} if memo is None else memo
    out = memo.get(t)
    if out is None:
        kind = type(t)
        if kind is IBool:
            out = TBool()
        elif kind is ITyVar:
            out = TTyVar(t.name)
        elif kind is IArrow:
            out = TArrow(elab_fd_type(TC, t.left, memo),
                         elab_fd_type(TC, t.right, memo))
        elif kind is IQArrow:
            out = TArrow(elab_fd_type(TC, t.q, memo),
                         elab_fd_type(TC, t.result, memo))
        elif kind is IForall:
            out = TForall(t.var, elab_fd_type(TC, t.body, memo))
        elif kind is FdQ:
            entry = lookup_class_by_name(TC, t.cls)
            out = TRecordTy(entry.method, subst_type(
                elab_fd_type(TC, entry.method_type, memo),
                {entry.var: elab_fd_type(TC, t.arg, memo)}))
        else:
            raise TypeError(t)
        memo[t] = out
    return out


# ---------------------------------------------------------------------------
# Typechecking, and the composed translation of typed terms
# ---------------------------------------------------------------------------

class FdChecker:
    """Typechecker for one fixed method environment, and the composed
    translation of the terms it has typed.

    `check_expr` and `check_dict` are the typing judgment alone: they
    return a type and build no target term. A term is typed by the rule
    of its class, found by one lookup (`_RULES`), as the machine finds a
    node's role in its `Language`. `translate` is the second translation
    step, from a typed term to the target, by the rule of the node's
    class (`_TRANSLATIONS`), looked up inside the memo entry so that a
    nesting level costs no extra frame.

    Typing and translation are deterministic, so results are memoized at
    two levels. Types and dictionaries are interned (`syntax.interned`),
    so a memo keyed by them is keyed by identity. Errors are never
    memoized.

    It is the typing judgment under a Σ that `fd_env_wf`, which alone builds
    one, has found well formed. A typed Σ keeps its one checker
    (`source_typer.MethodEnv.derived`) for the reports' forests and values
    and for every stream's terms and trace steps. Its memos are per Σ,
    bounded by the environment and the types and closed dictionaries it is
    used with, and each one pays on a perfbench workload (the `wall_s` that
    removing it cost, in alternating pairs):

    - the type of each closed dictionary constructor application
      (`_dicts`), which reads no typing environment (fuzz +9.1%); a
      dictionary with a free variable is typed at each use;
    - the closed annotations found well formed, which TC alone decides
      (`_closed`; fuzz +4.8%, flex +5.6%); an ill-formed one is never
      recorded, so it raises at every check;
    - the type of each method projection, by the method and the
      dictionary's type (`_methods`; flex +2.2%);
    - the translation of every type and subtree translated, by the type
      (`_elabs`, the memo of `elab_fd_type`; flex +4.5%, wide +6.7%);
    - each constructor's translation (`_records`; wide +4.5%).

    Per node: each type `check_expr`, through which all recursion goes,
    finds, kept on the node (`_types`, cached like its facts) and keyed by
    the checker's token (`_token`). Typing a term reads of its environment
    only the innermost binding of each of its free variables
    (strengthening), so a node whose facts are cached, as every generated
    node's are (`syntax.with_facts`), is keyed by the token and those
    bindings (`_bindings`), and a closed one by the token alone: a subterm
    that a trace step leaves in place stays typed, under whatever binders
    the step rebuilt above it. A node without cached facts, as every node of
    a typed forest, is keyed by the token and the identity of the
    environment, which its entry alone keeps alive, so typing never walks a
    node only to key it. A typing lives as long as its node; an error is
    never kept. A binder extends its environment by one binding, and an
    annotation reads the type variables of the environment at hand only if
    it has a free one (`_wf`).

    Translation is structural and reads no typing environment, so its
    results are memoized by the identity of the node alone (`_targets`),
    which keeps the node alive.
    """

    def __init__(self, sigma, TC):
        self.sigma = tuple(sigma)
        self.TC = tuple(TC)
        self._records: dict[str, TgtExpr] = {}
        self._elabs: dict = {}      # FdType or FdQ -> TgtType
        self._closed: set = set()   # closed FdType or FdQ found well formed
        self._methods: dict = {}    # (method, FdQ) -> FdType
        self._dicts: dict = {}      # closed DCon -> FdQ
        self._token = object()      # keys this checker's typings on nodes
        self._targets: dict = {}    # id(node) -> (node, translation)

    def _wf(self, env, t):
        """Raises FdTypeError unless t, a type or dictionary type, is well
        formed under env, whose type variables are read only if t has a
        free one. A closed t is well formed by TC alone: it is checked
        until it passes once (`_closed`)."""
        if t._fv:
            check_fd_type_wf(self.TC, env_tyvars(env), t)
        elif t not in self._closed:
            check_fd_type_wf(self.TC, _NO_TYVARS, t)
            self._closed.add(t)

    # -- expressions --------------------------------------------------------

    def check_expr(self, env, e: FdExpr) -> FdType:
        try:
            fv = e._fv
        except AttributeError:
            raise TypeError(e) from None
        token = self._token
        if fv is None:
            key = (token, id(env))
        elif fv:
            key = (token, *_bindings(env, fv))
        else:
            key = token
        types = e._types
        hit = None if types is None else types.get(key)
        if hit is None:
            hit = (env if fv is None else None, self._infer(env, e))
            if types is None:
                S._setattr(e, "_types", {key: hit})
            else:
                types[key] = hit
        return hit[1]

    def _infer(self, env, e: FdExpr) -> FdType:
        """The typing rule of e's class (`_RULES`), applied to e."""
        rule = self._RULES.get(type(e))
        if rule is None:
            raise TypeError(e)
        return rule(self, env, e)

    def _infer_bool(self, _env, _e) -> FdType:
        return IBool()

    def _infer_var(self, env, e: IVar) -> FdType:
        x = e.name
        for bind in reversed(env):
            if isinstance(bind, TermBind) and bind.name == x:
                return bind.ty
        raise FdTypeError(UNBOUND_VAR, f"unbound variable {x!r}")

    def _infer_lam(self, env, e: ILam) -> FdType:
        ty = e.ty
        self._wf(env, ty)
        return IArrow(ty, self.check_expr(env + (TermBind(e.param, ty),),
                                          e.body))

    def _infer_app(self, env, e: IApp) -> FdType:
        fty = self.check_expr(env, e.fun)
        if not isinstance(fty, IArrow):
            raise FdTypeError(
                MISMATCH, f"applied a non-function of type {S.pretty(fty)}")
        aty = self.check_expr(env, e.arg)
        if not alpha_eq(aty, fty.left):
            raise FdTypeError(
                MISMATCH,
                f"argument has type {S.pretty(aty)}, "
                f"expected {S.pretty(fty.left)}")
        return fty.right

    def _infer_dlam(self, env, e: IDLam) -> FdType:
        q = e.q
        self._wf(env, q)
        return IQArrow(q, self.check_expr(env + (DictBind(e.param, q),),
                                          e.body))

    def _infer_dapp(self, env, e: IDApp) -> FdType:
        fty = self.check_expr(env, e.fun)
        if not isinstance(fty, IQArrow):
            raise FdTypeError(
                MISMATCH,
                f"dictionary applied to non-constrained type "
                f"{S.pretty(fty)}")
        dq = self.check_dict(env, e.arg)
        if not alpha_eq(dq, fty.q):
            raise FdTypeError(
                MISMATCH,
                f"dictionary has type {S.pretty(dq)}, "
                f"expected {S.pretty(fty.q)}")
        return fty.result

    def _infer_tylam(self, env, e: ITyLam) -> FdType:
        a = e.param
        return IForall(a, self.check_expr(env + (TyVarBind(a),), e.body))

    def _infer_tyapp(self, env, e: ITyApp) -> FdType:
        fty = self.check_expr(env, e.fun)
        if not isinstance(fty, IForall):
            raise FdTypeError(
                MISMATCH,
                f"type applied to non-polymorphic type {S.pretty(fty)}")
        ty = e.ty
        self._wf(env, ty)
        return subst_type(fty.body, {fty.var: ty})

    def _infer_method(self, env, e: IMethod) -> FdType:
        dq, m = self.check_dict(env, e.dict), e.method
        mty = self._methods.get((m, dq))
        if mty is None:
            entry = lookup_class_by_method(self.TC, m)
            if entry.cls != dq.cls:
                raise FdTypeError(
                    UNKNOWN_METHOD,
                    f"dictionary of class {dq.cls!r} has no method {m!r}")
            mty = self._methods[m, dq] = subst_type(
                entry.method_type, {entry.var: dq.arg})
        return mty

    def _infer_let(self, env, e: ILet) -> FdType:
        ty = e.ty
        self._wf(env, ty)
        bty = self.check_expr(env, e.bound)
        if not alpha_eq(bty, ty):
            raise FdTypeError(
                MISMATCH,
                f"let binding has type {S.pretty(bty)}, "
                f"annotated {S.pretty(ty)}")
        return self.check_expr(env + (TermBind(e.name, ty),), e.body)

    def _infer_choice(self, env, e: IChoice) -> FdType:
        alts = e.alts
        if not alts:
            raise TypeError(e)
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

    # The typing rule of each class of term, found by one lookup, as
    # `Language` gives the machine the role of a node.
    _RULES = {ITrue: _infer_bool, IFalse: _infer_bool, IVar: _infer_var,
              ILam: _infer_lam, IApp: _infer_app, IDLam: _infer_dlam,
              IDApp: _infer_dapp, ITyLam: _infer_tylam, ITyApp: _infer_tyapp,
              IMethod: _infer_method, ILet: _infer_let,
              IChoice: _infer_choice}

    # -- dictionaries -------------------------------------------------------

    def check_dict(self, env, d: FdDict) -> FdQ:
        """The type of d, a dictionary or a choice of them: its rule is
        found by d's exact class, in a chain of tests, since a constructor
        types its arguments through this judgment again."""
        kind = type(d)
        if kind is DVar:
            dv = d.name
            for bind in reversed(env):
                if isinstance(bind, DictBind) and bind.name == dv:
                    return bind.q
            raise FdTypeError(UNBOUND_DICT,
                              f"unbound dictionary variable {dv!r}")
        if kind is DCon:
            if d._fv:
                return self._check_con(env, d)
            q = self._dicts.get(d)
            if q is None:
                q = self._dicts[d] = self._check_con(env, d)
            return q
        if kind is IChoice:
            return self.check_expr(env, d)
        raise TypeError(d)

    def _check_con(self, env, d: DCon) -> FdQ:
        """The rule for a dictionary constructor applied to types and
        dictionaries."""
        name, type_args, dict_args = d.name, d.type_args, d.dict_args
        entry = next((entry for entry in self.sigma if entry.con == name),
                     None)
        if entry is None:
            raise FdTypeError(UNKNOWN_CONSTRUCTOR,
                              f"unknown dictionary constructor {name!r}")
        sc = entry.scheme
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
        return subst_type(sc.head, inst)

    # -- the composed translation -------------------------------------------

    def translate(self, e):
        """The target translation of e, a term or dictionary this checker
        has typed: every typing rule's corresponding target term
        (`_TRANSLATIONS`). A choice becomes the choice of its
        alternatives' translations. The rule is looked up inside the memo
        entry, so a nesting level costs this frame and the rule's."""
        hit = self._targets.get(id(e))
        if hit is None:
            rule = self._TRANSLATIONS.get(type(e))
            if rule is None:
                raise TypeError(e)
            hit = self._targets[id(e)] = (e, rule(self, e))
        return hit[1]

    def _translate_app(self, e: IApp | IDApp) -> TgtExpr:
        tr = self.translate
        return TApp(tr(e.fun), tr(e.arg))

    def _translate_dlam(self, e: IDLam) -> TgtExpr:
        return TLam(dict_target_name(e.param), self._elab(e.q),
                    self.translate(e.body))

    def _translate_lam(self, e: ILam) -> TgtExpr:
        return TLam(e.param, self._elab(e.ty), self.translate(e.body))

    def _translate_var(self, e: IVar) -> TgtExpr:
        return TVar(e.name)

    def _translate_let(self, e: ILet) -> TgtExpr:
        tr = self.translate
        return TLet(e.name, self._elab(e.ty), tr(e.bound), tr(e.body))

    def _translate_true(self, _e) -> TgtExpr:
        return TTrue()

    def _translate_false(self, _e) -> TgtExpr:
        return TFalse()

    def _translate_tylam(self, e: ITyLam) -> TgtExpr:
        return TTyLam(e.param, self.translate(e.body))

    def _translate_tyapp(self, e: ITyApp) -> TgtExpr:
        return TTyApp(self.translate(e.fun), self._elab(e.ty))

    def _translate_method(self, e: IMethod) -> TgtExpr:
        return TProj(self.translate(e.dict), e.method)

    def _translate_dvar(self, d: DVar) -> TgtExpr:
        return TVar(dict_target_name(d.name))

    def _translate_dcon(self, d: DCon) -> TgtExpr:
        te = self._record(d.name)
        for ty in d.type_args:
            te = TTyApp(te, self._elab(ty))
        for arg in d.dict_args:
            te = TApp(te, self.translate(arg))
        return te

    def _translate_choice(self, e: IChoice) -> TgtExpr:
        return TChoice(tuple(map(self.translate, e.alts)))

    # The target term of each class of term or dictionary, found by one
    # lookup, as `_RULES` gives its typing rule.
    _TRANSLATIONS = {
        IApp: _translate_app, IDApp: _translate_app, IDLam: _translate_dlam,
        ILam: _translate_lam, IVar: _translate_var, ILet: _translate_let,
        ITrue: _translate_true, IFalse: _translate_false,
        ITyLam: _translate_tylam, ITyApp: _translate_tyapp,
        IMethod: _translate_method, DVar: _translate_dvar,
        DCon: _translate_dcon, IChoice: _translate_choice}

    def _elab(self, t) -> TgtType:
        """The target type of an intermediate type or dictionary type,
        translated once per Σ: `_elabs` is elab_fd_type's memo."""
        return elab_fd_type(self.TC, t, self._elabs)

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
        out: TgtExpr = TRecord(entry.method, te_impl)
        for b in reversed(spine):
            out = TLam(b.param, b.ty, out) if type(b) is TLam \
                else TTyLam(b.param, out)
        return out


# The class of the binding of each sort of variable a term can have
# free. A node of another language has none: typing it raises.
_BIND_CLASS = {"iv": TermBind, "id": DictBind, "ic": TyVarBind}


def _bindings(env, fv) -> list:
    """The innermost binding in env of each free variable in fv, a node's
    (sort, name) pairs, or None where env has none: all that typing the
    node reads of env."""
    out = []
    for sort, name in fv:
        cls = _BIND_CLASS.get(sort)
        for bind in reversed(env):
            if bind.name == name and bind.__class__ is cls:
                break
        else:
            bind = None
        out.append(bind)
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
    """Raises FdTypeError at the first ill-formed entry of the environments;
    otherwise returns Σ's checker, which has typed every implementation.
    An implementation types under the strict prefix of Σ before it: typing
    reads of Σ only the schemes of the constructors a term names, so a scan
    finds any that the prefix lacks and Σ declares (`PrefixViolation`), and
    the checker types the rest under Σ. A name no entry declares is left to
    typing, which finds it unknown."""
    methods = [entry.method for entry in TC]
    classes = [entry.cls for entry in TC]
    if len(set(methods)) != len(methods) or len(set(classes)) != len(classes):
        raise FdTypeError(AMBIGUITY, "duplicate class or method name")
    for entry in TC:
        check_fd_type_wf(TC, {entry.var}, entry.method_type)
    cons = [entry.con for entry in sigma]
    if len(set(cons)) != len(cons):
        raise FdTypeError(AMBIGUITY, "duplicate dictionary constructor")
    checker, later = FdChecker(sigma, TC), set(cons)
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
        # No constructor at or after the entry (`later`), in typing's order.
        todo = [entry.impl]
        while todo:
            x = todo.pop()
            if type(x) is DCon and x.name in later:
                raise FdTypeError(
                    PREFIX_VIOLATION,
                    f"implementation of {entry.con!r} references a "
                    f"constructor declared later: unknown dictionary "
                    f"constructor {x.name!r}")
            todo.extend(reversed(S._parts(x)))
        later.remove(entry.con)
        ity = checker.check_expr((), entry.impl)
        expected = expected_impl_type(TC, entry)
        if not alpha_eq(ity, expected):
            raise FdTypeError(
                MISMATCH,
                f"implementation of {entry.con!r} has type {S.pretty(ity)}, "
                f"expected {S.pretty(expected)}")
    return checker


# ---------------------------------------------------------------------------
# Evaluation (call-by-name): small-step for traces, a machine for values
# ---------------------------------------------------------------------------

def is_fd_value(e: FdExpr) -> bool:
    return _FD.roles.get(type(e)) == _VALUE


def _implementation(sigma, name: str) -> MethodImpl:
    """The entry of the dictionary constructor name in sigma, whose
    implementation a projection of its method unfolds to: a projection of
    another method is stuck."""
    for entry in sigma:
        if entry.con == name:
            return entry
    raise FdTypeError(UNKNOWN_CONSTRUCTOR,
                      f"unknown constructor {name!r} at runtime")


def fd_step(sigma, e: FdExpr):
    """One leftmost call-by-name step, or None when e is a value. The rule
    is found by the exact classes of e and its head, in a chain of tests:
    each redex is tried before a value is recognised."""
    kind = type(e)
    if kind is IApp:
        f = e.fun
        if type(f) is ILam:
            return subst(f.body, "iv", {f.param: e.arg})
        f2 = fd_step(sigma, f)
        if f2 is None:
            raise FdTypeError(STUCK, f"stuck application {S.pretty(e)}")
        return IApp(f2, e.arg)
    if kind is ITyApp:
        f = e.fun
        if type(f) is ITyLam:
            return subst_type(f.body, {f.param: e.ty})
        f2 = fd_step(sigma, f)
        if f2 is None:
            raise FdTypeError(STUCK, f"stuck type application {S.pretty(e)}")
        return ITyApp(f2, e.ty)
    if kind is IDApp:
        f = e.fun
        if type(f) is IDLam:
            return subst(f.body, "id", {f.param: e.arg})
        f2 = fd_step(sigma, f)
        if f2 is None:
            raise FdTypeError(STUCK,
                              f"stuck dictionary application {S.pretty(e)}")
        return IDApp(f2, e.arg)
    if kind is IMethod:
        d = e.dict
        if type(d) is DCon and \
                (entry := _implementation(sigma, d.name)).method == e.method:
            out = entry.impl
            for ty in d.type_args:
                out = ITyApp(out, ty)
            for arg in d.dict_args:
                out = IDApp(out, arg)
            return out
        if type(d) is DVar:
            raise FdTypeError(STUCK, f"free dictionary variable {d.name!r}")
    elif kind is ILet:
        return subst(e.body, "iv", {e.name: e.bound})
    if is_fd_value(e):
        return None
    raise FdTypeError(STUCK, f"stuck term {S.pretty(e)}")


# The default fuel: how many reduction steps one evaluation may take.
FUEL = 100_000


def spend_fuel(fuel: int) -> int:
    """The fuel left after one reduction step."""
    if fuel <= 0:
        raise FuelExhausted()
    return fuel - 1


def fd_eval(sigma, e: FdExpr, fuel: int) -> FdExpr:
    """The value e reaches by leftmost call-by-name reduction in at most
    fuel steps: the one leaf of `fd_leaves` over e's first tree, or the
    error it raised.

    The machine (`run_machine`) at the intermediate language: method
    unfolding costs one unit of fuel besides the steps every language
    takes, and a stuck term raises the error `fd_step` raises. On a closed
    e every substituted value is closed, so the result is `==` to the
    small-step value.
    """
    (leaf,) = fd_leaves(sigma, e, fuel, 1)
    if leaf.error is not None:
        raise leaf.error
    return leaf.value


def fd_leaves(sigma, forest: FdExpr, fuel: int, limit: int) -> list:
    """The leaves (`syntax.Leaf`) of evaluating each of the first limit
    trees of forest under sigma with fuel, which the machine of `fd_eval`
    evaluates all at once: each closure's position in the forest tells
    the occurrence of each choice it meets (`syntax.Forks`). The machine
    forks only where evaluation inspects a choice: at the head of the
    current term, a method projection's dictionary included. Each
    branch goes on with the fuel left; an occurrence met again takes the
    alternative already decided. A value read back with an undecided
    choice in it splits on that choice; a stuck term's message shows an
    undecided choice at its first alternative, as the first tree of the
    leaf has it."""
    forks = S.Forks(forest, limit)
    return forks.leaves(
        lambda *state: run_machine(_FD, sigma, forks, *state), fuel)


# ---------------------------------------------------------------------------
# The machine, for the intermediate language and the target alike
# ---------------------------------------------------------------------------

def _scope(binder) -> tuple:
    """The sort a binder class binds and the index of its body among its
    fields, from the binding table."""
    _, sort, (body,) = S._BINDERS[binder]
    return sort, S._SHAPES[binder].fields.index(body)


# A stack frame, by the eliminator it stands for: the introduction it
# waits for, the sort it binds and the index of its body (none for a
# method projection or a record), and how a stuck eliminator is reported.
# They mirror the translation: IApp and IDApp become TApp, ITyApp becomes
# TTyApp, and IMethod becomes TProj.
_FRAMES = {
    IApp: (ILam, *_scope(ILam), "stuck application"),
    IDApp: (IDLam, *_scope(IDLam), "stuck dictionary application"),
    ITyApp: (ITyLam, *_scope(ITyLam), "stuck type application"),
    IMethod: (DCon, None, None, "stuck term"),
    TApp: (TLam, *_scope(TLam), "stuck application"),
    TTyApp: (TTyLam, *_scope(TTyLam), "stuck type application"),
    TProj: (TRecord, None, None, "stuck projection"),
}
# A let's sort, and the indices of its body and its bound term.
_LETS = {let: (*_scope(let), S._SHAPES[let].fields.index("bound"))
         for let in (ILet, TLet)}
# How a variable its environment does not bind is reported, by its name.
_UNBOUND = {IVar: "stuck term {}", TVar: "stuck term {}",
            DVar: "free dictionary variable {!r}"}

# What the machine does at a node: push its frame and go to its head, look
# up a variable, bind a let, or fork at a choice. A node with none of
# these roles is a value.
_PUSH, _LOOKUP, _LET, _CHOICE, _VALUE = range(5)
_ROLES = {**dict.fromkeys(_FRAMES, _PUSH), **dict.fromkeys(_LETS, _LET),
          **dict.fromkeys(_UNBOUND, _LOOKUP), IChoice: _CHOICE,
          TChoice: _CHOICE}

Language = namedtuple("Language", "roles sorts stuck errors")
Language.__doc__ = """The machine's table for one language: the role of
each of its node classes, any other node being foreign to it; the order
in which a closure is read back, one sort at a time; the error a stuck
term raises, from its message; and the errors that end a branch in a
leaf."""


def language(bases, choice, sorts, error, *kind) -> Language:
    """The table of the language whose nodes are the subclasses of bases
    and whose forests choose with choice. A stuck term raises error, of
    kind if one is given."""
    classes = [cls for base in bases for cls in base.__subclasses__()]
    return Language({cls: _ROLES.get(cls, _VALUE)
                     for cls in (*classes, choice)},
                    sorts, partial(error, *kind), (error, FuelExhausted))


# Read-back order: types, then dictionaries, then terms. A value read back
# for one sort has no variable of a later sort, so later passes keep it.
_FD = language((FdExpr, FdDict), IChoice, ("ic", "id", "iv"), FdTypeError,
               STUCK)


def run_machine(lang, sigma, forks, e, pos, env, stack, fuel, decisions, low):
    """The machine of lang (see `Language`) under the method environment
    sigma, from one state (see `syntax.Forks`) to its leaf.

    Krivine's call-by-name environment machine: the state is the current
    node, an environment mapping (sort, name) to the unevaluated closure
    (node, position, environment) of each variable, and a stack of frames,
    each an eliminator's argument as a closure. An eliminator pushes its
    frame, a variable is looked up, and a value pops the frame on top: it
    binds an abstraction's argument, selects a record's field, or unfolds
    a dictionary constructor's implementation. Closures are never updated,
    so the machine takes exactly the reductions of the leftmost
    call-by-name small-step semantics, each for one unit of fuel, and a
    stuck term raises the error that semantics raises. The final closure
    is read back with one substitution per sort. A node of no role in lang
    raises `TypeError`, as does a choice where the forest is one tree.
    """
    roles, sorts, stuck, errors = lang
    child = forks.child

    def code(node, npos):
        return forks.tree(node, npos, decisions)
    try:
        while True:
            kind = type(e)
            role = roles.get(kind)
            if role == _PUSH:
                # The argument: a term or dictionary, a type, or a method
                # or record label, which reads back as itself.
                head, arg = S._FIELDS[kind](e)
                stack.append((kind, arg, pos and child(pos, e, 1), env))
                e, pos = head, pos and child(pos, e, 0)
            elif role == _LOOKUP:
                closure = env.get((S._VAR_SORT[kind], e.name))
                if closure is None:
                    spend_fuel(fuel)
                    raise stuck(_UNBOUND[kind].format(e.name))
                e, pos, env = closure
            elif role == _LET:
                fuel = spend_fuel(fuel)
                sort, body, bound = _LETS[kind]
                env = {**env, (sort, e.name): (
                    e.bound, pos and child(pos, e, bound), env)}
                e, pos = e.body, pos and child(pos, e, body)
            elif role == _CHOICE and pos:
                j = forks.decide(pos, e, (e, pos, env, stack, fuel, decisions,
                                          low))
                e, pos = e.alts[j], child(pos, e, j)
            elif role != _VALUE:
                raise TypeError(e)      # a foreign node, or a choice in a tree
            elif not stack:
                leaf = forks.value((e, pos, env, stack, fuel, decisions, low),
                                   sorts)
                if leaf:
                    return leaf
            else:
                frame, arg, apos, aenv = stack[-1]
                intro, sort, body, what = _FRAMES[frame]
                fuel = spend_fuel(fuel)
                if kind is not intro or frame is IMethod and (
                        entry := _implementation(sigma, e.name)).method != arg:
                    node = frame(S.read_back((e, pos, env), sorts, code),
                                 S.read_back((arg, apos, aenv), sorts, code))
                    raise stuck(f"{what} {S.pretty(node)}")
                stack.pop()
                if frame is TProj:
                    if e.label != arg:
                        raise stuck(f"record has no field {arg!r}")
                    e, pos = e.expr, pos and child(pos, e, 1)
                elif frame is IMethod:
                    # The implementation applied to the type arguments, then
                    # to the dictionary arguments: the first type argument
                    # ends on top.
                    args, apos = e.dict_args, pos and child(pos, e, 2)
                    for k in reversed(range(len(args))):
                        stack.append((IDApp, args[k],
                                      apos and child(apos, args, k), env))
                    stack.extend((ITyApp, t, None, env)
                                 for t in reversed(e.type_args))
                    e, pos, env = entry.impl, None, {}
                else:
                    env = {**env, (sort, e.param): (arg, apos, aenv)}
                    e, pos = e.body, pos and child(pos, e, body)
    except errors as err:
        return S.Leaf(low, decisions, None, err)
