"""Abstract syntax for the three languages of the elaboration pipeline.

Three term languages live here: the surface language with type classes, the
intermediate language with first-class dictionaries, and the record-based
System F target. All nodes are immutable dataclasses. One binding table,
built at import, records each node class's fields, variable sort, binder
and binder scope. Free variables, capture-avoiding substitution, alpha
equivalence, first-order unification and context plugging read only that
table, for every sort of variable in every language.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Source language
# ---------------------------------------------------------------------------

class SrcMono:
    """Base class for source monotypes."""


@dataclass(frozen=True)
class SBool(SrcMono):
    pass


@dataclass(frozen=True)
class STyVar(SrcMono):
    name: str


@dataclass(frozen=True)
class SArrow(SrcMono):
    left: SrcMono
    right: SrcMono


@dataclass(frozen=True)
class SrcConstraint:
    cls: str
    arg: SrcMono


@dataclass(frozen=True)
class SrcScheme:
    """Flattened type scheme: forall binders. context => head."""
    binders: tuple[str, ...]
    context: tuple[SrcConstraint, ...]
    head: SrcMono


@dataclass(frozen=True)
class SrcConstraintScheme:
    binders: tuple[str, ...]
    context: tuple[SrcConstraint, ...]
    head: SrcConstraint


class SrcExpr:
    """Base class for source expressions (and expression contexts)."""


@dataclass(frozen=True)
class STrue(SrcExpr):
    pass


@dataclass(frozen=True)
class SFalse(SrcExpr):
    pass


@dataclass(frozen=True)
class SVar(SrcExpr):
    name: str


@dataclass(frozen=True)
class SMeth(SrcExpr):
    # Produced by name resolution; the parser always emits SVar.
    name: str


@dataclass(frozen=True)
class SLam(SrcExpr):
    param: str
    body: SrcExpr


@dataclass(frozen=True)
class SApp(SrcExpr):
    fun: SrcExpr
    arg: SrcExpr


@dataclass(frozen=True)
class SLet(SrcExpr):
    # Non-recursive: name scopes over body only.
    name: str
    scheme: SrcScheme
    bound: SrcExpr
    body: SrcExpr


@dataclass(frozen=True)
class SAnn(SrcExpr):
    expr: SrcExpr
    ty: SrcMono


@dataclass(frozen=True)
class SHole(SrcExpr):
    # Only legal inside expression contexts.
    pass


@dataclass(frozen=True)
class ClassDecl:
    superclasses: tuple[str, ...]
    name: str
    var: str
    method: str
    method_scheme: SrcScheme


@dataclass(frozen=True)
class InstDecl:
    context: tuple[SrcConstraint, ...]
    cls: str
    head: SrcMono
    method: str
    body: SrcExpr


@dataclass(frozen=True)
class SrcProgram:
    decls: tuple[object, ...]
    main: SrcExpr


# ---------------------------------------------------------------------------
# Intermediate language (System F + first-class dictionaries)
# ---------------------------------------------------------------------------

class FdType:
    pass


@dataclass(frozen=True)
class IBool(FdType):
    pass


@dataclass(frozen=True)
class ITyVar(FdType):
    name: str


@dataclass(frozen=True)
class IArrow(FdType):
    left: FdType
    right: FdType


@dataclass(frozen=True)
class FdQ:
    cls: str
    arg: FdType


@dataclass(frozen=True)
class IQArrow(FdType):
    q: FdQ
    result: FdType


@dataclass(frozen=True)
class IForall(FdType):
    var: str
    body: FdType


@dataclass(frozen=True)
class FdConstraintScheme:
    binders: tuple[str, ...]
    context: tuple[FdQ, ...]
    head: FdQ


class FdDict:
    pass


@dataclass(frozen=True)
class DVar(FdDict):
    name: str


@dataclass(frozen=True)
class DCon(FdDict):
    name: str
    type_args: tuple[FdType, ...]
    dict_args: tuple[FdDict, ...]


class FdExpr:
    pass


@dataclass(frozen=True)
class ITrue(FdExpr):
    pass


@dataclass(frozen=True)
class IFalse(FdExpr):
    pass


@dataclass(frozen=True)
class IVar(FdExpr):
    name: str


@dataclass(frozen=True)
class ILam(FdExpr):
    param: str
    ty: FdType
    body: FdExpr


@dataclass(frozen=True)
class IApp(FdExpr):
    fun: FdExpr
    arg: FdExpr


@dataclass(frozen=True)
class IDLam(FdExpr):
    param: str
    q: FdQ
    body: FdExpr


@dataclass(frozen=True)
class IDApp(FdExpr):
    fun: FdExpr
    arg: FdDict


@dataclass(frozen=True)
class ITyLam(FdExpr):
    param: str
    body: FdExpr


@dataclass(frozen=True)
class ITyApp(FdExpr):
    fun: FdExpr
    ty: FdType


@dataclass(frozen=True)
class IMethod(FdExpr):
    dict: FdDict
    method: str


@dataclass(frozen=True)
class ILet(FdExpr):
    name: str
    ty: FdType
    bound: FdExpr
    body: FdExpr


@dataclass(frozen=True)
class MethodImpl:
    """One entry of the global method environment."""
    con: str
    scheme: FdConstraintScheme
    method: str
    impl: FdExpr



@dataclass(frozen=True)
class FdClassEntry:
    method: str
    cls: str
    var: str
    method_type: FdType


# ---------------------------------------------------------------------------
# Target language (System F with records)
# ---------------------------------------------------------------------------

class TgtType:
    pass


@dataclass(frozen=True)
class TBool(TgtType):
    pass


@dataclass(frozen=True)
class TTyVar(TgtType):
    name: str


@dataclass(frozen=True)
class TArrow(TgtType):
    left: TgtType
    right: TgtType


@dataclass(frozen=True)
class TForall(TgtType):
    var: str
    body: TgtType


@dataclass(frozen=True)
class TRecordTy(TgtType):
    # Label -> type, kept sorted by label: records are label-indexed.
    fields: tuple[tuple[str, TgtType], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "fields",
            tuple(sorted(self.fields, key=lambda kv: kv[0])))


class TgtExpr:
    pass


@dataclass(frozen=True)
class TTrue(TgtExpr):
    pass


@dataclass(frozen=True)
class TFalse(TgtExpr):
    pass


@dataclass(frozen=True)
class TVar(TgtExpr):
    name: str


@dataclass(frozen=True)
class TLam(TgtExpr):
    param: str
    ty: TgtType
    body: TgtExpr


@dataclass(frozen=True)
class TApp(TgtExpr):
    fun: TgtExpr
    arg: TgtExpr


@dataclass(frozen=True)
class TTyLam(TgtExpr):
    param: str
    body: TgtExpr


@dataclass(frozen=True)
class TTyApp(TgtExpr):
    fun: TgtExpr
    ty: TgtType


@dataclass(frozen=True)
class TRecord(TgtExpr):
    fields: tuple[tuple[str, TgtExpr], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "fields",
            tuple(sorted(self.fields, key=lambda kv: kv[0])))


@dataclass(frozen=True)
class TProj(TgtExpr):
    expr: TgtExpr
    label: str


@dataclass(frozen=True)
class TLet(TgtExpr):
    name: str
    ty: TgtType
    bound: TgtExpr
    body: TgtExpr


# ---------------------------------------------------------------------------
# Typing-environment building blocks (shared shape across languages)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermBind:
    name: str
    ty: object


@dataclass(frozen=True)
class TyVarBind:
    name: str


@dataclass(frozen=True)
class DictBind:
    name: str
    q: object


def env_tyvars(env) -> set[str]:
    """The type variables an environment binds."""
    return {b.name for b in env if isinstance(b, TyVarBind)}


def dict_target_name(dvar: str) -> str:
    """The target term variable of a dictionary variable.

    Dictionary variables live in their own namespace; the reserved prefix
    keeps them from colliding with source term variables in the target.
    Both pipelines must name dictionaries alike for decomposition to hold.
    """
    return "$d_" + dvar


# ---------------------------------------------------------------------------
# Fresh names
# ---------------------------------------------------------------------------

def avoid_name(base: str, taken) -> str:
    """Smallest primed variant of base not in taken."""
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


def rename_apart(binders, avoid) -> dict[str, str]:
    """Deterministically rename the binders in avoid; returns the mapping."""
    taken = set(avoid) | set(binders)
    mapping = {}
    for b in binders:
        if b in avoid:
            b2 = avoid_name(b, taken)
            taken.add(b2)
            mapping[b] = b2
    return mapping


# ---------------------------------------------------------------------------
# The binding table
#
# Variable sorts:
#   sa - source type variables      sv - source term variables
#   ic - intermediate type vars     iv - intermediate term vars
#   id - dictionary variables
#   ta - target type variables      tv - target term variables
# ---------------------------------------------------------------------------

_VAR_SORT = {
    STyVar: "sa", SVar: "sv",
    ITyVar: "ic", IVar: "iv", DVar: "id",
    TTyVar: "ta", TVar: "tv",
}

_VAR_CLASS = {sort: cls for cls, sort in _VAR_SORT.items()}

# cls -> (binder_field, sort, fields in the binder's scope)
_BINDERS = {
    SLam: ("param", "sv", ("body",)),
    SLet: ("name", "sv", ("body",)),
    SrcScheme: ("binders", "sa", ("context", "head")),
    SrcConstraintScheme: ("binders", "sa", ("context", "head")),
    ILam: ("param", "iv", ("body",)),
    IDLam: ("param", "id", ("body",)),
    ITyLam: ("param", "ic", ("body",)),
    ILet: ("name", "iv", ("body",)),
    IForall: ("var", "ic", ("body",)),
    FdConstraintScheme: ("binders", "ic", ("context", "head")),
    TLam: ("param", "tv", ("body",)),
    TTyLam: ("param", "ta", ("body",)),
    TLet: ("name", "tv", ("body",)),
    TForall: ("var", "ta", ("body",)),
}

# Node base -> the type-variable sort of its language.
_TYPE_SORT = {
    SrcMono: "sa", SrcConstraint: "sa", SrcScheme: "sa",
    SrcConstraintScheme: "sa", SrcExpr: "sa",
    FdType: "ic", FdQ: "ic", FdConstraintScheme: "ic", FdDict: "ic",
    FdExpr: "ic",
    TgtType: "ta", TgtExpr: "ta",
}


class _Shape(NamedTuple):
    fields: tuple[str, ...]     # every field, in declaration order
    parts: tuple[str, ...]      # the fields other than the binder field
    var: str | None             # the sort of a variable class
    binder: str | None          # the field holding the bound name(s)
    bsort: str | None           # the sort of the bound name(s)
    scope: frozenset[str]       # the fields the binder scopes over
    tsort: str                  # the type-variable sort of the language


def _shape(cls, tsort: str) -> _Shape:
    names = tuple(f.name for f in fields(cls))
    binder, bsort, scope = _BINDERS.get(cls, (None, None, ()))
    return _Shape(names, tuple(n for n in names if n != binder),
                  _VAR_SORT.get(cls), binder, bsort, frozenset(scope), tsort)


# Every AST class -> its shape. Anything else (names, labels) is an atom.
_SHAPES = {cls: _shape(cls, tsort)
           for base, tsort in _TYPE_SORT.items()
           for cls in (base, *base.__subclasses__()) if is_dataclass(cls)}


def _bound_names(node, shape: _Shape) -> tuple[str, ...]:
    value = getattr(node, shape.binder)
    return (value,) if isinstance(value, str) else value


def free_vars(node, sort: str) -> list[str]:
    """Free variables of the given sort, first occurrence order, no dups."""
    out: dict[str, None] = {}

    def go(x, bound):
        if type(x) is tuple:
            for item in x:
                go(item, bound)
            return
        shape = _SHAPES.get(type(x))
        if shape is None:
            return
        if shape.var is not None:
            if shape.var == sort and x.name not in bound:
                out[x.name] = None
            return
        inner = bound
        if shape.bsort == sort:
            inner = bound | set(_bound_names(x, shape))
        for f in shape.parts:
            go(getattr(x, f), inner if f in shape.scope else bound)

    go(node, frozenset())
    return list(out)


def subst(node, sort: str, mapping: dict):
    """Simultaneous capture-avoiding substitution of variables of one sort.

    A binder, of any sort, is renamed only when it would capture a free
    variable of its own sort in the mapping's range. It then takes its
    smallest primed variant that is free neither in its scope nor in the
    mapping. The range's free variables of each sort are computed once per
    call, when the first binder of that sort is met.
    """
    if not mapping:
        return node
    by_sort: dict = {}

    def range_fvs(bsort):
        """Each range value's free variables of sort bsort, and all of them."""
        out = by_sort.get(bsort)
        if out is None:
            each = {k: set(free_vars(v, bsort)) for k, v in mapping.items()}
            out = by_sort[bsort] = (each, set().union(*each.values()))
        return out

    def go(x, m):
        if not m:
            return x
        if type(x) is tuple:
            return tuple([go(item, m) for item in x])
        shape = _SHAPES.get(type(x))
        if shape is None:
            return x
        if shape.var is not None:
            return m.get(x.name, x) if shape.var == sort else x
        bsort = shape.bsort
        if bsort is None:
            return type(x)(*[go(getattr(x, f), m) for f in shape.fields])
        names = _bound_names(x, shape)
        inner = m
        if bsort == sort and any(n in m for n in names):
            inner = {k: v for k, v in m.items() if k not in names}
        new_names, renames = names, None
        each, every_fv = range_fvs(bsort)
        if any(n in every_fv for n in names):
            clash = set().union(*(each[k] for k in inner))
            if any(n in clash for n in names):
                new_names, renames = _rename_binders(
                    x, shape, clash, inner if bsort == sort else ())
        values = []
        for f in shape.fields:
            v = getattr(x, f)
            if f == shape.binder:
                v = new_names[0] if isinstance(v, str) else new_names
            elif f in shape.scope:
                if renames:
                    v = subst(v, bsort, renames)
                v = go(v, inner)
            else:
                v = go(v, m)
            values.append(v)
        return type(x)(*values)

    return go(node, mapping)


def _rename_binders(node, shape: _Shape, clash: set, avoid):
    """The binder names of node with each one in clash renamed apart from
    clash, avoid and the free variables of its scope; also the renaming to
    apply to the scope."""
    sort = shape.bsort
    names = _bound_names(node, shape)
    taken = set(names) | clash | set(avoid)
    for f in shape.scope:
        taken.update(free_vars(getattr(node, f), sort))
    new_names, renames = [], {}
    for n in names:
        if n in clash:
            n2 = avoid_name(n, taken)
            taken.add(n2)
            renames[n] = _VAR_CLASS[sort](n2)
            n = n2
        new_names.append(n)
    return tuple(new_names), renames


def alpha_eq(a, b) -> bool:
    """Equality up to consistent renaming of bound variables."""
    if a is b or a == b:    # equal terms are alpha-equal
        return True
    counter = itertools.count()

    def go(x, y, env1, env2):
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is tuple:
            return len(x) == len(y) and all(
                go(p, q, env1, env2) for p, q in zip(x, y))
        shape = _SHAPES.get(cls)
        if shape is None:
            return x == y
        if shape.var is not None:
            i = env1.get((shape.var, x.name))
            j = env2.get((shape.var, y.name))
            if i is None and j is None:
                return x.name == y.name
            return i is not None and i == j
        inner1, inner2 = env1, env2
        if shape.binder is not None:
            nx, ny = _bound_names(x, shape), _bound_names(y, shape)
            if len(nx) != len(ny):
                return False
            inner1, inner2 = dict(env1), dict(env2)
            for n1, n2 in zip(nx, ny):
                idx = next(counter)
                inner1[(shape.bsort, n1)] = idx
                inner2[(shape.bsort, n2)] = idx
        for f in shape.parts:
            scoped = f in shape.scope
            if not go(getattr(x, f), getattr(y, f),
                      inner1 if scoped else env1, inner2 if scoped else env2):
                return False
        return True

    return go(a, b, {}, {})


def unify(t1, t2, vars: set[str]):
    """Most general unifier of t1 and t2 over the type variables in vars.

    First-order with occurs check. The result is triangular (a variable's
    value may mention variables bound after it), or None when t1 and t2 do
    not unify. Other variables are rigid, and a node with a binder unifies
    only with an alpha-equal one. When t2 shares no variable with vars this
    is one-way matching, and every value is a subterm of t2.
    """
    var = _VAR_CLASS[_type_sort_of(t1)]
    out: dict = {}

    def resolve(t):
        while type(t) is var and t.name in out:
            t = out[t.name]
        return t

    def occurs(a: str, t) -> bool:
        t = resolve(t)
        if type(t) is var:
            return t.name == a
        if type(t) is tuple:
            return any(occurs(a, u) for u in t)
        shape = _SHAPES.get(type(t))
        return shape is not None and any(occurs(a, getattr(t, f))
                                         for f in shape.parts)

    def go(x, y) -> bool:
        x, y = resolve(x), resolve(y)
        if type(x) is var and x.name in vars:
            if x == y:
                return True
            if occurs(x.name, y):
                return False
            out[x.name] = y
            return True
        if type(y) is var and y.name in vars:
            return go(y, x)
        if type(x) is not type(y):
            return False
        if type(x) is tuple:
            return len(x) == len(y) and all(map(go, x, y))
        shape = _SHAPES.get(type(x))
        if shape is None or shape.var is not None:
            return x == y
        if shape.binder is not None:
            return alpha_eq(x, y)
        return all(go(getattr(x, f), getattr(y, f)) for f in shape.parts)

    return out if go(t1, t2) else None


# Friendly wrappers -----------------------------------------------------------

def _type_sort_of(node) -> str:
    shape = _SHAPES.get(type(node))
    if shape is None:
        raise TypeError(f"no type-variable sort for {type(node).__name__}")
    return shape.tsort


def subst_type(node, mapping: dict):
    """Substitute type variables (of the node's own language) in a type,
    constraint, dictionary or expression."""
    return subst(node, _type_sort_of(node), mapping)


def free_type_vars(node) -> list[str]:
    return free_vars(node, _type_sort_of(node))


def subst_fd_var(e: FdExpr, name: str, by: FdExpr) -> FdExpr:
    return subst(e, "iv", {name: by})


def subst_fd_dvar(e, name: str, by: FdDict):
    return subst(e, "id", {name: by})


def read_back(node, env: dict, sorts: tuple[str, ...]):
    """The term an evaluator closure stands for.

    env maps (sort, name) to a closure (node, env) of the variable's
    unevaluated value. Each free variable the environment binds is replaced
    by its closure's read-back term, with one subst per sort in the given
    order; a value read back for one sort must have no variable of a later
    sort.
    """
    if not env:
        return node
    for sort in sorts:
        mapping = {}
        for name in free_vars(node, sort):
            closure = env.get((sort, name))
            if closure is not None:
                mapping[name] = read_back(*closure, sorts)
        node = subst(node, sort, mapping)
    return node


# ---------------------------------------------------------------------------
# Context plugging
# ---------------------------------------------------------------------------

def count_holes(ctx: SrcExpr) -> int:
    if type(ctx) is SHole:
        return 1
    shape = _SHAPES.get(type(ctx))
    if shape is None:
        return 0
    return sum(count_holes(getattr(ctx, f)) for f in shape.parts)


def plug(ctx: SrcExpr, e: SrcExpr) -> SrcExpr:
    """Replace the unique hole by e verbatim; plugging may capture."""
    if type(ctx) is SHole:
        return e
    shape = _SHAPES.get(type(ctx))
    if shape is None:
        return ctx
    return type(ctx)(*[plug(getattr(ctx, f), e) for f in shape.fields])


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def _parens(s: str, need: bool) -> str:
    return f"({s})" if need else s


def pretty_src_mono(t: SrcMono, atom: bool = False) -> str:
    match t:
        case SBool():
            return "Bool"
        case STyVar(name):
            return name
        case SArrow(l, r):
            s = f"{pretty_src_mono(l, atom=True)} -> {pretty_src_mono(r)}"
            return _parens(s, atom)
    raise TypeError(t)


def pretty_src_constraint(q: SrcConstraint) -> str:
    return f"{q.cls} {pretty_src_mono(q.arg, atom=True)}"


def pretty_src_scheme(s: SrcScheme) -> str:
    parts = []
    if s.binders:
        parts.append("forall " + " ".join(s.binders) + ".")
    if s.context:
        ctx = ", ".join(pretty_src_constraint(q) for q in s.context)
        if len(s.context) > 1:
            ctx = f"({ctx})"
        parts.append(ctx + " =>")
    parts.append(pretty_src_mono(s.head))
    return " ".join(parts)


def pretty_src_expr(e: SrcExpr, prec: int = 0) -> str:
    # prec 0 = open, 1 = application operand position
    match e:
        case STrue():
            return "True"
        case SFalse():
            return "False"
        case SVar(name) | SMeth(name):
            return name
        case SHole():
            return "[]"
        case SLam(x, body):
            return _parens(f"\\{x}. {pretty_src_expr(body)}", prec > 0)
        case SLet(x, sch, bound, body):
            s = (f"let {x} : {pretty_src_scheme(sch)} = "
                 f"{pretty_src_expr(bound)} in {pretty_src_expr(body)}")
            return _parens(s, prec > 0)
        case SApp(f, a):
            s = f"{pretty_src_expr(f, 1)} {pretty_src_expr(a, 2)}"
            return _parens(s, prec > 1)
        case SAnn(inner, ty):
            return f"({pretty_src_expr(inner)} :: {pretty_src_mono(ty)})"
    raise TypeError(e)


def pretty_src_program(p: SrcProgram) -> str:
    lines = []
    for d in p.decls:
        if isinstance(d, ClassDecl):
            sup = ""
            if d.superclasses:
                items = ", ".join(f"{s} {d.var}" for s in d.superclasses)
                if len(d.superclasses) > 1:
                    items = f"({items})"
                sup = f"{items} => "
            lines.append(f"class {sup}{d.name} {d.var} where "
                         f"{{ {d.method} : {pretty_src_scheme(d.method_scheme)} }};")
        else:
            ctx = ""
            if d.context:
                items = ", ".join(pretty_src_constraint(q) for q in d.context)
                if len(d.context) > 1:
                    items = f"({items})"
                ctx = f"{items} => "
            lines.append(f"instance {ctx}{d.cls} {pretty_src_mono(d.head, atom=True)} "
                         f"where {{ {d.method} = {pretty_src_expr(d.body)} }};")
    lines.append(pretty_src_expr(p.main))
    return "\n".join(lines)


def pretty_fd_type(t: FdType, atom: bool = False) -> str:
    match t:
        case IBool():
            return "Bool"
        case ITyVar(name):
            return name
        case IArrow(l, r):
            return _parens(f"{pretty_fd_type(l, atom=True)} -> {pretty_fd_type(r)}",
                           atom)
        case IQArrow(q, r):
            return _parens(f"{pretty_fd_q(q)} -> {pretty_fd_type(r)}", atom)
        case IForall(a, body):
            return _parens(f"forall {a}. {pretty_fd_type(body)}", atom)
    raise TypeError(t)


def pretty_fd_q(q: FdQ) -> str:
    return f"[{q.cls} {pretty_fd_type(q.arg, atom=True)}]"


def pretty_fd_dict(d: FdDict) -> str:
    match d:
        case DVar(name):
            return name
        case DCon(name, tys, dicts):
            parts = [name]
            parts += [f"@{pretty_fd_type(t, atom=True)}" for t in tys]
            parts += [f"[{pretty_fd_dict(x)}]" for x in dicts]
            return " ".join(parts)
    raise TypeError(d)


def pretty_fd_expr(e: FdExpr, prec: int = 0) -> str:
    match e:
        case ITrue():
            return "True"
        case IFalse():
            return "False"
        case IVar(name):
            return name
        case ILam(x, ty, body):
            return _parens(f"\\{x} : {pretty_fd_type(ty)}. {pretty_fd_expr(body)}",
                           prec > 0)
        case IDLam(dv, q, body):
            return _parens(f"\\{dv} : {pretty_fd_q(q)}. {pretty_fd_expr(body)}",
                           prec > 0)
        case ITyLam(a, body):
            return _parens(f"/\\{a}. {pretty_fd_expr(body)}", prec > 0)
        case ILet(x, ty, bound, body):
            s = (f"let {x} : {pretty_fd_type(ty)} = {pretty_fd_expr(bound)} "
                 f"in {pretty_fd_expr(body)}")
            return _parens(s, prec > 0)
        case IApp(f, a):
            return _parens(f"{pretty_fd_expr(f, 1)} {pretty_fd_expr(a, 2)}",
                           prec > 1)
        case ITyApp(f, ty):
            return _parens(f"{pretty_fd_expr(f, 1)} @{pretty_fd_type(ty, atom=True)}",
                           prec > 1)
        case IDApp(f, d):
            return _parens(f"{pretty_fd_expr(f, 1)} [{pretty_fd_dict(d)}]",
                           prec > 1)
        case IMethod(d, m):
            return f"[{pretty_fd_dict(d)}].{m}"
    raise TypeError(e)


def pretty_tgt_type(t: TgtType, atom: bool = False) -> str:
    match t:
        case TBool():
            return "Bool"
        case TTyVar(name):
            return name
        case TArrow(l, r):
            return _parens(f"{pretty_tgt_type(l, atom=True)} -> {pretty_tgt_type(r)}",
                           atom)
        case TForall(a, body):
            return _parens(f"forall {a}. {pretty_tgt_type(body)}", atom)
        case TRecordTy(fs):
            inner = ", ".join(f"{l} : {pretty_tgt_type(ty)}" for l, ty in fs)
            return "{" + inner + "}"
    raise TypeError(t)


def pretty_tgt_expr(e: TgtExpr, prec: int = 0) -> str:
    match e:
        case TTrue():
            return "True"
        case TFalse():
            return "False"
        case TVar(name):
            return name
        case TLam(x, ty, body):
            return _parens(f"\\{x} : {pretty_tgt_type(ty)}. {pretty_tgt_expr(body)}",
                           prec > 0)
        case TTyLam(a, body):
            return _parens(f"/\\{a}. {pretty_tgt_expr(body)}", prec > 0)
        case TLet(x, ty, bound, body):
            s = (f"let {x} : {pretty_tgt_type(ty)} = {pretty_tgt_expr(bound)} "
                 f"in {pretty_tgt_expr(body)}")
            return _parens(s, prec > 0)
        case TApp(f, a):
            return _parens(f"{pretty_tgt_expr(f, 1)} {pretty_tgt_expr(a, 2)}",
                           prec > 1)
        case TTyApp(f, ty):
            return _parens(f"{pretty_tgt_expr(f, 1)} @{pretty_tgt_type(ty, atom=True)}",
                           prec > 1)
        case TRecord(fs):
            inner = ", ".join(f"{l} = {pretty_tgt_expr(x)}" for l, x in fs)
            return "{" + inner + "}"
        case TProj(inner, label):
            return f"{pretty_tgt_expr(inner, 2)}.{label}"
    raise TypeError(e)


def pretty(x) -> str:
    """Dispatching pretty printer for any AST node."""
    if isinstance(x, SrcProgram):
        return pretty_src_program(x)
    if isinstance(x, SrcMono):
        return pretty_src_mono(x)
    if isinstance(x, SrcScheme):
        return pretty_src_scheme(x)
    if isinstance(x, SrcConstraint):
        return pretty_src_constraint(x)
    if isinstance(x, SrcExpr):
        return pretty_src_expr(x)
    if isinstance(x, FdType):
        return pretty_fd_type(x)
    if isinstance(x, FdQ):
        return pretty_fd_q(x)
    if isinstance(x, FdDict):
        return pretty_fd_dict(x)
    if isinstance(x, FdExpr):
        return pretty_fd_expr(x)
    if isinstance(x, TgtType):
        return pretty_tgt_type(x)
    if isinstance(x, TgtExpr):
        return pretty_tgt_expr(x)
    raise TypeError(f"cannot pretty-print {type(x).__name__}")
