"""Abstract syntax for the three languages of the elaboration pipeline.

Three term languages live here: the surface language with type classes, the
intermediate language with first-class dictionaries, and the record-based
System F target. All nodes are immutable record classes built by `frozen`,
which reads their fields from their annotations and compiles their methods
once per template (field count, fields compared, `__post_init__`), renaming
a copy for each class, since importing the CLI takes much of a short run;
that is the only compilation, so a field named like a name the template
uses is rejected. The types of the three languages and the dictionaries
of the intermediate one are interned (`interned`): an equal type or
dictionary is the same object, which caches its hash and its free
variables, so the walks below stop at shared subtrees, and two distinct
ones without a binder are not alpha-equivalent.
One binding table, built at import, records each node class's
fields, variable sort, binder and binder scope. Free variables,
capture-avoiding substitution, alpha equivalence, first-order unification
and context plugging read only that table, for every sort of variable in
every language; so do the two walks over packed forests of derivations,
in which choice nodes (`IChoice`, `TChoice`) stand for alternatives:
`unpack` and `forest_eq`. `Unpacked` holds trees that are counted off a
forest and unpacked at their first read. One notation table gives each
node class its binding level and its printed form over its fields;
`pretty` is one walker over it that adds the parentheses precedence
needs, for all three languages. Choice nodes have no notation: they are
never printed.
"""

from __future__ import annotations

import itertools
from _string import formatter_parser  # what `string.Formatter.parse` calls
from collections import namedtuple
from operator import attrgetter, is_, itemgetter
from types import FunctionType

from _weakref import _remove_dead_weakref, ref


# ---------------------------------------------------------------------------
# Frozen record classes, compiled once per template
# ---------------------------------------------------------------------------

def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen_repr(self):
    return self.__class__.__qualname__ + "(" + ", ".join(
        f"{n}={getattr(self, n)!r}" for n in self._compared) + ")"


# The globals of every compiled method, and the templates by key: field
# count, the positions of the fields compared and whether the class has a
# `__post_init__`. An interned class's methods also read its table and
# the function that enters a new node in it, from globals of their own.
_setattr = object.__setattr__
_new = object.__new__
_FROZEN_GLOBALS = {"_setattr": _setattr}
_FROZEN_CODE = {}

# The methods a template compiles for a frozen class, and for an interned
# one.
_FROZEN_METHODS = ("__init__", "__eq__", "__hash__")
_INTERNED_METHODS = ("__new__", "__hash__")


def _frozen_template(arity, positions, post_init) -> tuple:
    """A template: by whether the class is interned, the code of the
    methods of a frozen class (`_FROZEN_METHODS`) and of an interned one
    (`_INTERNED_METHODS`), both from one `exec`, over the placeholder
    fields `_0`, `_1`, ..., with the names that code uses besides them;
    and the placeholders."""
    fields = tuple(f"_{i}" for i in range(arity))
    init = [f"  _setattr(self,{n!r},{n})" for n in fields]
    if post_init:
        init.append("  self.__post_init__()")
    own = "".join(f"self.{fields[i]}," for i in positions)
    other = "".join(f"other.{fields[i]}," for i in positions)
    # `__new__` returns the live node with the fields given, if there is
    # one, or enters a new one (`_interner`). Fields that `__post_init__`
    # changes are no key before it has run.
    key = "(" + "".join(fields[i] + "," for i in positions) + ")"
    new = f"  _ref=_table.get({key})\n  return _ref and _ref() or "
    ns = {}
    exec(f"def __new__({','.join(('_cls', *fields))}):\n"
         + ("  return " if post_init else new)
         + f"_intern(_cls,{key})\n"
         "def __hash__(self):\n"
         "  return self._hash\n"
         "_interned_hash=__hash__\n"
         f"def __init__({','.join(('self', *fields))}):\n"
         + ("\n".join(init) or "  pass") + "\n"
         "def __eq__(self, other):\n"
         "  if other.__class__ is self.__class__:\n"
         f"    return ({own})==({other})\n"
         "  return NotImplemented\n"
         "def __hash__(self):\n"
         f"  return hash(({own}))\n", _FROZEN_GLOBALS, ns)
    kinds = {False: tuple(ns[m].__code__ for m in _FROZEN_METHODS),
             True: (ns["__new__"].__code__, ns["_interned_hash"].__code__)}
    for kind, codes in kinds.items():
        used = {n for c in codes for n in (*c.co_varnames, *c.co_names)}
        kinds[kind] = codes, used.difference(fields)
    return kinds, fields


def _frozen_methods(owner, names, compared, post_init, interned) -> tuple:
    """The code of the methods of one shape of the class named owner,
    `_FROZEN_METHODS` or, if interned, `_INTERNED_METHODS`: its template's
    with each placeholder renamed to its field, the same code a
    compilation of the shape's own source gives. A field named like a
    name the methods use besides it would change what the code means, so
    it raises `TypeError`."""
    key = (len(names), tuple(i for i, n in enumerate(names) if n in compared),
           post_init)
    entry = _FROZEN_CODE.get(key)
    if entry is None:
        entry = _FROZEN_CODE[key] = _frozen_template(*key)
    kinds, fields = entry
    codes, used = kinds[interned]
    clash = [n for n in names if n in used]
    if clash:
        raise TypeError(f"{owner}: fields named like names its methods use: "
                        + ", ".join(map(repr, clash)))
    rename = dict(zip(fields, names))

    def renamed(items):
        return tuple([rename.get(n, n) for n in items])
    return tuple(c.replace(co_varnames=renamed(c.co_varnames),
                           co_names=renamed(c.co_names),
                           co_consts=renamed(c.co_consts)) for c in codes)


def frozen(cls, interned=False):
    """`@dataclass(frozen=True)` for a class that nothing subclasses,
    importing `dataclasses` only to raise its `FrozenInstanceError`.

    The fields are the class's own annotations, in order, and
    `__match_args__` names them; a value the class body gives one is its
    default. `__init__` (defaults and `__post_init__` included), `__eq__`
    and `__hash__` are the code `dataclass` generates for a frozen class.
    It is compiled in one `exec` per template (field count, the positions
    of the fields compared and `__post_init__`) over placeholder fields,
    and each class gets a copy with the placeholders renamed to its
    fields: the code its own source compiles to, in its own code object,
    because Python specializes attribute access per code object. A field
    named like a name its methods use (`self`, `other`, `hash`,
    `_setattr`, `NotImplemented`, `__class__`, `__post_init__`; those of
    an interned class use `self`, `_cls`, `_ref`, `_table`, `_intern` and
    `_hash`) raises `TypeError`. `__repr__` is one function over the
    fields compared.

    The fields a class names in `_derived` are functions of the others:
    like a dataclass field with `compare=False, repr=False`, each takes no
    part in `==`, hash or `repr`.

    An interned class (see `interned`) gets the template's `__new__` and
    cached `__hash__` instead of `__init__`, `__eq__` and `__hash__`. Every
    template compiles those in its one `exec` too, so a template a frozen
    class made first serves a later interned class without a second one.
    """
    body = vars(cls)
    annotations = body.get("__annotations__", {})
    names = tuple(annotations)
    defaults = tuple(body[n] for n in names if n in body)
    if any(n not in body for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: field without default after one "
                        f"with a default")
    compared = tuple(n for n in names if n not in body.get("_derived", ()))
    if interned and compared != names:
        raise TypeError(f"{cls.__name__}: an interned class compares every "
                        f"field")
    codes = _frozen_methods(cls.__name__, names, compared,
                            hasattr(cls, "__post_init__"), interned)
    globals_ = _FROZEN_GLOBALS
    if interned:
        table = _INTERNED[cls] = {}
        globals_ = {**globals_, "_table": table, "_intern": _interner(
            table, names, hasattr(cls, "__post_init__"))}
        cls.__reduce__ = _interned_reduce
    methods = _INTERNED_METHODS if interned else _FROZEN_METHODS
    for name, c, dflt in zip(methods, codes, (defaults or None, None, None)):
        fn = FunctionType(c, globals_, name, dflt)
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, staticmethod(fn) if name == "__new__" else fn)
    cls.__repr__ = _frozen_repr
    cls.__match_args__ = names
    cls._compared = compared
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    if not cls.__doc__:
        cls.__doc__ = f"{cls.__name__}(" + ", ".join(
            f"{n}: {ty!r}" + (f" = {body[n]!r}" if n in body else "")
            for n, ty in annotations.items()) + ")"
    return cls


# ---------------------------------------------------------------------------
# Interned (hash-consed) record classes
#
# Building a node of an interned class returns the one live node with equal
# fields, so `==` is `is` and a value shared in a term is one object that
# walks meet again. Each class keeps its nodes in a weak table: a dict
# from the tuple of a node's fields to a weak reference that carries that
# key, whose callback removes the entry when the node dies. A new node
# caches its hash, that of its field tuple as a frozen class computes it,
# its free variables of every sort and whether it holds a binder, all read
# off its children's. Cached facts live in the node's `__dict__` and never
# reach a copy or a pickle: `__reduce__` rebuilds the node through
# `__new__`, which finds or enters it in the table of that process.
# ---------------------------------------------------------------------------

# Every interned class -> its table.
_INTERNED: dict = {}


class _Entry(ref):
    """A table entry: a weak reference to a node, and the node's key."""
    __slots__ = ("key",)


def _interner(table, names, post_init):
    """The function that builds a node of an interned class from its
    fields, names, and enters it in table, the class's. Where the class
    has a `__post_init__`, the key is the fields it leaves, and a live
    node with those is returned instead."""
    def forget(entry):
        _remove_dead_weakref(table, entry.key)

    def intern(cls, key):
        node = _new(cls)
        for name, value in zip(names, key):
            _setattr(node, name, value)
        if post_init:
            node.__post_init__()
            key = tuple([getattr(node, name) for name in names])
            entry = table.get(key)
            old = entry and entry()
            if old is not None:
                return old
        _setattr(node, "_hash", hash(key))
        fv, binds = _facts(node)
        _setattr(node, "_fv", fv)
        _setattr(node, "_binds", binds)
        entry = table[key] = _Entry(node, forget)
        entry.key = key
        return node
    return intern


def _interned_reduce(self):
    return self.__class__, tuple([getattr(self, n)
                                  for n in self.__match_args__])


def interned(cls):
    """`frozen`, and hash-consed: building a node returns the live node
    with equal fields if there is one (see `_INTERNED`). Its class keeps
    `object`'s `__init__` and `__eq__`, which is identity."""
    return frozen(cls, interned=True)


def _facts(node) -> tuple:
    """The free variables of the new interned node, as (sort, name) pairs
    in the order of their first occurrence, and whether it holds a
    binder: read off its children's."""
    shape = _SHAPES[type(node)]
    if shape.var is not None:
        return ((shape.var, node.name),), False
    binds = shape.binder is not None
    bound = ()
    if binds:
        names = getattr(node, shape.binder)
        bound = {(shape.bsort, n)
                 for n in (names if type(names) is tuple else (names,))}
    out = ()
    for f in shape.parts:
        v = getattr(node, f)
        if type(v) in _INTERNED:
            fv, b = v._fv, v._binds
        elif type(v) is str:
            continue
        else:
            fv, b = _value_facts(v)
        binds = binds or b
        if bound and fv and f in shape.scope:
            fv = tuple([pair for pair in fv if pair not in bound])
        if fv:
            out = tuple(dict.fromkeys(out + fv)) if out else fv
    return out, binds


def _value_facts(v) -> tuple:
    """`_facts` of a field value: a node, a tuple or an atom."""
    cls = type(v)
    if cls in _INTERNED:
        return v._fv, v._binds
    if cls is tuple:
        out, binds = {}, False
        for item in v:
            fv, b = _value_facts(item)
            out.update(dict.fromkeys(fv))
            binds = binds or b
        return tuple(out), binds
    if cls in _SHAPES:
        return tuple((sort, n) for sort, names in _free_by_sort(v).items()
                     for n in names), True
    return (), False


# ---------------------------------------------------------------------------
# Source language
# ---------------------------------------------------------------------------

class SrcMono:
    """Base class for source monotypes."""


@interned
class SBool(SrcMono):
    pass


@interned
class STyVar(SrcMono):
    name: str


@interned
class SArrow(SrcMono):
    left: SrcMono
    right: SrcMono


@interned
class SrcConstraint:
    cls: str
    arg: SrcMono


@frozen
class SrcScheme:
    """Flattened type scheme: forall binders. context => head."""
    binders: tuple[str, ...]
    context: tuple[SrcConstraint, ...]
    head: SrcMono


@frozen
class SrcConstraintScheme:
    binders: tuple[str, ...]
    context: tuple[SrcConstraint, ...]
    head: SrcConstraint


class SrcExpr:
    """Base class for source expressions (and expression contexts)."""


@frozen
class STrue(SrcExpr):
    pass


@frozen
class SFalse(SrcExpr):
    pass


@frozen
class SVar(SrcExpr):
    name: str


@frozen
class SLam(SrcExpr):
    param: str
    body: SrcExpr


@frozen
class SApp(SrcExpr):
    fun: SrcExpr
    arg: SrcExpr


@frozen
class SLet(SrcExpr):
    # Non-recursive: name scopes over body only.
    name: str
    scheme: SrcScheme
    bound: SrcExpr
    body: SrcExpr


@frozen
class SAnn(SrcExpr):
    expr: SrcExpr
    ty: SrcMono


@frozen
class SHole(SrcExpr):
    # Only legal inside expression contexts.
    pass


@frozen
class ClassDecl:
    superclasses: tuple[str, ...]
    name: str
    var: str
    method: str
    method_scheme: SrcScheme


@frozen
class InstDecl:
    context: tuple[SrcConstraint, ...]
    cls: str
    head: SrcMono
    method: str
    body: SrcExpr


@frozen
class SrcProgram:
    decls: tuple[object, ...]
    main: SrcExpr


# ---------------------------------------------------------------------------
# Intermediate language (System F + first-class dictionaries)
# ---------------------------------------------------------------------------

class FdType:
    pass


@interned
class IBool(FdType):
    pass


@interned
class ITyVar(FdType):
    name: str


@interned
class IArrow(FdType):
    left: FdType
    right: FdType


@interned
class FdQ:
    cls: str
    arg: FdType


@interned
class IQArrow(FdType):
    q: FdQ
    result: FdType


@interned
class IForall(FdType):
    var: str
    body: FdType


@frozen
class FdConstraintScheme:
    binders: tuple[str, ...]
    context: tuple[FdQ, ...]
    head: FdQ


class FdDict:
    pass


@interned
class DVar(FdDict):
    name: str


@interned
class DCon(FdDict):
    name: str
    type_args: tuple[FdType, ...]
    dict_args: tuple[FdDict, ...]


class FdExpr:
    pass


@frozen
class ITrue(FdExpr):
    pass


@frozen
class IFalse(FdExpr):
    pass


@frozen
class IVar(FdExpr):
    name: str


@frozen
class ILam(FdExpr):
    param: str
    ty: FdType
    body: FdExpr


@frozen
class IApp(FdExpr):
    fun: FdExpr
    arg: FdExpr


@frozen
class IDLam(FdExpr):
    param: str
    q: FdQ
    body: FdExpr


@frozen
class IDApp(FdExpr):
    fun: FdExpr
    arg: FdDict


@frozen
class ITyLam(FdExpr):
    param: str
    body: FdExpr


@frozen
class ITyApp(FdExpr):
    fun: FdExpr
    ty: FdType


@frozen
class IMethod(FdExpr):
    dict: FdDict
    method: str


@frozen
class ILet(FdExpr):
    name: str
    ty: FdType
    bound: FdExpr
    body: FdExpr


@frozen
class IChoice:
    """The derivations of one judgment, terms or dictionaries, that the
    typer found in place of one (an OR node of a packed forest, see
    `unpack`). Never printed or evaluated."""
    alts: tuple


@frozen
class MethodImpl:
    """One entry of the global method environment."""
    con: str
    scheme: FdConstraintScheme
    method: str
    impl: FdExpr



@frozen
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


@interned
class TBool(TgtType):
    pass


@interned
class TTyVar(TgtType):
    name: str


@interned
class TArrow(TgtType):
    left: TgtType
    right: TgtType


@interned
class TForall(TgtType):
    var: str
    body: TgtType


@interned
class TRecordTy(TgtType):
    # Label -> type, kept sorted by label: records are label-indexed.
    fields: tuple[tuple[str, TgtType], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "fields",
            tuple(sorted(self.fields, key=lambda kv: kv[0])))


class TgtExpr:
    pass


@frozen
class TTrue(TgtExpr):
    pass


@frozen
class TFalse(TgtExpr):
    pass


@frozen
class TVar(TgtExpr):
    name: str


@frozen
class TLam(TgtExpr):
    param: str
    ty: TgtType
    body: TgtExpr


@frozen
class TApp(TgtExpr):
    fun: TgtExpr
    arg: TgtExpr


@frozen
class TTyLam(TgtExpr):
    param: str
    body: TgtExpr


@frozen
class TTyApp(TgtExpr):
    fun: TgtExpr
    ty: TgtType


@frozen
class TRecord(TgtExpr):
    fields: tuple[tuple[str, TgtExpr], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "fields",
            tuple(sorted(self.fields, key=lambda kv: kv[0])))


@frozen
class TProj(TgtExpr):
    expr: TgtExpr
    label: str


@frozen
class TLet(TgtExpr):
    name: str
    ty: TgtType
    bound: TgtExpr
    body: TgtExpr


@frozen
class TChoice:
    """The translations of the alternatives of one IChoice, in order."""
    alts: tuple


# ---------------------------------------------------------------------------
# Typing-environment building blocks (shared shape across languages)
# ---------------------------------------------------------------------------

@frozen
class TermBind:
    name: str
    ty: object


@frozen
class TyVarBind:
    name: str


@frozen
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
    IChoice: "ic", TChoice: "ta",
}


# fields: every field, in declaration order; parts: the fields other than
# the binder field; var: the sort of a variable class; binder: the field
# holding the bound name(s); bsort: their sort; scope: the fields the binder
# scopes over; tsort: the type-variable sort of the language.
_Shape = namedtuple("_Shape", "fields parts var binder bsort scope tsort")


def _shape(cls, tsort: str) -> _Shape:
    names = cls.__match_args__
    binder, bsort, scope = _BINDERS.get(cls, (None, None, ()))
    return _Shape(names, tuple(n for n in names if n != binder),
                  _VAR_SORT.get(cls), binder, bsort, frozenset(scope), tsort)


# Every AST class -> its shape. Anything else (names, labels) is an atom.
_SHAPES = {cls: _shape(cls, tsort)
           for base, tsort in _TYPE_SORT.items()
           for cls in (base, *base.__subclasses__())
           if hasattr(cls, "__match_args__")}


def _bound_names(node, shape: _Shape) -> tuple[str, ...]:
    value = getattr(node, shape.binder)
    return (value,) if isinstance(value, str) else value


def free_vars(node, sort: str) -> list[str]:
    """Free variables of the given sort, first occurrence order, no dups."""
    return list(_free_by_sort(node).get(sort, ()))


def _free_by_sort(node) -> dict[str, dict[str, None]]:
    """Free variables of every sort, in one walk: sort -> ordered names."""
    out: dict[str, dict[str, None]] = {}

    def go(x, bound):
        cls = type(x)
        if cls in _INTERNED:
            for pair in x._fv:
                if pair not in bound:
                    out.setdefault(pair[0], {})[pair[1]] = None
            return
        if cls is tuple:
            for item in x:
                go(item, bound)
            return
        shape = _SHAPES.get(cls)
        if shape is None:
            return
        if shape.var is not None:
            if (shape.var, x.name) not in bound:
                out.setdefault(shape.var, {})[x.name] = None
            return
        inner = bound
        if shape.binder is not None:
            inner = bound | {(shape.bsort, n) for n in _bound_names(x, shape)}
        for f in shape.parts:
            go(getattr(x, f), inner if f in shape.scope else bound)

    go(node, frozenset())
    return out


def subst(node, sort: str, mapping: dict):
    """Simultaneous capture-avoiding substitution of variables of one sort.

    A binder, of any sort, is renamed only when it would capture a free
    variable of its own sort in the mapping's range. It then takes its
    smallest primed variant that is free neither in its scope nor in the
    mapping. The range's free variables of every sort are computed in one
    walk of each range value, when the first binder is met. A node or
    tuple none of whose parts changes is returned as it is; an interned
    node that holds no binder and no free variable the mapping replaces
    is returned without a walk.
    """
    if not mapping:
        return node
    # Range key -> sort -> free names, and sort -> all of them.
    range_fvs = every = None

    def go(x, m):
        nonlocal range_fvs, every
        if not m:
            return x
        cls = type(x)
        if cls in _INTERNED and not x._binds:
            for s, n in x._fv:
                if s == sort and n in m:
                    break
            else:
                return x
        if cls is tuple:
            values = [go(item, m) for item in x]
            return x if all(map(is_, values, x)) else tuple(values)
        shape = _SHAPES.get(cls)
        if shape is None:
            return x
        if shape.var is not None:
            return m.get(x.name, x) if shape.var == sort else x
        bsort = shape.bsort
        if bsort is None:
            olds = [getattr(x, f) for f in shape.fields]
            values = [go(v, m) for v in olds]
            return x if all(map(is_, values, olds)) else cls(*values)
        names = _bound_names(x, shape)
        inner = m
        if bsort == sort and any(n in m for n in names):
            inner = {k: v for k, v in m.items() if k not in names}
        new_names, renames = names, None
        if range_fvs is None:
            range_fvs = {k: _free_by_sort(v) for k, v in mapping.items()}
            every = {}
            for fvs in range_fvs.values():
                for s, ns in fvs.items():
                    every.setdefault(s, set()).update(ns)
        some_fv = every.get(bsort)
        if some_fv and any(n in some_fv for n in names):
            clash = set().union(*(range_fvs[k].get(bsort, ()) for k in inner))
            if any(n in clash for n in names):
                new_names, renames = _rename_binders(
                    x, shape, clash, inner if bsort == sort else ())
        values, same = [], renames is None
        for f in shape.fields:
            old = v = getattr(x, f)
            if f == shape.binder:
                v = new_names[0] if isinstance(v, str) else new_names
            elif f in shape.scope:
                if renames:
                    v = subst(v, bsort, renames)
                v = go(v, inner)
            else:
                v = go(v, m)
            same = same and v is old
            values.append(v)
        return x if same else cls(*values)

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
    """Equality up to consistent renaming of bound variables.

    Nodes of different classes are never alpha-equal, and equal nodes
    always are. Two distinct nodes of one interned class differ in
    structure, so they are alpha-equal only if both hold a binder; only
    those and the rest take the renaming walk."""
    if a is b:
        return True
    cls = type(a)
    if cls is not type(b):
        return False
    if cls in _INTERNED:
        return a._binds and b._binds and _alpha_walk(a, b)
    return a == b or _alpha_walk(a, b)


def _alpha_walk(a, b) -> bool:
    """alpha_eq's walk, which renames bound variables apart as it goes."""
    counter = itertools.count()

    def go(x, y, env1, env2):
        cls = type(x)
        if x is y and cls in _INTERNED:
            # The same node: alpha-equal unless a free variable is bound
            # apart in the two environments.
            return all(env1.get(p) == env2.get(p) for p in x._fv)
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


# ---------------------------------------------------------------------------
# Packed forests
#
# A forest is a node of the intermediate or the target language in which
# choice nodes stand where a judgment had alternatives. It stands for the
# trees made by replacing every occurrence of a choice by one of its
# alternatives, independently at each occurrence. A subforest may occur
# many times (the typer resolves a constraint once per judgment), so a
# forest is a DAG whose trees can outnumber its nodes exponentially. Both
# walks below visit each shared object once.
# ---------------------------------------------------------------------------

_TYPES = (FdType, FdQ, TgtType)


def unpack(forest, limit: int) -> list:
    """The first limit trees of forest, in lexicographic order: the choice
    occurrences in pre-order (fields left to right), the first varying
    slowest, each over its alternatives in order. So the trees of a
    forest of enumerated judgments come in the order of their Cartesian
    products, and its first limit trees are the products of the first
    limit trees of the factors. Each subforest is unpacked once, to at
    most limit trees, and a subtree without choices is shared by every
    tree, as is each tree of a subforest."""
    memo: dict = {}     # id(subforest) -> its trees, or None if it has none

    def trees(x):
        if type(x) is str:
            return None
        key = id(x)
        if key not in memo:
            memo[key] = build(x)
        return memo[key]

    def build(x):
        cls = type(x)
        if cls is IChoice or cls is TChoice:
            out = []
            for alt in x.alts:
                if len(out) >= limit:
                    break
                alt_trees = trees(alt)
                out.extend((alt,) if alt_trees is None else alt_trees)
            return out[:limit]
        if cls is tuple:
            parts = x
        else:
            shape = _SHAPES.get(cls)
            if shape is None or shape.var or issubclass(cls, _TYPES):
                return None
            parts = [getattr(x, f) for f in shape.fields]
        part_trees = [trees(p) for p in parts]
        if all(t is None for t in part_trees):
            return None
        combinations = itertools.islice(itertools.product(*[
            (p,) if t is None else t for p, t in zip(parts, part_trees)]),
            limit)
        if cls is tuple:
            return list(combinations)
        return [cls(*c) for c in combinations]

    out = trees(forest)
    return [forest][:limit] if out is None else out


class Unpacked:
    """A tuple of n trees, counted off a forest, that build() unpacks at
    the first read of one and that keeps them: its length and truth need
    no enumeration. That build() made n trees is checked when it runs,
    since a miscounted forest would otherwise drop trees unseen. It
    compares, hashes, prints, copies and pickles as the tuple of its
    trees."""

    __slots__ = ("_n", "_build", "_trees")

    def __init__(self, n: int, build):
        self._n, self._build, self._trees = n, build, None

    def _read(self) -> tuple:
        if self._build is not None:
            trees = tuple(self._build())
            if len(trees) != self._n:
                raise RuntimeError(f"unpacked {len(trees)} trees of a "
                                   f"forest counted to have {self._n}")
            self._trees, self._build = trees, None
        return self._trees

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other):
        if isinstance(other, Unpacked):
            other = other._read()
        return self._read() == other if isinstance(other, tuple) \
            else NotImplemented

    def __hash__(self):
        return hash(self._read())

    def __repr__(self):
        return repr(self._read())

    def __reduce__(self):
        return tuple, (self._read(),)


def forest_eq(a, b) -> bool:
    """a == b on two forests, comparing each pair of shared subforests
    once: equal forests have equal trees, pairwise in unpacking order."""
    same = set()

    def go(x, y):
        if x is y:
            return True
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is tuple:
            return len(x) == len(y) and all(map(go, x, y))
        shape = _SHAPES.get(cls)
        if shape is None or issubclass(cls, _TYPES):
            return x == y
        key = (id(x), id(y))
        if key not in same:
            if not all(go(getattr(x, f), getattr(y, f))
                       for f in shape.fields):
                return False
            same.add(key)
        return True

    return go(a, b)


def unify(t1, t2, vars: set[str]):
    """Most general unifier of t1 and t2 over the type variables in vars.

    First-order with occurs check. The result is triangular (a variable's
    value may mention variables bound after it), or None when t1 and t2 do
    not unify. Other variables are rigid, and a node with a binder unifies
    only with an alpha-equal one. When t2 shares no variable with vars this
    is one-way matching, and every value is a subterm of t2. A node
    unifies with itself at once, and the occurs check reads an interned
    binder-free node's cached free variables.
    """
    sort = _type_sort_of(t1)
    var = _VAR_CLASS[sort]
    out: dict = {}

    def resolve(t):
        while type(t) is var and t.name in out:
            t = out[t.name]
        return t

    def occurs(a: str, t) -> bool:
        t = resolve(t)
        cls = type(t)
        if cls is var:
            return t.name == a
        if cls in _INTERNED and not t._binds:
            return any(s == sort and (n == a or n in out
                                      and occurs(a, out[n]))
                       for s, n in t._fv)
        if cls is tuple:
            return any(occurs(a, u) for u in t)
        shape = _SHAPES.get(cls)
        return shape is not None and any(occurs(a, getattr(t, f))
                                         for f in shape.parts)

    def go(x, y) -> bool:
        x, y = resolve(x), resolve(y)
        if x is y:
            return True
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
    """The holes of ctx. An application spine is walked in a loop, so a
    long one does not nest a call per argument."""
    n = 0
    while type(ctx) is SApp:
        n += count_holes(ctx.arg)
        ctx = ctx.fun
    if type(ctx) is SHole:
        return n + 1
    shape = _SHAPES.get(type(ctx))
    if shape is None:
        return n
    return n + sum(count_holes(getattr(ctx, f)) for f in shape.parts)


def plug(ctx: SrcExpr, e: SrcExpr) -> SrcExpr:
    """Replace the unique hole by e verbatim; plugging may capture. An
    application spine is rebuilt in a loop, as count_holes walks it."""
    args = []
    while type(ctx) is SApp:
        args.append(ctx.arg)
        ctx = ctx.fun
    if type(ctx) is SHole:
        ctx = e
    elif (shape := _SHAPES.get(type(ctx))) is not None:
        ctx = type(ctx)(*[plug(getattr(ctx, f), e) for f in shape.fields])
    for a in reversed(args):
        ctx = SApp(ctx, plug(a, e))
    return ctx


# ---------------------------------------------------------------------------
# Pretty printing
#
# One table gives each node class its binding level (0 binders and arrows,
# 1 applications, 2 atoms) and its notation, a format string over its
# fields: "{f}" prints field f at level 0, "{f:L}" at least at level L, so
# the walker parenthesises a child that binds more loosely; a name field
# prints verbatim. "{f:NOTE*SEP}" prints the items of tuple field f, each by
# the notation NOTE ("{}" is the item, "{0}" its first part), separated by
# SEP. Schemes and programs keep functions: their layout is conditional.
# ---------------------------------------------------------------------------

def _context(items: list[str]) -> str:
    """A context before "=>": nothing, one item, or a parenthesised list."""
    if not items:
        return ""
    text = ", ".join(items)
    return (f"({text})" if len(items) > 1 else text) + " => "


def _show_scheme(s: SrcScheme) -> str:
    binders = f"forall {' '.join(s.binders)}. " if s.binders else ""
    return binders + _context([_show(q) for q in s.context]) + _show(s.head)


def _show_program(p: SrcProgram) -> str:
    lines = []
    for d in p.decls:
        if isinstance(d, ClassDecl):
            sup = _context([f"{s} {d.var}" for s in d.superclasses])
            lines.append(f"class {sup}{d.name} {d.var} where "
                         f"{{ {d.method} : {_show(d.method_scheme)} }};")
        else:
            ctx = _context([_show(q) for q in d.context])
            lines.append(f"instance {ctx}{d.cls} {_show(d.head, 2)} "
                         f"where {{ {d.method} = {_show(d.body)} }};")
    lines.append(_show(p.main))
    return "\n".join(lines)


_NOTATION = {
    # Shared by the languages
    **dict.fromkeys((SBool, IBool, TBool), (2, "Bool")),
    **dict.fromkeys((STrue, ITrue, TTrue), (2, "True")),
    **dict.fromkeys((SFalse, IFalse, TFalse), (2, "False")),
    **dict.fromkeys((STyVar, SVar, ITyVar, IVar, DVar, TTyVar, TVar),
                    (2, "{name}")),
    **dict.fromkeys((SArrow, IArrow, TArrow), (0, "{left:2} -> {right}")),
    **dict.fromkeys((IForall, TForall), (0, "forall {var}. {body}")),
    **dict.fromkeys((ILam, TLam), (0, r"\{param} : {ty}. {body}")),
    **dict.fromkeys((ITyLam, TTyLam), (0, r"/\{param}. {body}")),
    **dict.fromkeys((ILet, TLet),
                    (0, "let {name} : {ty} = {bound} in {body}")),
    **dict.fromkeys((SApp, IApp, TApp), (1, "{fun:1} {arg:2}")),
    **dict.fromkeys((ITyApp, TTyApp), (1, "{fun:1} @{ty:2}")),
    # Source
    SrcConstraint: (1, "{cls} {arg:2}"),
    SrcScheme: (0, _show_scheme),
    SHole: (2, "[]"),
    SLam: (0, r"\{param}. {body}"),
    SLet: (0, "let {name} : {scheme} = {bound} in {body}"),
    SAnn: (2, "({expr} :: {ty})"),
    SrcProgram: (0, _show_program),
    # Intermediate
    IQArrow: (0, "{q} -> {result}"),
    FdQ: (2, "[{cls} {arg:2}]"),
    DCon: (1, "{name}{type_args: @{:2}*}{dict_args: [{}]*}"),
    IDLam: (0, r"\{param} : {q}. {body}"),
    IDApp: (1, "{fun:1} [{arg}]"),
    IMethod: (2, "[{dict}].{method}"),
    # Target
    TRecordTy: (2, "{{{fields:{0} : {1}*, }}}"),
    TRecord: (2, "{{{fields:{0} = {1}*, }}}"),
    TProj: (2, "{expr:2}.{label}"),
}


def _compile(notation: str) -> tuple:
    """A notation as pieces (literal, getter, level, items): the literal
    comes before the field the getter reads; items is None or, for a tuple
    field, its separator and its items' compiled notation."""
    pieces = []
    for literal, name, spec, _ in formatter_parser(notation):
        if name is None:
            pieces.append((literal, None, 0, None))
            continue
        if not name:
            get = _itself
        elif name.isdigit():
            get = itemgetter(int(name))
        else:
            get = attrgetter(name)
        if "*" in spec:
            note, sep = spec.rsplit("*", 1)
            pieces.append((literal, get, 0, (sep, (2, _compile(note)))))
        else:
            pieces.append((literal, get, int(spec or 0), None))
    return tuple(pieces)


def _itself(x):
    return x


_TABLE = {cls: (level, _compile(n) if isinstance(n, str) else n)
          for cls, (level, n) in _NOTATION.items()}


def _show(x, need: int = 0, note=None) -> str:
    """x printed by its notation (or by note), in parentheses when it binds
    more loosely than level need."""
    level, pieces = note or _TABLE[type(x)]
    if type(pieces) is not tuple:
        text = pieces(x)
    else:
        out = []
        for literal, get, at, items in pieces:
            out.append(literal)
            if get is None:
                continue
            v = get(x)
            if items is not None:
                sep, item = items
                out.append(sep.join([_show(e, 0, item) for e in v]))
            elif type(v) is str:
                out.append(v)
            else:
                out.append(_show(v, at))
        text = "".join(out)
    return f"({text})" if level < need else text


def pretty(x) -> str:
    """Pretty printer for any node of the three languages."""
    if type(x) not in _TABLE:
        raise TypeError(f"cannot pretty-print {type(x).__name__}")
    return _show(x)
