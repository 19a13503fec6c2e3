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
dictionary is the same object, hashed by its identity, and two distinct
ones without a binder are not alpha-equivalent. Every node caches its
free variables and whether it holds a binder: an interned one when it is
built, as does one `with_facts` wraps, any other at the first query
(`_fact_walk`). So the walks below stop at shared subtrees, and `subst`
leaves a subtree with nothing to replace unwalked.
One binding table, built at import, records each node class's
fields, variable sort, binder and binder scope. Free variables,
capture-avoiding substitution, alpha equivalence, first-order unification
and context plugging read only that table, for every sort of variable in
every language; so do the two walks over packed forests of derivations,
in which choice nodes (`IChoice`, `TChoice`) stand for alternatives:
`unpack` and `forest_eq`, and the count of a forest's trees that
`tree_count`, `tree_at` and `Forks` read. `Unpacked` holds trees that are
counted off a forest and unpacked at their first read; `Forks` holds the
branches of an evaluation of a whole forest. One notation table gives each
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
_INTERNED_METHODS = ("__new__",)


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
         f"def __init__({','.join(('self', *fields))}):\n"
         + ("\n".join(init) or "  pass") + "\n"
         "def __eq__(self, other):\n"
         "  if other.__class__ is self.__class__:\n"
         f"    return ({own})==({other})\n"
         "  return NotImplemented\n"
         "def __hash__(self):\n"
         f"  return hash(({own}))\n", _FROZEN_GLOBALS, ns)
    kinds = {False: tuple(ns[m].__code__ for m in _FROZEN_METHODS),
             True: tuple(ns[m].__code__ for m in _INTERNED_METHODS)}
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
    an interned class use `_cls`, `_ref`, `_table`, `get` and `_intern`)
    raises `TypeError`. `__repr__` is one function over the fields compared.

    The fields a class names in `_derived` are functions of the others:
    like a dataclass field with `compare=False, repr=False`, each takes no
    part in `==`, hash or `repr`.

    An interned class (see `interned`) gets the template's `__new__` and
    keeps `object`'s `__init__`, `__eq__` and `__hash__`. Every template
    compiles that `__new__` in its one `exec` too, so a template a frozen
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
        cls.__reduce__ = _reduce
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
# key, whose callback removes the entry when the node dies. Equal nodes
# being one object, a node keeps `object`'s hash, its identity, so a
# lookup keyed by one runs no Python code.
# Every node caches its facts, its free variables of every sort and
# whether it holds a binder, read off its children's: an interned node at
# construction, a generated one too (`with_facts`), any other at the first
# query, with its uncached subtrees (`_fact_walk`). A source type caches
# its intermediate translation, built at its first `elab_mono`, and a
# term its types (`_types`, see `fd_core.FdChecker`). Cached facts live
# in the node's `__dict__` and never reach a copy or a pickle:
# `__reduce__` rebuilds the node from its fields, through `__new__`,
# which finds or enters an interned node in the table of that process.
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
        _facts(node)
        entry = table[key] = _Entry(node, forget)
        entry.key = key
        return node
    return intern


def _reduce(self):
    """A node's `__reduce__`: rebuilt from its fields, with no cached fact."""
    return self.__class__, tuple([getattr(self, n)
                                  for n in self.__match_args__])


def interned(cls):
    """`frozen`, and hash-consed: building a node returns the live node
    with equal fields if there is one (see `_INTERNED`). Its class keeps
    `object`'s `__init__`, `__eq__` and `__hash__`, which are identity."""
    return frozen(cls, interned=True)


def _facts(node):
    """Cache the facts of the new interned node, read off its parts'
    (`_fact_walk`)."""
    _fact_walk(node)


def _fact_walk(root) -> tuple:
    """Compute and cache the facts of root, a node that has none yet, and
    of every frozen node under it that has none, each once, its parts
    first; return root's free variables. A node's facts are its free
    variables, as (sort, name) pairs in the order of their first
    occurrence, and whether it holds a binder, read off its parts'. The
    walk keeps its own stack, so a term of any depth is walked: a node
    stays on it, under the parts it has pushed, until every part has its
    facts. A variable part gets them at once."""
    stack = [root]
    while stack:
        x = stack[-1]
        if x._fv is not None:       # pushed twice, by two parents
            stack.pop()
            continue
        var, binder, bsort, parts = _RECIPES[type(x)]
        out = ((var, x.name),) if var is not None else ()
        binds, waiting = binder is not None, False
        for f, scoped in parts:
            v = getattr(x, f)
            cls = type(v)
            if cls in _SHAPES:
                fv = v._fv
                if fv is None:
                    sort = _VAR_SORT.get(cls)
                    if sort is None:
                        stack.append(v)
                        waiting = True
                        continue
                    fv = ((sort, v.name),)
                    _setattr(v, "_fv", fv)
                    _setattr(v, "_binds", False)
                elif v._binds:
                    binds = True
            elif cls is tuple:
                facts = _tuple_facts(v, stack)
                if facts is None:
                    waiting = True
                    continue
                fv, b = facts
                binds = binds or b
            else:
                continue
            if waiting or not fv:
                continue
            if scoped:
                names = getattr(x, binder)
                if type(names) is not tuple:
                    bound = (bsort, names)
                    fv = tuple([pair for pair in fv if pair != bound])
                else:
                    fv = tuple([(s, n) for s, n in fv
                                if s != bsort or n not in names])
            if fv:
                out = tuple(dict.fromkeys(out + fv)) if out else fv
        if not waiting:
            stack.pop()
            _setattr(x, "_fv", out)
            _setattr(x, "_binds", binds)
    return root._fv


def with_facts(node):
    """node, its facts cached and read off its parts': `_fact_walk`'s
    one-level case, for a new node over parts that have theirs, as the
    term generator builds. Other parts, or a tuple of parts, are walked."""
    var, binder, bsort, parts = _RECIPES[type(node)]
    out, binds = ((var, node.name),) if var else (), binder is not None
    for f, scoped in parts:
        v = getattr(node, f)
        try:
            fv = v._fv
        except AttributeError:          # a name, or a tuple of parts
            if type(v) is tuple:
                _fact_walk(node)
                return node
            continue
        if fv is None:
            fv = _fact_walk(v)
        binds = binds or v._binds
        if scoped and (bound := (bsort, getattr(node, binder))) in fv:
            fv = tuple([pair for pair in fv if pair != bound])
        if fv:
            out = tuple(dict.fromkeys(out + fv)) if out else fv
    _setattr(node, "_fv", out)
    _setattr(node, "_binds", binds)
    return node


def _tuple_facts(items: tuple, pending) -> tuple | None:
    """The facts of a tuple field, read off its items' in order; or None
    if a frozen item has none yet, and each such item is then appended to
    pending."""
    out, binds, waiting = {}, False, False
    for v in items:
        cls = type(v)
        if cls is tuple:
            facts = _tuple_facts(v, pending)
            if facts is None:
                waiting = True
                continue
            fv, b = facts
        elif cls in _SHAPES:
            fv = v._fv
            if fv is None:
                pending.append(v)
                waiting = True
                continue
            b = v._binds
        else:
            continue
        out.update(dict.fromkeys(fv))
        binds = binds or b
    return None if waiting else (tuple(out), binds)


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
    `unpack`). Never printed, and evaluated only at a position of a
    forest (see `Forks`)."""
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

# Every AST class -> what `_fact_walk` reads: its variable sort, binder
# field and binder sort, and each of its parts, none for a variable, with
# whether the binder scopes over it.
_RECIPES = {cls: (shape.var, shape.binder, shape.bsort,
                  () if shape.var else tuple((f, f in shape.scope)
                                             for f in shape.parts))
            for cls, shape in _SHAPES.items()}

# A node has no facts until they are cached: an interned node at once, a
# frozen one at the first query (`_fact_walk`), and no types until it is
# typed. A copy or a pickle of a frozen node has none either. A first
# node of each frozen class that sets its fields and then its facts
# makes CPython leave room for the facts of every later node beside its
# fields; a node made before the first of its class cached facts would
# otherwise keep them in a dict of its own, about 240 bytes more. Room
# for types would cost every node 8-24 bytes and save a typed one none.
for cls in _SHAPES:
    cls._fv = cls._binds = cls._types = None
    if cls in _INTERNED:
        continue
    cls.__reduce__ = _reduce
    first = _new(cls)
    for name in (*cls.__match_args__, "_fv", "_binds"):
        _setattr(first, name, None)
del cls, first, name


def _bound_names(node, shape: _Shape) -> tuple[str, ...]:
    value = getattr(node, shape.binder)
    return (value,) if isinstance(value, str) else value


def free_vars(node, sort: str) -> list[str]:
    """Free variables of the given sort, first occurrence order, no dups."""
    return [n for s, n in _free_pairs(node) if s == sort]


def _free_pairs(x) -> tuple:
    """The free variables of x, as (sort, name) pairs in the order of
    their first occurrence: a node's cached facts, computed at the first
    query of a frozen one (`_fact_walk`), or those of a tuple's items."""
    cls = type(x)
    if cls is tuple:
        return tuple(dict.fromkeys(pair for item in x
                                   for pair in _free_pairs(item)))
    if cls not in _SHAPES:
        return ()
    fv = x._fv
    return _fact_walk(x) if fv is None else fv


def subst(node, sort: str, mapping: dict):
    """Simultaneous capture-avoiding substitution of variables of one sort.

    A binder, of any sort, is renamed only when it would capture a free
    variable of its own sort in the mapping's range. It then takes its
    smallest primed variant that is free neither in its scope nor in the
    mapping. The range's free variables are read off its values' facts.
    A node or tuple none of whose parts changes is returned as it is; a
    node in which no variable the mapping replaces is free is returned
    without a walk if no binder in it can be renamed: every range value
    is closed, or it holds no binder.
    """
    if not mapping:
        return node
    # Range key -> the free (sort, name) pairs of its value, and sort ->
    # all of their names.
    range_fvs, every = {}, {}
    for k, v in mapping.items():
        fv = range_fvs[k] = _free_pairs(v)
        for s, n in fv:
            every.setdefault(s, set()).add(n)

    def go(x, m):
        if not m:
            return x
        cls = type(x)
        if cls is tuple:
            values = [go(item, m) for item in x]
            return x if all(map(is_, values, x)) else tuple(values)
        shape = _SHAPES.get(cls)
        if shape is None:
            return x
        if shape.var is not None:
            return m.get(x.name, x) if shape.var == sort else x
        fv = x._fv
        if fv is None:
            fv = _fact_walk(x)
        if not every or not x._binds:
            for s, n in fv:
                if s == sort and n in m:
                    break
            else:
                return x
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
        some_fv = every.get(bsort)
        if some_fv and any(n in some_fv for n in names):
            clash = {n for k in inner for s, n in range_fvs[k] if s == bsort}
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

    out = go(node, mapping)
    # go reaches itself through its closure: a cycle, which would keep it
    # and what it holds alive until a garbage collection.
    del go
    return out


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

    out = go(a, b, {}, {})
    del go      # a cycle, as in subst
    return out


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
        if type(x) in _ONE_TREE:
            return None
        key = id(x)
        if key not in memo:
            memo[key] = build(x)
        return memo[key]

    def build(x):
        cls, parts = type(x), _parts(x)
        if cls in _CHOICES:
            out = []
            for alt in parts:
                if len(out) >= limit:
                    break
                alt_trees = trees(alt)
                out.extend((alt,) if alt_trees is None else alt_trees)
            return out[:limit]
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
    del trees, build    # each reaches the other through its closure
    return [forest][:limit] if out is None else out


class Unpacked:
    """A tuple of n trees, counted off a forest, that build() unpacks at
    the first read of one and that keeps them: its length and truth need
    no enumeration. That build() made n trees is checked when it runs,
    since a miscounted forest would otherwise drop trees unseen. It
    compares as the tuple of its trees."""

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

    out = go(a, b)
    del go      # a cycle, as in subst
    return out


_CHOICES = (IChoice, TChoice)
# The classes whose nodes are one tree whatever their fields hold (names,
# variables, types and constants), and for every other class the getter of
# a node's parts as a tuple: a choice's alternatives, another's fields.
_ONE_TREE = frozenset({str, *(cls for cls, shape in _SHAPES.items()
                             if shape.var or issubclass(cls, _TYPES)
                             or not shape.fields)})
_FIELDS = {cls: attrgetter(*shape.fields) if len(shape.fields) > 1
           else lambda x, f=shape.fields[0]: (getattr(x, f),)
           for cls, shape in _SHAPES.items() if cls not in _ONE_TREE}
_FIELDS.update(dict.fromkeys(_CHOICES, attrgetter("alts")))


def _parts(x):
    """The parts of a forest node whose trees unpacking multiplies, or the
    alternatives of a choice; none for a node of one tree."""
    cls = type(x)
    if cls is tuple:
        return x
    getter = _FIELDS.get(cls)
    return () if getter is None else getter(x)


def _count(x, memo: dict) -> int:
    """The trees of x. memo holds each subforest's count by id, so each
    shared one is counted once; the forest keeps every key alive. The walk
    keeps its own stack, so a forest of any depth is counted: a node stays
    on it, under the parts it has pushed, until every part is counted."""
    one = _ONE_TREE
    if type(x) in one:
        return 1
    get = memo.get
    n = get(id(x))
    if n is not None:
        return n
    stack = [x]
    while stack:
        node = stack[-1]
        cls = type(node)
        parts = node if cls is tuple else _FIELDS[cls](node)
        pending = False
        if cls in _CHOICES:
            n = 0
            for part in parts:
                if type(part) in one:
                    n += 1
                else:
                    c = get(id(part))
                    if c is None:
                        stack.append(part)
                        pending = True
                    else:
                        n += c
        else:
            n = 1
            for part in parts:
                if type(part) not in one:
                    c = get(id(part))
                    if c is None:
                        stack.append(part)
                        pending = True
                    else:
                        n *= c
        if not pending:
            stack.pop()
            memo[id(node)] = n
    return n


def tree_count(forest) -> int:
    """The number of trees of forest, exactly: no cap clamps it."""
    return _count(forest, {})


def tree_at(forest, i: int):
    """Tree i of forest in `unpack` order, unpacking no other: the index
    is a mixed-radix number whose digits are the parts' tree indices, the
    first part's the most significant."""
    memo: dict = {}

    def go(x, i):
        if _count(x, memo) == 1:
            return x
        parts = _parts(x)
        if type(x) in _CHOICES:
            for alt in parts:
                n = _count(alt, memo)
                if i < n:
                    return go(alt, i)
                i -= n
        values = []
        for p in reversed(parts):
            i, k = divmod(i, _count(p, memo))
            values.append(go(p, k))
        values.reverse()
        return tuple(values) if type(x) is tuple else type(x)(*values)

    out = go(forest, i)
    del go      # a cycle, as in subst
    return out


Leaf = namedtuple("Leaf", "low decisions value error")
Leaf.__doc__ = """What evaluating a forest gives for every tree that agrees
with decisions, a map from choice occurrences to the alternatives taken:
a value, or the error raised (value is then None). low is the index of the
first of those trees in `unpack` order, whose undecided occurrences take
their first alternative."""


def _one_tree(x, seen: set) -> bool:
    """Whether x has no choice of two or more alternatives: a tree. seen
    holds the ids of the subforests found to be trees so far."""
    cls = type(x)
    if cls in _ONE_TREE or id(x) in seen:
        return True
    if cls in _CHOICES and len(x.alts) > 1:
        return False
    if all(_one_tree(part, seen) for part in _parts(x)):
        seen.add(id(x))
        return True
    return False


class Forks:
    """The branches of one evaluation of a forest, over its first limit
    trees.

    An evaluator walks the forest as the tree its positions unfold: a
    shared subforest occurs once per path to it, and unpacking chooses at
    each occurrence of a choice apart. A position is numbered when the
    evaluator first reaches it, and a tree has none (None), so evaluating
    a tree numbers nothing. A position's scale is the trees that one step
    of its own tree index skips in the whole forest's: deciding
    alternative j of a choice there moves the first tree agreeing with the
    decisions by the trees of the earlier alternatives times that scale. A
    branch whose first tree lies at the limit or past it is never taken.
    Trees are counted only where a fork or a read-back needs it: the
    alternatives before the one decided, and the parts that follow each
    part on the path to a choice, which vary faster than it.

    An evaluator state is (node, position, environment, stack, fuel,
    decisions, low); `decide` queues the branches of a state in `work`."""

    def __init__(self, forest, limit: int):
        self.forest, self.limit = forest, limit
        self.work: list = []
        self._counts: dict = {}
        self._at: dict = {}         # (position, part index) -> position
        self._up = [None, None]     # position -> (parent, its node, index)
        self._scales = {1: 1}       # position -> its scale, once needed
        self.root = None if _one_tree(forest, set()) else 1

    def count(self, x) -> int:
        return _count(x, self._counts)

    def child(self, pos, node, i: int):
        """The position of part i of node, the subforest at pos."""
        key = (pos, i)
        out = self._at.get(key)
        if out is None:
            out = self._at[key] = len(self._up)
            self._up.append((pos, node, i))
        return out

    def _scale(self, pos: int) -> int:
        out = self._scales.get(pos)
        if out is None:
            parent, node, i = self._up[pos]
            out = self._scale(parent)
            if type(node) not in _CHOICES:  # later parts vary faster
                for part in _parts(node)[i + 1:]:
                    out *= self.count(part)
            self._scales[pos] = out
        return out

    def decide(self, pos: int, choice, state) -> int:
        """The alternative of the choice at pos that state takes. An
        undecided one forks state, whose decisions the evaluator owns: a
        copy of state is queued for each later alternative whose first
        tree lies under the limit, with that alternative decided, and the
        first is decided in place."""
        node, npos, env, stack, fuel, decisions, low = state
        if pos in decisions:
            return decisions[pos]
        scale, forks = self._scale(pos), []
        for j, alt in enumerate(choice.alts[:-1], 1):
            low += self.count(alt) * scale
            if low >= self.limit:
                break
            forks.append((node, npos, env, list(stack), fuel,
                          {**decisions, pos: j}, low))
        self.work.extend(reversed(forks))
        decisions[pos] = 0
        return 0

    def value(self, state, sorts):
        """The leaf of state, whose node is a value with no frame left: the
        value read back (see `read_back`); or None, once state is split on
        an undecided choice the value holds."""
        node, pos, env, _, _, decisions, low = state
        undecided = []
        value = read_back((node, pos, env), sorts, lambda n, p: self.tree(
            n, p, decisions, undecided))
        if undecided:
            self.decide(*undecided[0], state)
            return None
        return Leaf(low, decisions, value, None)

    def tree(self, node, pos, decisions, undecided=None):
        """The subtree at pos, node, with each decided choice replaced by
        the alternative taken and each other by its first, which is then
        appended, with its position, to undecided if given."""
        if pos is None or self.count(node) == 1:
            return node
        parts = _parts(node)
        if type(node) in _CHOICES:
            j = decisions.get(pos)
            if j is None:
                if undecided is not None:
                    undecided.append((pos, node))
                j = 0
            return self.tree(parts[j], self.child(pos, node, j), decisions,
                             undecided)
        values = [self.tree(p, self.child(pos, node, i), decisions,
                            undecided) for i, p in enumerate(parts)]
        return tuple(values) if type(node) is tuple else type(node)(*values)

    def leaves(self, run, fuel: int) -> list:
        """The leaves of evaluating the forest with fuel: run takes a state
        to its leaf (a `Leaf`), queueing the branches it forks on the way."""
        self.work.append((self.forest, self.root, {}, [], fuel, {}, 0))
        out = []
        while self.work:
            out.append(run(*self.work.pop()))
        return out


def unify(t1, t2, vars: set[str]):
    """Most general unifier of t1 and t2 over the type variables in vars.

    First-order with occurs check. The result is triangular (a variable's
    value may mention variables bound after it), or None when t1 and t2 do
    not unify. Other variables are rigid, and a node with a binder unifies
    only with an alpha-equal one. When t2 shares no variable with vars this
    is one-way matching, and every value is a subterm of t2. Both are
    interned types: a node unifies with itself at once, and the occurs
    check reads a node's cached free variables.
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
        if type(t) is var:
            return t.name == a
        return any(s == sort and (n == a or n in out and occurs(a, out[n]))
                   for s, n in t._fv)

    def go(x, y) -> bool:
        x, y = resolve(x), resolve(y)
        if x is y:
            return True
        if type(x) is var and x.name in vars:
            if occurs(x.name, y):
                return False
            out[x.name] = y
            return True
        if type(y) is var and y.name in vars:
            return go(y, x)
        if type(x) is not type(y):
            return False
        shape = _SHAPES.get(type(x))
        if shape is None or shape.var is not None:
            return x == y
        if shape.binder is not None:
            return alpha_eq(x, y)
        return all(go(getattr(x, f), getattr(y, f)) for f in shape.parts)

    unified = go(t1, t2)
    del go, occurs      # cycles, as in subst
    return out if unified else None


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


def read_back(closure, sorts: tuple[str, ...], code):
    """The term an evaluator closure (node, position, env) stands for.

    code(node, position) is the tree at that position of the evaluated
    forest (see `Forks.tree`). env maps (sort, name) to the closure of the
    variable's unevaluated value. Each free variable the environment binds
    is replaced by its closure's read-back term, with one subst per sort in
    the given order; a value read back for one sort must have no variable
    of a later sort.
    """
    node, pos, env = closure
    node = code(node, pos)
    if not env:
        return node
    for sort in sorts:
        mapping = {}
        for name in free_vars(node, sort):
            closure = env.get((sort, name))
            if closure is not None:
                mapping[name] = read_back(closure, sorts, code)
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
    try:
        level, pieces = note or _TABLE[type(x)]
    except KeyError:
        raise TypeError(f"cannot pretty-print {type(x).__name__}") from None
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
    """Pretty printer for any node of the three languages; a TypeError if
    x holds a node with no notation, at any depth."""
    return _show(x)
