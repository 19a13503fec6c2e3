"""The table-driven binding core against its reflective reference.

`tests/reference_binding.py` keeps the walks that `syntax.py` replaced:
reflective free variables, substitution and alpha-equivalence, the
hand-written unifiers and the name-resolution walk. The new engine must
agree with them exactly: substitution results are `==`, so renamed binders
get the same names, and free-variable lists come in the same order.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_binding as ref
from dictelab import syntax as S
from dictelab.parser import parse_context

from conftest import corpus_result
from reader import read_fd_expr
from strategies import (
    CLASSES, DVARS, FD_NAMES, SRC_NAMES, TMVARS, TYVARS, fd_constraint_scheme,
    fd_dict, fd_mono, fd_qual_type, fd_term, fd_type, open_fd_dict,
    open_fd_term, open_src_term, open_tgt_term, src_expr, src_mono,
    src_scheme, tgt_let_term, tgt_type,
)

# language -> (terms, {variable sort: (its names, terms it may be mapped to)})
LANGUAGES = {
    "src": (src_expr, {"sv": (SRC_NAMES, src_expr),
                       "sa": (TYVARS, src_mono)}),
    "src_scheme": (src_scheme, {"sa": (TYVARS, src_mono)}),
    "fd": (fd_term, {"iv": (FD_NAMES, fd_term), "id": (DVARS, fd_dict),
                     "ic": (TYVARS, fd_type)}),
    "fd_type": (fd_qual_type, {"ic": (TYVARS, fd_qual_type)}),
    "fd_scheme": (fd_constraint_scheme, {"ic": (TYVARS, fd_type)}),
    "tgt": (tgt_let_term, {"tv": (TMVARS, tgt_let_term),
                           "ta": (TYVARS, tgt_type)}),
}

SORTS = [(lang, sort) for lang, (_, sorts) in LANGUAGES.items()
         for sort in sorts]



def _mapping(sort: str, lang: str):
    names, values = LANGUAGES[lang][1][sort]
    renaming = st.sampled_from(names).map(S._VAR_CLASS[sort])
    return st.dictionaries(st.sampled_from(names),
                           st.one_of(renaming, values), max_size=3)


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lang,sort", SORTS)
@settings(max_examples=40)
@given(data=st.data())
def test_engine_agrees_with_reference(lang, sort, data):
    terms = LANGUAGES[lang][0]
    t1 = data.draw(terms)
    assert S.free_vars(t1, sort) == ref.free_vars(t1, sort)
    mapping = data.draw(_mapping(sort, lang))
    out = S.subst(t1, sort, mapping)
    assert out == ref.subst(t1, sort, mapping)
    variant = ref.rename_bound(t1)
    assert S.alpha_eq(t1, variant)
    t2 = data.draw(st.one_of(terms, st.just(out),
                             st.just(ref.rename_bound(out))))
    assert S.alpha_eq(t1, t2) == ref.alpha_eq(t1, t2)


@pytest.mark.parametrize("lang", LANGUAGES)
@settings(max_examples=40)
@given(data=st.data())
def test_alpha_eq_agrees_on_an_equal_copy(lang, data):
    # alpha_eq answers `==` terms without walking them; a copy rebuilt node
    # by node is `==` without being the same object, unless its class is
    # interned: then it is the same object.
    t1 = data.draw(LANGUAGES[lang][0])
    t2 = copy.deepcopy(t1)
    if type(t1) in S._INTERNED:
        assert t2 is t1
    else:
        assert t2 == t1 and t2 is not t1
    assert S.alpha_eq(t1, t2) and ref.alpha_eq(t1, t2)


# Nodes of different classes with the same fields.
OTHER_CLASS = [
    (S.IVar("x"), S.TVar("x")),
    (S.IVar("x"), S.DVar("x")),
    (S.TVar("x"), S.DVar("x")),
    (S.IArrow(S.IBool(), S.IBool()), S.TArrow(S.IBool(), S.IBool())),
    (S.IArrow(S.ITyVar("a"), S.IBool()), S.TArrow(S.TTyVar("a"), S.TBool())),
    (S.IForall("a", S.ITyVar("a")), S.TForall("a", S.ITyVar("a"))),
    (S.IForall("a", S.ITyVar("a")), S.TForall("b", S.TTyVar("b"))),
]


@pytest.mark.parametrize("a,b", OTHER_CLASS)
def test_alpha_eq_rejects_another_class_like_the_reference(a, b):
    assert S.alpha_eq(a, b) is S.alpha_eq(b, a) is False
    assert ref.alpha_eq(a, b) is ref.alpha_eq(b, a) is False


# (language, sort) -> range values free in every sort of the language.
OPEN_RANGES = {
    ("src", "sv"): open_src_term,
    ("fd", "iv"): open_fd_term,
    ("fd", "id"): open_fd_dict,
    ("tgt", "tv"): open_tgt_term,
}


@pytest.mark.parametrize("lang,sort", OPEN_RANGES)
@settings(max_examples=60)
@given(data=st.data())
def test_subst_of_open_range_values_agrees_with_reference(lang, sort, data):
    names = LANGUAGES[lang][1][sort][0]
    t = data.draw(LANGUAGES[lang][0])
    mapping = data.draw(st.dictionaries(st.sampled_from(names),
                                        OPEN_RANGES[lang, sort],
                                        min_size=1, max_size=2))
    assert S.subst(t, sort, mapping) == ref.subst(t, sort, mapping)


# The range value y [d] @a is free in all three intermediate sorts; each
# binder that would capture it is renamed, and the rest are not.
OPEN_RANGE_CASES = [
    ("\\y : Bool. x", "\\y' : Bool. y [d] @a"),
    ("\\d : [Eq Bool]. x", "\\d' : [Eq Bool]. y [d] @a"),
    ("/\\a. x", "/\\a'. y [d] @a"),
    ("let y : Bool = True in x", "let y' : Bool = True in y [d] @a"),
    ("\\y : Bool. \\d : [Eq Bool]. /\\a. x y [d] @a",
     "\\y' : Bool. \\d' : [Eq Bool]. /\\a'. y [d] @a y' [d'] @a'"),
    ("\\z : Bool. \\dd : [Eq Bool]. /\\b. x",
     "\\z : Bool. \\dd : [Eq Bool]. /\\b. y [d] @a"),
]


@pytest.mark.parametrize("body,expected", OPEN_RANGE_CASES)
def test_subst_renames_each_sort_of_binder_like_the_reference(body,
                                                              expected):
    e, mapping = read_fd_expr(body), {"x": read_fd_expr("y [d] @a")}
    out = S.subst(e, "iv", mapping)
    assert S.pretty(out) == expected
    assert out == ref.subst(e, "iv", mapping)


def test_subst_renames_a_capturing_binder_like_the_reference():
    # \x. y x x'  with  y := x  renames x past the range and the body.
    e = S.SLam("x", S.SApp(S.SApp(S.SVar("y"), S.SVar("x")), S.SVar("x'")))
    mapping = {"y": S.SVar("x")}
    out = S.subst(e, "sv", mapping)
    assert out == ref.subst(e, "sv", mapping)
    assert out.param == "x''"


# A binder of another sort is renamed when the range has a free variable of
# its sort under its name.
CROSS_SORT = [
    ("\\d : [Eq Bool]. x", "[d].eq", "\\d' : [Eq Bool]. [d].eq"),
    ("/\\a. x", "\\y : a. y", "/\\a'. \\y : a. y"),
    ("\\y : Bool. x", "[d].eq", "\\y : Bool. [d].eq"),
]


@pytest.mark.parametrize("body,value,expected", CROSS_SORT)
def test_subst_renames_a_capturing_binder_of_another_sort(body, value,
                                                          expected):
    e, mapping = read_fd_expr(body), {"x": read_fd_expr(value)}
    out = S.subst(e, "iv", mapping)
    assert S.pretty(out) == expected
    assert out == ref.subst(e, "iv", mapping)


LETS = [
    (S.SLet("x", S.SrcScheme((), (), S.SBool()), S.SVar("x"), S.SVar("x")),
     "sv", S.STrue()),
    (S.ILet("x", S.IBool(), S.IVar("x"), S.IVar("x")), "iv", S.ITrue()),
    (S.TLet("x", S.TBool(), S.TVar("x"), S.TVar("x")), "tv", S.TTrue()),
]


@pytest.mark.parametrize("let,sort,value", LETS)
def test_let_binds_its_name_in_the_body_only(let, sort, value):
    assert S.free_vars(let, sort) == ref.free_vars(let, sort) == ["x"]
    out = S.subst(let, sort, {"x": value})
    assert out == ref.subst(let, sort, {"x": value})
    assert (out.bound, out.body) == (value, let.body)


# ---------------------------------------------------------------------------
# The fast paths of alpha_eq and subst against the reference
# ---------------------------------------------------------------------------

def _rebind_first(x, name: str):
    """x with its first single binder, in pre-order, named name and every
    use of it left as it is: a pair that differs only in a binder name."""
    done = False

    def go(x):
        nonlocal done
        if done:
            return x
        if type(x) is tuple:
            return tuple(map(go, x))
        if type(x) not in S._SHAPES:
            return x
        binder = S._SHAPES[type(x)].binder
        if binder is not None and isinstance(getattr(x, binder), str):
            done = True
            return type(x)(**{f: name if f == binder else getattr(x, f)
                              for f in x.__match_args__})
        return type(x)(*[go(getattr(x, f)) for f in x.__match_args__])
    return go(x)


# The interned sorts whose distinct nodes alpha_eq answers without a walk
# unless both hold a binder.
INTERNED_SORTS = {"fd_type": fd_type, "fd_qual_type": fd_qual_type,
                  "fd_dict": fd_dict}


@pytest.mark.parametrize("name", INTERNED_SORTS)
@settings(max_examples=150)
@given(data=st.data())
def test_alpha_eq_of_interned_nodes_agrees_with_reference(name, data):
    terms = INTERNED_SORTS[name]
    t1 = data.draw(terms)
    t2 = data.draw(st.one_of(
        terms, st.just(ref.rename_bound(t1)),
        st.sampled_from(TYVARS).map(lambda a: _rebind_first(t1, a))))
    assert type(t1) in S._INTERNED
    assert S.alpha_eq(t1, t2) == ref.alpha_eq(t1, t2)
    assert S.alpha_eq(t2, t1) == ref.alpha_eq(t2, t1)


def test_alpha_eq_tells_a_binder_name_from_its_uses():
    a, b = S.ITyVar("a"), S.ITyVar("b")
    pairs = [
        (S.IForall("a", S.IArrow(a, a)), S.IForall("b", S.IArrow(b, b)),
         True),
        (S.IForall("a", S.IArrow(a, a)), S.IForall("b", S.IArrow(a, a)),
         False),
        (S.IForall("a", S.IBool()), S.IForall("b", S.IBool()), True),
        (S.IArrow(a, S.IForall("a", a)), S.IArrow(a, S.IForall("b", b)),
         True),
        (S.IArrow(a, S.IForall("a", a)), S.IArrow(b, S.IForall("b", b)),
         False),
        (S.IArrow(a, S.IBool()), S.IArrow(S.IForall("a", a), S.IBool()),
         False),
        (S.DCon("D", (S.IForall("a", a),), ()),
         S.DCon("D", (S.IForall("c", S.ITyVar("c")),), ()), True),
        (S.DCon("D", (a,), (S.DVar("d"),)),
         S.DCon("D", (a,), (S.DVar("e"),)), False),
    ]
    for t1, t2, expected in pairs:
        assert S.alpha_eq(t1, t2) is S.alpha_eq(t2, t1) is expected
        assert ref.alpha_eq(t1, t2) is expected


def _untouched(t, out, expected, sort: str, mapping) -> list:
    """The pairs (subtree of t, subtree of out at its position) of each
    subtree of t that the reference leaves `==` to itself and that holds
    no free variable of sort that mapping replaces: subst has nothing to
    change in it."""
    pairs = []

    def go(x, y, z):
        if type(x) is tuple:
            if type(y) is tuple and type(z) is tuple:
                for parts in zip(x, y, z):
                    go(*parts)
            return
        if type(x) not in S._SHAPES:
            return
        if z == x and not set(ref.free_vars(x, sort)) & set(mapping):
            pairs.append((x, y))
            return
        if type(y) is type(x) is type(z) and S._SHAPES[type(x)].var is None:
            for f in x.__match_args__:
                go(getattr(x, f), getattr(y, f), getattr(z, f))

    go(t, out, expected)
    return pairs


@pytest.mark.parametrize("lang,sort", SORTS)
@settings(max_examples=40)
@given(data=st.data())
def test_subst_returns_each_untouched_subtree_itself(lang, sort, data):
    t = data.draw(LANGUAGES[lang][0])
    mapping = data.draw(_mapping(sort, lang))
    out = S.subst(t, sort, mapping)
    expected = ref.subst(t, sort, mapping)
    assert out == expected
    for x, y in _untouched(t, out, expected, sort, mapping):
        assert y is x, S.pretty(x)


def test_subst_shares_what_a_step_leaves():
    # (\x : Bool. f x g) True: the body's subterms without x are kept.
    f, g = read_fd_expr("\\y : Bool. y"), read_fd_expr("\\z : Bool. z")
    body = S.IApp(S.IApp(f, S.IVar("x")), g)
    out = S.subst(body, "iv", {"x": S.ITrue()})
    assert out == S.IApp(S.IApp(f, S.ITrue()), g)
    assert out.fun.fun is f and out.arg is g
    assert S.subst(body, "iv", {"w": S.ITrue()}) is body
    assert S.subst(body, "ic", {"a": S.IBool()}) is body


# ---------------------------------------------------------------------------
# Cached facts: subst's early stop, cold and warm, and deep terms
# ---------------------------------------------------------------------------

# Per language, a binder to close a value over a free variable of each
# sort, in the order the binders are put around it, inner first.
CLOSERS = {
    "fd": {"iv": lambda x, e: S.ILam(x, S.IBool(), e),
           "id": lambda d, e: S.IDLam(d, S.FdQ("Eq", S.IBool()), e),
           "ic": lambda a, e: (S.IForall if isinstance(e, S.FdType)
                               else S.ITyLam)(a, e)},
    "tgt": {"tv": lambda x, e: S.TLam(x, S.TBool(), e),
            "ta": lambda a, e: (S.TForall if isinstance(e, S.TgtType)
                                else S.TTyLam)(a, e)},
}


def _close(v, lang: str):
    """v with a binder put around it for each of its free variables."""
    for sort, bind in CLOSERS[lang].items():
        for name in ref.free_vars(v, sort):
            v = bind(name, v)
    return v


def _warm(x):
    """Query the free variables of every node of x, its parts first, so
    that each query caches the facts of one node."""
    if type(x) is tuple:
        for item in x:
            _warm(item)
    elif type(x) in S._SHAPES:
        for f in x.__match_args__:
            _warm(getattr(x, f))
        S.free_vars(x, "iv")


# The sorts whose range values a binder of the language can close.
CLOSABLE = [(lang, sort) for lang, sort in SORTS
            if lang in CLOSERS and sort != "id"]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("lang,sort", CLOSABLE)
@settings(max_examples=30)
@given(data=st.data())
def test_subst_agrees_with_the_reference_with_facts_cold_or_warm(
        lang, sort, closed, warm, data):
    # subst leaves a subtree with nothing to replace unwalked when no
    # binder in it can be renamed; its result is the reference's, names
    # and all, whether the facts it reads are cached yet or not.
    names, values = LANGUAGES[lang][1][sort]
    if closed:
        values = values.map(lambda v: _close(v, lang))
    else:
        values = st.one_of(values, OPEN_RANGES.get((lang, sort), values))
    t = data.draw(LANGUAGES[lang][0])
    mapping = data.draw(st.dictionaries(st.sampled_from(names), values,
                                        min_size=1, max_size=2))
    if closed:
        assert not any(ref.free_vars(v, s) for v in mapping.values()
                       for s in CLOSERS[lang])
    expected = ref.subst(t, sort, mapping)
    if warm:
        _warm((t, tuple(mapping.values())))
    out = S.subst(t, sort, mapping)
    assert out == expected
    assert S.pretty(out) == S.pretty(expected)


# A binder whose scope does not mention the variable replaced is still
# renamed apart from the free variables of the range, as the reference
# renames it.
CLASH_CASES = [
    ("\\y : Bool. True", "\\y' : Bool. True"),
    ("(\\y : Bool. True) x", "(\\y' : Bool. True) (y [d] @a)"),
    ("/\\a. \\d : [Eq a]. True", "/\\a'. \\d' : [Eq a']. True"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("body,expected", CLASH_CASES)
def test_subst_renames_a_clashing_binder_over_no_occurrence(body, expected,
                                                            warm):
    e, mapping = read_fd_expr(body), {"x": read_fd_expr("y [d] @a")}
    if warm:
        _warm((e, mapping["x"]))
    out = S.subst(e, "iv", mapping)
    assert S.pretty(out) == expected
    assert out == ref.subst(e, "iv", mapping)


def _chain(depth: int, var: str):
    """depth binders \\x{i} : a over the variable named var."""
    e = S.IVar(var)
    for i in range(depth):
        e = S.ILam(f"x{i}", S.ITyVar("a"), e)
    return e


def test_the_free_variables_of_a_deep_term_are_found():
    # The fact walk keeps its own stack, so no depth overflows it; and
    # subst returns a term with nothing to replace unwalked.
    e = _chain(5_000, "z")
    assert S.free_vars(e, "iv") == ["z"]
    assert S.free_type_vars(e) == ["a"]
    assert S.subst(e, "iv", {"y": S.ITrue()}) is e


def test_subst_reaches_the_bottom_of_a_deep_term():
    # subst recurses once per binder on the way to the variable.
    out = S.subst(_chain(900, "z"), "iv", {"z": S.ITrue()})
    for i in reversed(range(900)):
        assert type(out) is S.ILam and out.param == f"x{i}"
        out = out.body
    assert out == S.ITrue()


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------

unify_vars = st.sets(st.sampled_from(TYVARS))


@given(src_mono, src_mono, unify_vars)
def test_unify_agrees_on_source_monotypes(t1, t2, vars):
    assert S.unify(t1, t2, vars) == ref.unify_mono(t1, t2, vars)


@given(fd_mono, fd_mono, unify_vars)
def test_unify_agrees_on_intermediate_monotypes(t1, t2, vars):
    assert S.unify(t1, t2, vars) == ref.unify_fd_types(t1, t2, vars)


@given(st.sampled_from(CLASSES), fd_mono, st.sampled_from(CLASSES), fd_mono,
       unify_vars)
def test_unify_agrees_on_constraint_heads(c1, t1, c2, t2, vars):
    q1, q2 = S.FdQ(c1, t1), S.FdQ(c2, t2)
    assert S.unify(q1, q2, vars) == ref.unify_heads(q1, q2, vars)


@given(src_mono, src_mono, st.booleans(),
       st.dictionaries(st.sampled_from(["a", "b"]), src_mono, max_size=2))
def test_unify_is_matching_when_the_target_shares_no_variable(
        pattern, other, instance, sigma):
    vars = {"a", "b"}
    target = S.subst_type(pattern if instance else other, sigma)
    assume(not set(S.free_type_vars(target)) & vars)
    assert S.unify(pattern, target, vars) == ref.match_mono(pattern, vars,
                                                            target)


# ---------------------------------------------------------------------------
# The table itself
# ---------------------------------------------------------------------------

# Dataclasses of syntax.py that hold nodes but are not traversed.
CONTAINERS = {S.ClassDecl, S.InstDecl, S.SrcProgram, S.MethodImpl,
              S.FdClassEntry, S.TermBind, S.TyVarBind, S.DictBind}


def test_every_ast_class_has_a_table_entry():
    defined = {c for c in vars(S).values()
               if isinstance(c, type) and hasattr(c, "__match_args__")
               and not issubclass(c, tuple) and c.__module__ == S.__name__}
    assert defined - CONTAINERS == set(S._SHAPES)

    def subclasses(base):
        yield base
        for sub in base.__subclasses__():
            yield from subclasses(sub)

    for base in S._TYPE_SORT:
        for cls in subclasses(base):
            if hasattr(cls, "__match_args__"):
                assert cls in S._SHAPES, cls.__name__


def test_table_entries_name_real_fields():
    for cls, shape in S._SHAPES.items():
        assert shape.fields == tuple(cls.__annotations__)
    for cls, (binder, sort, scope) in S._BINDERS.items():
        names = set(cls.__match_args__)
        assert binder in names, cls.__name__
        assert set(scope) <= names - {binder}, cls.__name__
        assert sort in S._VAR_CLASS
    for cls in S._VAR_SORT:
        assert S._SHAPES[cls].fields == ("name",)


class _ClassPatternsOnly:
    """`__match_args__` that a class pattern may read from the class but
    a walk over an instance's fields may not."""

    def __init__(self, names):
        self.names = names

    def __get__(self, obj, owner=None):
        if obj is not None:
            raise AssertionError("a node's fields read during a traversal")
        return self.names


def test_traversals_never_reflect(monkeypatch):
    r = corpus_result("P2")
    sigma, ie = r.fd_elabs[0]
    te = r.tgt_elabs[0]
    ctx = parse_context("let f : Bool = [] in (f :: Bool)")
    for cls in S._SHAPES:
        monkeypatch.setattr(cls, "__match_args__",
                            _ClassPatternsOnly(cls.__match_args__))
    S.alpha_eq(S.subst(te, "tv", {"x": S.TTrue()}), te)
    S.free_vars(ie, "iv")
    S.free_type_vars(sigma[0].impl)
    S.subst_type(ie, {"a": S.IBool()})
    S.unify(S.FdQ("Eq", S.ITyVar("a")), S.FdQ("Eq", S.IBool()), {"a"})
    assert S.count_holes(ctx) == 1
    S.plug(ctx, S.STrue())
