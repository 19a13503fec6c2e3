"""The table-driven binding core against its reflective reference.

`tests/reference_binding.py` keeps the walks that `syntax.py` replaced:
reflective free variables, substitution and alpha-equivalence, the
hand-written unifiers and the name-resolution walk. The new engine must
agree with them exactly: substitution results are `==`, so renamed binders
get the same names, and free-variable lists come in the same order.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_binding as ref
from dictelab import syntax as S
from dictelab.parser import parse_context
from dictelab.source_typer import ClassEntry, resolve_names

from conftest import corpus_result
from reader import read_fd_expr
from strategies import (
    CLASSES, DVARS, FD_NAMES, SRC_NAMES, TMVARS, TYVARS, fd_constraint_scheme,
    fd_dict, fd_mono, fd_qual_type, fd_term, fd_type, src_expr, src_mono,
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
    # by node is `==` without being the same object.
    t1 = data.draw(LANGUAGES[lang][0])
    t2 = copy.deepcopy(t1)
    assert t2 == t1 and t2 is not t1
    assert S.alpha_eq(t1, t2) and ref.alpha_eq(t1, t2)


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
# Name resolution
# ---------------------------------------------------------------------------

GC = tuple(ClassEntry(method, (), cls, "a",
                      S.SrcScheme((), (), S.SArrow(S.STyVar("a"), S.SBool())))
           for method, cls in [("eq", "Eq")])


@given(src_expr)
def test_resolve_names_agrees_with_reference(e):
    assert resolve_names(GC, e) == ref.resolve_names(GC, e)


# ---------------------------------------------------------------------------
# The table itself
# ---------------------------------------------------------------------------

# Dataclasses of syntax.py that hold nodes but are not traversed.
CONTAINERS = {S.ClassDecl, S.InstDecl, S.SrcProgram, S.MethodImpl,
              S.FdClassEntry, S.TermBind, S.TyVarBind, S.DictBind}


def test_every_ast_class_has_a_table_entry():
    defined = {c for c in vars(S).values()
               if isinstance(c, type) and dataclasses.is_dataclass(c)
               and c.__module__ == S.__name__}
    assert defined - CONTAINERS == set(S._SHAPES)

    def subclasses(base):
        yield base
        for sub in base.__subclasses__():
            yield from subclasses(sub)

    for base in S._TYPE_SORT:
        for cls in subclasses(base):
            if dataclasses.is_dataclass(cls):
                assert cls in S._SHAPES, cls.__name__


def test_table_entries_name_real_fields():
    for cls, shape in S._SHAPES.items():
        assert shape.fields == tuple(f.name for f in dataclasses.fields(cls))
    for cls, (binder, sort, scope) in S._BINDERS.items():
        names = {f.name for f in dataclasses.fields(cls)}
        assert binder in names, cls.__name__
        assert set(scope) <= names - {binder}, cls.__name__
        assert sort in S._VAR_CLASS
    for cls in S._VAR_SORT:
        assert S._SHAPES[cls].fields == ("name",)


def test_traversals_never_reflect(monkeypatch):
    def fail(*_):
        raise AssertionError("dataclasses.fields called during a traversal")

    r = corpus_result("P2")
    sigma, ie = r.fd_elabs[0]
    te = r.tgt_elabs[0]
    ctx = parse_context("let f : Bool = [] in (f :: Bool)")
    monkeypatch.setattr(S, "fields", fail)
    S.alpha_eq(S.subst(te, "tv", {"x": S.TTrue()}), te)
    S.free_vars(ie, "iv")
    S.free_type_vars(sigma[0].impl)
    S.subst_type(ie, {"a": S.IBool()})
    S.unify(S.FdQ("Eq", S.ITyVar("a")), S.FdQ("Eq", S.IBool()), {"a"})
    assert S.count_holes(ctx) == 1
    S.plug(ctx, S.STrue())
