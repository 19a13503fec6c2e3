"""Interned types and dictionaries: one object per value.

The type and dictionary sorts of the three languages are hash-consed by
`syntax.frozen` (see `syntax.interned`): however a type or dictionary is
built, an equal one is the same object, so `==` is `is`, and walks over
them stop at shared nodes. A node keeps `object`'s hash, its identity,
which equal nodes share because they are one object; nothing cached
reaches a copy or a pickle. The table is weak, so nodes nothing holds are
dropped from it.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import given, settings

import dictelab
from dictelab import harness, parser, source_typer, syntax as S

import reference_binding as ref
import strategies
from conftest import (NEGATIVE, POSITIVE, corpus_text, flex_source,
                      tower_source, wide_source)
from test_golden_cli import LE, ORD

SRC = Path(dictelab.__file__).resolve().parent.parent

INTERNED = [S.SBool, S.STyVar, S.SArrow, S.SrcConstraint,
            S.IBool, S.ITyVar, S.IArrow, S.FdQ, S.IQArrow, S.IForall,
            S.DVar, S.DCon,
            S.TBool, S.TTyVar, S.TArrow, S.TForall, S.TRecordTy]


def test_exactly_the_type_sorts_are_interned():
    assert set(S._INTERNED) == set(INTERNED)


@pytest.mark.parametrize("cls", INTERNED, ids=lambda c: c.__name__)
def test_an_interned_class_keeps_object_s_identity_methods(cls):
    # So a lookup keyed by a type hashes and compares it in C.
    for method in ("__init__", "__eq__", "__hash__"):
        assert getattr(cls, method) is getattr(object, method), method


def _build(x):
    """x rebuilt node by node, by keyword."""
    if type(x) is tuple:
        return tuple(map(_build, x))
    if type(x) not in S._SHAPES:
        return x
    return type(x)(**{f: _build(getattr(x, f)) for f in x.__match_args__})


TYPES = [
    S.SArrow(S.STyVar("a"), S.SArrow(S.SBool(), S.STyVar("a"))),
    S.SrcConstraint("Eq", S.SArrow(S.SBool(), S.SBool())),
    S.IForall("a", S.IQArrow(S.FdQ("Eq", S.ITyVar("a")),
                             S.IArrow(S.ITyVar("a"), S.IBool()))),
    S.TForall("a", S.TArrow(S.TRecordTy((("eq", S.TTyVar("a")),)),
                            S.TBool())),
]


@pytest.mark.parametrize("t", TYPES, ids=lambda t: type(t).__name__)
def test_every_way_of_building_a_type_gives_one_object(t):
    assert type(t)(*[getattr(t, f) for f in t.__match_args__]) is t
    assert _build(t) is t
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    # A substitution that replaces nothing in it gives the type back.
    assert S.subst_type(t, {"zz": S._VAR_CLASS[S._type_sort_of(t)]("y")}) is t


def test_parsing_and_elaborating_give_one_object():
    a = parser.parse_expr("(x :: (Bool -> a) -> (Bool -> a))").ty
    assert a.left is a.right is S.SArrow(S.SBool(), S.STyVar("a"))
    fd = source_typer.elab_mono({"a"}, a)
    assert fd is S.IArrow(*[S.IArrow(S.IBool(), S.ITyVar("a"))] * 2)
    assert source_typer.elab_mono({"a"}, a) is fd
    assert S.subst_type(a, {"a": S.SBool()}) is \
        parser.parse_expr("(x :: (Bool -> Bool) -> Bool -> Bool)").ty


def test_subst_returns_an_untouched_type_as_it_is():
    # A type that holds no binder and no variable the mapping replaces is
    # returned as the same object, inside a term that is rebuilt.
    ty = TYPES[2].body
    term = S.ILam("x", ty, S.IApp(S.IVar("y"), S.ITyApp(S.IVar("x"), ty)))
    out = S.subst(term, "iv", {"y": S.ITrue()})
    assert out != term and out.ty is ty and out.body.arg.ty is ty
    arrow = S.IArrow(S.ITyVar("b"), ty)
    assert S.subst_type(arrow, {"b": S.IBool()}).right is ty
    # A binder is renamed even where the mapping replaces nothing in it.
    assert S.pretty(S.subst_type(S.IForall("a", S.IArrow(
        S.ITyVar("a"), S.IBool())), {"b": S.ITyVar("a")})) == \
        "forall a'. a' -> Bool"


def test_a_record_type_is_keyed_by_its_sorted_fields():
    r = S.TRecordTy((("g", S.TBool()), ("f", S.TTyVar("a"))))
    assert S.TRecordTy([("f", S.TTyVar("a")), ("g", S.TBool())]) is r
    assert r.fields == (("f", S.TTyVar("a")), ("g", S.TBool()))


def _twin(x):
    """x with every interned node replaced by an instance of a dataclass
    with its fields."""
    if type(x) is tuple:
        return tuple(map(_twin, x))
    if type(x) not in S._INTERNED:
        return x
    return TWINS[type(x)](*[_twin(getattr(x, f)) for f in x.__match_args__])


TWINS = {cls: dataclasses.make_dataclass(cls.__name__, cls.__match_args__,
                                         frozen=True)
         for cls in INTERNED}


TYPE_SORTS = (strategies.src_mono | strategies.src_constraint
              | strategies.fd_qual_type | strategies.fd_q | strategies.tgt_type)


@settings(max_examples=100, deadline=None)
@given(TYPE_SORTS, TYPE_SORTS)
def test_equality_is_the_dataclass_twins_and_the_hash_is_identity(t, u):
    assert (t == u) is (_twin(t) == _twin(u)) is (t is u)
    assert (t != u) is (_twin(t) != _twin(u))
    assert repr(t) == repr(_twin(t))
    assert _build(t) is t and hash(t) == object.__hash__(t)


@settings(max_examples=100, deadline=None)
@given(strategies.src_mono | strategies.src_constraint | strategies.src_scheme
       | strategies.fd_qual_type | strategies.fd_dict | strategies.tgt_type)
def test_free_type_vars_reads_the_cached_facts_in_order(t):
    # An interned node answers from its cached facts, which a dictionary
    # shares between type and dictionary variables; a scheme is walked.
    sort = S._type_sort_of(t)
    assert S.free_type_vars(t) == ref.free_vars(t, sort)


def test_a_pickle_carries_no_cached_fact():
    t = TYPES[2]
    assert vars(t).keys() >= {"_fv", "_binds"}
    data = pickle.dumps(t)
    for fact in (b"_fv", b"_binds"):
        assert fact not in data
    assert t.__reduce__() == (S.IForall, ("a", t.body))


@settings(max_examples=60, deadline=None)
@given(strategies.src_expr | strategies.fd_term | strategies.tgt_let_term)
def test_cached_facts_stay_out_of_a_frozen_node_s_identity(e):
    # An expression caches its facts at the first query; after that it
    # still compares, hashes and prints like a twin that has none, and a
    # copy or a pickle of it carries none.
    twin = _build(e)
    assert twin is not e and twin._fv is None
    S.free_vars(e, "iv")
    assert vars(e).keys() >= {"_fv", "_binds"}
    assert e == twin and not e != twin and hash(e) == hash(twin)
    assert repr(e) == repr(twin) and S.pretty(e) == S.pretty(twin)
    data = pickle.dumps(e)
    for fact in (b"_fv", b"_binds"):
        assert fact not in data
    for other in (pickle.loads(data), copy.deepcopy(e)):
        assert other == e and other is not e
        assert other._fv is None and "_fv" not in vars(other)


PICKLE = """
import pickle, sys
from dictelab import syntax as S
t = S.SArrow(S.STyVar("a"), S.SrcConstraint("Eq", S.STyVar("b")))
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(t))
else:
    u = pickle.loads(sys.stdin.buffer.read())
    assert u is t and hash(u) == object.__hash__(u) and {t: 1}[u] == 1
    print("ok", hash(u.left.name))
"""


def _python(seed, *args, data=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", PICKLE, *args], env=env,
                          input=data, capture_output=True, check=True).stdout


def test_a_pickle_from_another_hash_seed_loads_and_hashes_here():
    # The loaded node is the one the loading process builds, and hashes by
    # its identity there, whatever seed hashed the names it holds.
    data = _python(1, "dump")
    loaded = [_python(seed, "load", data=data).split() for seed in (1, 2)]
    assert [ok for ok, _ in loaded] == [b"ok", b"ok"]
    assert loaded[0][1] != loaded[1][1]     # the seeds hash apart
    t = pickle.loads(data)
    assert t is S.SArrow(S.STyVar("a"), S.SrcConstraint("Eq", S.STyVar("b")))
    assert hash(t) == object.__hash__(t)


def _table_size() -> int:
    return sum(map(len, S._INTERNED.values()))


def test_the_table_drops_types_nothing_holds():
    gc.collect()
    start = _table_size()
    kept = [S.IArrow(S.ITyVar(f"v{i}"), S.IForall(f"v{i}", S.IBool()))
            for i in range(10_000)]
    assert _table_size() == start + 30_000      # IBool was there
    del kept
    gc.collect()
    assert _table_size() == start


# ---------------------------------------------------------------------------
# Work counts: walks over types grow with the distinct nodes, not the tree
# ---------------------------------------------------------------------------

def test_the_tower_annotation_has_one_node_per_level():
    for d in (1, 4, 10):
        arrows, seen = set(), set()
        stack = [parser.parse_program(tower_source(d)).main.ty]
        while stack:
            x = stack.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if type(x) is S.SArrow:
                arrows.add(id(x))
                stack += [x.left, x.right]
        # (T_d -> T_d -> Bool): the d levels of T_d, then two more.
        assert len(arrows) == d + 2


def count_visits(fn, thunk) -> int:
    """How many times thunk() enters the functions defined inside fn: the
    node visits of fn's walk."""
    codes = {c for c in fn.__code__.co_consts if isinstance(c, CodeType)}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


def count_fact_visits(monkeypatch, thunk) -> int:
    """How many nodes thunk() visits in `_fact_walk` to read their parts'
    facts: each visit looks the node's class up in `_RECIPES` once."""
    visits = 0

    class Counted(dict):
        def __getitem__(self, cls):
            nonlocal visits
            visits += 1
            return dict.__getitem__(self, cls)
    with monkeypatch.context() as m:
        m.setattr(S, "_RECIPES", Counted(S._RECIPES))
        thunk()
    return visits


@pytest.mark.parametrize("walk", [S.unify, S._free_pairs],
                         ids=lambda f: f.__name__)
def test_type_walks_on_the_tower_grow_linearly(walk, monkeypatch):
    # The tower's types have 2^d leaves and d+2 distinct arrows; a walk
    # that stops at shared nodes visits a fixed number more per level.
    # Typing reads a type's free variables off its node, so the free
    # variables are counted over the typed forest instead, whose facts no
    # query has computed yet: the nodes the fact walk visits.
    counts = []
    for d in (6, 8, 10):
        p = parser.parse_program(tower_source(d))
        if walk is S.unify:
            def thunk():
                harness.decomposition_report(
                    source_typer.typecheck_program(p))
            counts.append(count_visits(walk, thunk))
        else:
            forest = source_typer.typecheck_program(p).forest
            counts.append(count_fact_visits(
                monkeypatch, lambda: S._free_pairs(forest)))
            # Cached: a second query visits nothing.
            assert count_fact_visits(
                monkeypatch, lambda: S._free_pairs(forest)) == 0
    assert counts[2] - counts[1] == counts[1] - counts[0]
    assert 0 < counts[2] < 200


def test_the_fact_walk_on_the_flex_forest_grows_linearly(monkeypatch):
    # The tower's typed forest is one method projection, which cannot
    # show a walk that is not linear. flex(n)'s has a let, its body and a
    # choice of dictionaries at each of its n levels: a walk that visits
    # each node a fixed number of times visits a fixed number more per
    # level.
    counts = []
    for n in (6, 8, 10):
        forest = source_typer.typecheck_program(
            parser.parse_program(flex_source(n))).forest
        counts.append(count_fact_visits(
            monkeypatch, lambda: S._free_pairs(forest)))
        assert count_fact_visits(
            monkeypatch, lambda: S._free_pairs(forest)) == 0
    assert counts[2] - counts[1] == counts[1] - counts[0] > 0
    assert counts[2] < 20 * 10


# ---------------------------------------------------------------------------
# A source type's translation: a fact cached on its node
# ---------------------------------------------------------------------------

def _reference_elab(t):
    """t's intermediate type, built node by node with no cache."""
    match t:
        case S.SBool():
            return S.IBool()
        case S.STyVar(a):
            return S.ITyVar(a)
        case S.SArrow(l, r):
            return S.IArrow(_reference_elab(l), _reference_elab(r))
    raise TypeError(t)


def _source_types(x, out: dict) -> dict:
    """Every source type in x, each once, in the order first met."""
    if type(x) is tuple:
        for item in x:
            _source_types(item, out)
    elif hasattr(x, "__match_args__"):
        if isinstance(x, S.SrcMono):
            out[x] = None
        for f in x.__match_args__:
            _source_types(getattr(x, f), out)
    return out


ELAB_PROGRAMS = {
    **{name: corpus_text(name) for name in POSITIVE + NEGATIVE},
    **{f"flex{n}": flex_source(n) for n in range(1, 9)},
    **{f"wide{k}": wide_source(k) for k in (1, 2, 3)},
    **{f"tower{d}": tower_source(d) for d in range(1, 11)},
    "b0": ORD + "True",
    "b1": ORD + f"{LE} True True",
    "b2": ORD + f"{LE} ({LE} True True) True",
}


@pytest.mark.parametrize("name", list(ELAB_PROGRAMS))
def test_a_cached_translation_is_the_structural_one(name):
    program = parser.parse_program(ELAB_PROGRAMS[name])
    types = list(_source_types(program, {}))
    assert types
    for t in types:
        tyvars = {a for _, a in t._fv}
        first = source_typer.elab_mono(tyvars, t)
        assert first is _reference_elab(t)
        assert source_typer.elab_mono(tyvars, t) is first
    # Typing reads the same facts.
    try:
        source_typer.typecheck_program(program)
    except source_typer.SrcTypeError:
        assert name in NEGATIVE
    for t in types:
        assert source_typer.elab_mono({a for _, a in t._fv}, t) is \
            _reference_elab(t)


@pytest.mark.parametrize("tyvars", [{"b"}, set()], ids=["b", "none"])
def test_a_cached_translation_still_reports_the_first_unbound_variable(
        tyvars):
    t = parser.parse_expr("(x :: a -> b)").ty
    assert source_typer.elab_mono({"a", "b"}, t) is _reference_elab(t)
    assert "_elab" in vars(t)
    for _ in range(2):
        with pytest.raises(source_typer.SrcTypeError,
                           match="^unbound type variable 'a'$") as e:
            source_typer.elab_mono(tyvars, t)
        assert e.value.kind == "unbound"


COUNT_TYPING = """
import sys
from dictelab import syntax as S
from dictelab.parser import parse_program
from dictelab.source_typer import typecheck_program
program = parse_program(sys.argv[1])
counts = []
facts = S._facts

def counted(node):      # called once per node entered in a table
    counts[-1] += 1
    return facts(node)

S._facts = counted
kept = []
for _ in range(2):
    counts.append(0)
    kept.append(typecheck_program(program))
print(*counts)
"""


@pytest.mark.parametrize("source, counts", [
    (flex_source(5), ["19", "0"]),
    (tower_source(8), ["41", "11"]),
], ids=["flex5", "tower8"])
def test_typing_interns_each_translation_once(source, counts):
    # Work counts, in a fresh process: the nodes typing a parsed program
    # enters in the tables, and again on a second typing of it while the
    # first result is alive. Translating afresh at each use interned 42
    # and 5 for flex(5), 53 and 14 for tower(8). The tower's second typing
    # still builds the source types its resolution instantiates, which
    # its first result does not hold: the Eq constraints of the levels.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", COUNT_TYPING, source],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == counts


def test_an_interned_class_compares_every_field():
    # Its table is keyed by every field, and `==` is `is`.
    namespace = {"__annotations__": {"a": object, "b": object},
                 "_derived": ("b",)}
    with pytest.raises(TypeError, match="^D: an interned class compares"):
        S.interned(type("D", (), namespace))
    assert not any(c.__name__ == "D" for c in S._INTERNED)
