"""The memos of `fd_core.FdChecker` against checking without sharing.

The checkers of one Σ type each node once per binding of its free
variables (once in all if it has none, or per environment while its facts
are not cached), keeping the type on the node, a checker translates each
node once, and both reuse the result wherever the node object occurs
again. The reference is the same checker on a copy of
the term rebuilt node by node, so that no two positions share an object
and the memo never hits across positions: types and targets must be
`==`, and an ill-typed term must raise the same error class, kind and
message.
"""

from __future__ import annotations

import copy
import gc
import importlib
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dictelab
from dictelab import fd_core, harness, source_typer, syntax as S
from dictelab.fd_core import (PREFIX_VIOLATION, FdChecker, FdTypeError,
                              fd_step, is_fd_value)
from dictelab.harness import check_metatheory, generate_fd_term
from dictelab.parser import parse_program
from dictelab.source_typer import MethodEnv, typecheck_program
from dictelab.syntax import (
    DCon, DictBind, DVar, FdExpr, FdQ, IApp, IArrow, IBool, IDLam, ILam, ILet,
    IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar, TermBind,
    TyVarBind, env_tyvars,
)

from conftest import (CORPUS, POSITIVE, corpus_program, corpus_result,
                      count_calls, flex_source, squares, tower_source,
                      type_and_translate, wide_source)
from reader import read_fd_expr
from strategies import DVARS, FD_NAMES, TYVARS, fd_q, fd_qual_type, fd_term


def rebuild(x):
    """A copy of x in which no object occurs twice."""
    if type(x) is tuple:
        return tuple(rebuild(item) for item in x)
    if hasattr(x, "__match_args__"):
        return type(x)(*[rebuild(getattr(x, f)) for f in x.__match_args__])
    return x


def outcome(checker, e, env=()):
    try:
        return type_and_translate(checker, e, env)
    except FdTypeError as err:
        return type(err), err.kind, str(err)


def assert_same_as_unshared(checker, sigma, TC, e, env=()):
    """checker (shared with earlier terms) agrees with a fresh checker on
    an unshared copy of e, in env; returns the outcome."""
    fresh = FdChecker(rebuild(sigma), rebuild(TC))
    got = outcome(checker, e, env)
    assert got == outcome(fresh, rebuild(e), rebuild(env))
    return got


def _programs():
    out = {name: corpus_result(name) for name in POSITIVE}
    for n in range(1, 6):
        out[f"flex{n}"] = typecheck_program(parse_program(flex_source(n)))
    for k in range(1, 4):
        out[f"wide{k}"] = typecheck_program(parse_program(wide_source(k)))
    for d in range(1, 9):
        out[f"tower{d}"] = typecheck_program(parse_program(tower_source(d)))
    return out


PROGRAMS = _programs()


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_shared_checker_agrees_on_elaborations(name):
    r = PROGRAMS[name]
    for sq in squares(r):
        assert_same_as_unshared(sq.checker, sq.sigma, r.fd_class_env,
                                sq.derivation)


@pytest.mark.parametrize("name", ["P2", "P4"])
@pytest.mark.parametrize("size", [4, 6])
def test_shared_checker_agrees_on_generated_terms(name, size):
    r = corpus_result(name)
    sigma, TC = r.fd_elabs[0][0], r.fd_class_env
    checker = FdChecker(sigma, TC)
    for seed in range(200):
        e = generate_fd_term(seed, size, sigma, TC)
        assert_same_as_unshared(checker, sigma, TC, e)
        # Ill-typed: e applied to itself, after e is in the memo.
        assert_same_as_unshared(checker, sigma, TC, IApp(e, e))


def test_a_shared_node_is_checked_per_environment():
    x = IVar("x")
    fun = IArrow(IBool(), IBool())
    checker = FdChecker((), ())
    assert checker.check_expr((TermBind("x", IBool()),), x) == IBool()
    assert checker.check_expr((TermBind("x", fun),), x) == fun
    assert checker.check_expr((), ILam("x", IBool(), x)) == \
        IArrow(IBool(), IBool())
    assert checker.check_expr((), ILam("x", fun, x)) == IArrow(fun, fun)
    with pytest.raises(FdTypeError):
        checker.check_expr((), x)


def _binding(e):
    """What e binds in its body, as the typing rules extend environments."""
    match e:
        case ILam(x, ty, _) | ILet(x, ty, _, _):
            return TermBind(x, ty)
        case IDLam(dv, q, _):
            return DictBind(dv, q)
        case ITyLam(a, _):
            return TyVarBind(a)
    return None


def _check_sites(e, env, out) -> int:
    """Add each (node, environment) pair at which e's tree is checked to
    out; returns the number of nodes in the tree."""
    out.add((id(e), env))
    bind = _binding(e)
    size = 1
    for f in e.__match_args__:
        child = getattr(e, f)
        if isinstance(child, FdExpr):
            inner = env + (bind,) if f == "body" and bind else env
            size += _check_sites(child, inner, out)
    return size


def test_each_node_and_environment_is_checked_once(monkeypatch):
    bodies = []     # the checker of each uncached check
    infer = FdChecker._infer

    def counted(self, env, e):
        bodies.append(self)
        return infer(self, env, e)

    monkeypatch.setattr(FdChecker, "_infer", counted)
    # Typed afresh: PROGRAMS["flex5"] keeps the checkers earlier tests used.
    r = typecheck_program(parse_program(flex_source(5)))
    checkers, pairs, nodes = [], set(), 0
    for sq in squares(r):
        sites = set()
        nodes += _check_sites(sq.derivation, (), sites)
        pairs |= {(id(sq.checker), *site) for site in sites}
        checkers.append(sq.checker)
    # Implementations are checked by prefix checkers; leave those out.
    own = sum(1 for c in bodies if any(c is k for k in checkers))
    assert own <= len(pairs) < nodes


def _doubling_chain(k, arg=None):
    """(twice (twice ... (twice id))) arg, True by default, twice nested k
    deep, with twice = \\f : Bool -> Bool. \\x : Bool. f (f x): a trace of
    thousands of steps over small terms."""
    b = IBool()
    twice = ILam("f", IArrow(b, b),
                 ILam("x", b, IApp(IVar("f"), IApp(IVar("f"), IVar("x")))))
    fun = ILam("b", b, IVar("b"))
    for _ in range(k):
        fun = IApp(twice, fun)
    return IApp(fun, ITrue() if arg is None else arg)


def _assert_a_bounded_memo(e):
    """Checking e's trace keeps less than a third of the memory that
    keeping every step of it takes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = [e]
        while not is_fd_value(trace[-1]):
            trace.append(fd_step((), trace[-1]))
        every_step = tracemalloc.get_traced_memory()[0] - base
        steps = len(trace) - 1
        del trace
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = check_metatheory((), (), e)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.steps_checked == steps > 1000
    assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
    assert peak < every_step / 3


def test_trace_checking_keeps_a_bounded_memo():
    _assert_a_bounded_memo(_doubling_chain(9))


def _count_typings(e, keys):
    """Add the typings kept on e's distinct nodes to keys: in all, and
    those keyed by a checker's token alone."""
    seen, todo = set(), [e]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        for key in x._types or ():
            keys["token"] += type(key) is not tuple
            keys["all"] += 1
        todo.extend(part for f in x.__match_args__
                    if isinstance(part := getattr(x, f), FdExpr))


def test_a_memo_keyed_mostly_by_identity_stays_bounded(monkeypatch):
    # A closed argument, (\\b : Bool. True) applied 32 deep to True, that
    # every step shares: its nodes are keyed by the checker's token alone.
    arg = ITrue()
    for _ in range(32):
        arg = IApp(ILam("b", IBool(), ITrue()), arg)
    keys = {"token": 0, "all": 0}     # counts: a list would be traced
    step = harness.fd_step

    def counted(sigma, e):      # e, the trace's latest term, is typed
        _count_typings(e, keys)
        return step(sigma, e)
    monkeypatch.setattr(harness, "fd_step", counted)
    _assert_a_bounded_memo(_doubling_chain(9, arg))
    assert keys["token"] > keys["all"] / 2


# ---------------------------------------------------------------------------
# The per-Σ state of a stream of terms
# ---------------------------------------------------------------------------

def _digest_envs():
    """The fuzz digest's environments (tests/test_harness.py), typed afresh
    so that no earlier test has filled their state."""
    for name in ("P2", "P4"):
        r = typecheck_program(corpus_program(name))
        yield r.fd_elabs[0][0], r.fd_class_env


def _stream(envs):
    """The fuzz digest's work, as (sigma, TC, term, report)."""
    for sigma, TC in envs:
        for size in (4, 6):
            for seed in range(100):
                e = generate_fd_term(seed, size, sigma, TC)
                yield sigma, TC, e, check_metatheory(sigma, TC, e)


def test_the_stream_state_agrees_with_a_fresh_checker_per_term():
    shared = list(_stream(list(_digest_envs())))
    # Nothing shared: a plain tuple keeps no state, so every call builds a
    # new one, and so a new checker.
    for sigma, TC, e, rep in shared:
        assert check_metatheory(tuple(sigma), TC, e) == rep
    assert [e for _, _, e, _ in shared] == \
        [e for _, _, e, _ in _stream((tuple(sigma), TC)
                                     for sigma, TC in _digest_envs())]


def _ill_typed_sigma():
    """A typed Σ whose implementation of Eq Bool has type Bool -> Bool,
    where Eq Bool wants Bool -> Bool -> Bool."""
    r = typecheck_program(parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "True"))
    return MethodEnv(r.fd_class_env, r.P, (read_fd_expr("\\x : Bool. x"),))


def test_an_ill_typed_implementation_fails_every_term_of_a_stream(
        monkeypatch):
    sigma = _ill_typed_sigma()
    TC = sigma.TC
    terms = [generate_fd_term(seed, 6, sigma, TC) for seed in (3, 4, 5)]
    assert all("[D1_Eq]" in S.pretty(e) for e in terms)
    checks = count_calls(monkeypatch, FdChecker, "_check_impl")
    reports = [check_metatheory(sigma, TC, e) for e in terms]
    for e, rep in zip(terms, reports):
        assert (rep.steps_checked, rep.preservation_ok, rep.progress_ok,
                rep.fuel_ok) == (0, False, False, True)
        assert rep.failing_term == (
            f"{S.pretty(e)} : Mismatch: implementation of 'D1_Eq' has type "
            f"Bool -> Bool, expected Bool -> Bool -> Bool")
    assert len(checks) == len(terms)    # the failure is checked again
    # The reports shared Σ's base checker; a plain tuple shares nothing.
    assert {id(self._impl_memo) for self, _ in checks} == \
        {id(sigma.derived(FdChecker)._impl_memo)}
    assert reports == [check_metatheory(tuple(sigma), TC, e) for e in terms]


def test_a_stream_checks_each_implementation_once_per_sigma(monkeypatch):
    # Work counts over the fuzz digest: one implementation check per
    # constructor and Σ, one closed_dicts per Σ, and the state that
    # saves them is each Σ's own.
    checked = []
    check_impl = FdChecker._check_impl

    def counted(self, index):
        con = self.sigma[index].con
        if con not in self._impl_memo:
            checked.append((id(self._impl_memo), con))
        return check_impl(self, index)

    monkeypatch.setattr(FdChecker, "_check_impl", counted)
    derived = count_calls(monkeypatch, harness, "closed_dicts")
    envs = list(_digest_envs())
    for _ in _stream(envs):
        pass
    assert len(checked) == len(set(checked)) == 5
    assert sorted(con for _, con in checked) == \
        sorted(entry.con for sigma, _ in envs for entry in sigma)
    assert derived == [(sigma,) for sigma, _ in envs]
    assert {memo for memo, _ in checked} == \
        {id(sigma.derived(FdChecker)._impl_memo) for sigma, _ in envs}


def test_the_fuzz_digest_work_counts_are_pinned(monkeypatch):
    # Deterministic work counts over the fuzz digest, typed afresh, so
    # that a lost fast path shows as a count and not as a time: the
    # uncached typing judgments, alpha_eq's renaming walks, the
    # environments scanned for their type variables (only where an
    # annotation has a free one), and the dictionary constructor rule,
    # which runs once per closed dictionary and Σ.
    infer = count_calls(monkeypatch, FdChecker, "_infer")
    walks = count_calls(monkeypatch, S, "_alpha_walk")
    wf = count_calls(monkeypatch, FdChecker, "_wf")
    scanned = count_calls(monkeypatch, fd_core, "env_tyvars")
    rule = count_calls(monkeypatch, FdChecker, "_check_con")
    for _ in _stream(list(_digest_envs())):
        pass
    assert len(infer) == 11_318
    assert 0 < len(walks) <= 429
    assert [env for _, env, t in wf if t._fv] == [env for env, in scanned]
    assert len(scanned) == 672
    typed = [(id(self._dicts), d) for self, _, d in rule]
    assert len(typed) == len(set(typed)) == 5
    assert not any(d._fv for _, d in typed)


def test_the_fuzz_digest_checks_each_closed_annotation_once_per_sigma(
        monkeypatch):
    # check_fd_type_wf's calls over the fuzz digest, typed afresh,
    # recursion included: an annotation with a free type variable is
    # checked at each use, a closed one until it passes once per Σ.
    checks = count_calls(monkeypatch, fd_core, "check_fd_type_wf")
    for _ in _stream(list(_digest_envs())):
        pass
    assert len(checks) == 743


def test_the_fuzz_digest_checks_terms_whose_nodes_have_their_facts(
        monkeypatch):
    # The generator gives every node it builds its facts, so checking the
    # digest walks for facts only the nodes a trace step builds: 795
    # walks of expression nodes when generated nodes had none, 72 now.
    # Interned nodes, walked when a process first builds them, are left
    # out, so the count does not depend on what an earlier test keeps.
    walks = count_calls(monkeypatch, S, "_fact_walk")
    checking = 0
    for sigma, TC in _digest_envs():
        for size in (4, 6):
            for seed in range(100):
                e = generate_fd_term(seed, size, sigma, TC)
                start = len(walks)
                check_metatheory(sigma, TC, e)
                checking += sum(type(node) not in S._INTERNED
                                for node, in walks[start:])
    assert checking == 72


# Counts the nodes the fuzz digest interns anew, in all and while its
# terms are checked, in a process of its own, where nothing but the
# digest holds a type.
COUNT_INTERNED = """
import sys
from dictelab import harness, syntax as S
from dictelab.parser import parse_program
from dictelab.source_typer import typecheck_program
envs = []
for path in sys.argv[1:]:
    with open(path) as f:
        r = typecheck_program(parse_program(f.read()))
    envs.append((r, r.fd_elabs[0][0], r.fd_class_env))
counts = {"all": 0, "checking": 0}
checking = False
facts = S._facts

def counted(node):      # called once per node entered in a table
    counts["all"] += 1
    counts["checking"] += checking
    return facts(node)

S._facts = counted
for _, sigma, TC in envs:
    for size in (4, 6):
        for seed in range(100):
            e = harness.generate_fd_term(seed, size, sigma, TC)
            checking = True
            harness.check_metatheory(sigma, TC, e)
            checking = False
print(counts["all"], counts["checking"])
"""


def test_the_fuzz_digest_interns_its_types_about_once():
    # A stream keeps the types of its latest term, so checking a term
    # finds the types its generation interned, almost all of them. Each
    # typed program's source types keep their translations alive, so
    # generation finds 24 arrows that it interned anew when typing let
    # them die (2779).
    env = dict(os.environ)
    src = Path(dictelab.__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", COUNT_INTERNED,
         *(str(CORPUS / f"{name}.src") for name in ("P2", "P4"))],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["2752", "4"]


def _base_checkers(monkeypatch) -> list:
    """The base checker of each term checked from here on, in order: the
    checker whose `child` checks the term (not a prefix checker)."""
    bases = []
    child = FdChecker.child

    def recorded(self, sigma=None):
        if sigma is None:
            bases.append(self)
        return child(self, sigma)
    monkeypatch.setattr(FdChecker, "child", recorded)
    return bases


def test_a_typed_programs_stream_state_is_freed_with_it(monkeypatch):
    bases = _base_checkers(monkeypatch)
    r = typecheck_program(corpus_program("P2"))
    sigma, TC = r.fd_elabs[0][0], r.fd_class_env
    for seed in range(3):
        check_metatheory(sigma, TC, generate_fd_term(seed, 4, sigma, TC))
    assert len(bases) == 3 and len(set(map(id, bases))) == 1
    base, state = bases.pop(), sigma.derived(harness._Generators)
    assert base._closed and state.kept
    # The base checker, its closed annotations found well formed, the
    # generator's state and the types of the latest term.
    held = [weakref.ref(x) for x in (base, base._closed, state, state.kept)]
    bases.clear()
    del r, sigma, TC, base, state
    gc.collect()
    assert [ref() for ref in held] == [None] * 4


def test_a_sigma_given_another_class_environment_keeps_nothing(
        monkeypatch):
    r = typecheck_program(corpus_program("P2"))
    sigma, TC = r.fd_elabs[0][0], r.fd_class_env
    other = tuple(list(TC))     # equal, but not Σ's own
    terms = [generate_fd_term(seed, 4, sigma, other) for seed in range(3)]
    bases = _base_checkers(monkeypatch)
    reports = [check_metatheory(sigma, other, e) for e in terms]
    assert len(set(map(id, bases))) == len(terms)   # one state per call
    assert not sigma._kept
    assert terms == [generate_fd_term(seed, 4, sigma, TC) for seed in range(3)]
    assert reports == [check_metatheory(sigma, TC, e) for e in terms]
    assert set(map(id, bases[len(terms):])) == \
        {id(sigma.derived(FdChecker))}


# ---------------------------------------------------------------------------
# The dictionary memo: a closed dictionary is typed once per Σ
# ---------------------------------------------------------------------------

EQ_BOOL = FdQ("Eq", IBool())
EQ_FUN = FdQ("Eq", IArrow(IBool(), IBool()))


def _p4_checker() -> FdChecker:
    """A checker for P4's Σ: D1_Eq : Eq Bool, and
    D2_Eq : forall a. Eq a => Eq (a -> a)."""
    r = typecheck_program(corpus_program("P4"))
    return FdChecker(r.fd_elabs[0][0], r.fd_class_env)


def test_a_dictionary_with_a_variable_is_typed_under_each_environment(
        monkeypatch):
    checker = _p4_checker()
    rule = count_calls(monkeypatch, FdChecker, "_check_con")
    d = DCon("D2_Eq", (IBool(),), (DVar("d"),))
    good, bad = (DictBind("d", EQ_BOOL),), (DictBind("d", EQ_FUN),)
    for _ in range(2):
        assert checker.check_dict(good, d) is EQ_FUN
        with pytest.raises(FdTypeError, match="argument of 'D2_Eq' has type"):
            checker.check_dict(bad, d)
        with pytest.raises(FdTypeError, match="unbound dictionary variable"):
            checker.check_dict((), d)
    assert len(rule) == 6 and not checker._dicts
    # With a closed argument it is typed once, under any environment and
    # by every checker child() makes for the same Σ.
    closed = DCon("D2_Eq", (IBool(),), (DCon("D1_Eq", (), ()),))
    rule.clear()
    for env in ((), good, bad):
        assert checker.check_dict(env, closed) is EQ_FUN
        assert checker.child().check_dict(env, closed) is EQ_FUN
    assert [d for _, _, d in rule] == [closed, closed.dict_args[0]]


def test_an_ill_typed_dictionary_raises_at_every_call(monkeypatch):
    checker = _p4_checker()
    rule = count_calls(monkeypatch, FdChecker, "_check_con")
    d1 = DCon("D1_Eq", (), ())
    cases = [
        (DCon("D2_Eq", (), (d1,)), "expects 1 type arguments, got 0"),
        (DCon("D2_Eq", (IArrow(IBool(), IBool()),), (d1,)),
         "argument of 'D2_Eq' has type"),
        (DCon("D3_Eq", (), ()), "unknown dictionary constructor"),
    ]
    for d, message in cases:
        for typer in (checker, checker.child(), checker):
            with pytest.raises(FdTypeError, match=message):
                typer.check_dict((), d)
        assert [x for _, _, x in rule].count(d) == 3
        assert d not in checker._dicts
    assert list(checker._dicts) == [d1]


def _late_ord_sigma():
    """A Σ whose implementation of Eq Bool projects Ord Bool's dictionary,
    declared after it: the full Σ types that dictionary, the strict prefix
    that checks the implementation must not."""
    r = typecheck_program(parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "class Ord a where { cmp : a -> a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "instance Ord Bool where { cmp = \\x. \\y. True };\n"
        "True"))
    return MethodEnv(r.fd_class_env, r.P, (
        read_fd_expr("[D2_Ord].cmp"),
        read_fd_expr("\\x : Bool. \\y : Bool. True")))


def test_a_prefix_checker_keeps_its_own_dictionary_memo():
    sigma = _late_ord_sigma()
    checker = FdChecker(sigma, sigma.TC)
    assert checker.check_dict((), DCon("D2_Ord", (), ())) is \
        FdQ("Ord", IBool())
    for typer in (checker, checker.child(), checker):
        with pytest.raises(FdTypeError) as err:
            typer.check_dict((), DCon("D1_Eq", (), ()))
        assert err.value.kind == PREFIX_VIOLATION
        assert "references a constructor declared later" in str(err.value)
    assert list(checker._dicts) == [DCon("D2_Ord", (), ())]


# ---------------------------------------------------------------------------
# The closed-annotation memo: a closed type is checked until it passes
# once per Σ; the latest term's types stay interned
# ---------------------------------------------------------------------------

# Eq Bool => Bool, closed and well formed under P4's TC; Ord Bool => Bool,
# closed, but Ord is no class of P4.
EQ_BOOL_TO_BOOL = IQArrow(EQ_BOOL, IBool())
ORD_BOOL_TO_BOOL = IQArrow(FdQ("Ord", IBool()), IBool())


def _annotated(ty) -> list:
    """Terms whose typing checks the annotation ty first, well typed if
    ty is Eq Bool => Bool."""
    return [ILam("x", ty, IVar("x")),
            ILet("v", ty, IDLam("d", EQ_BOOL, ITrue()), ITrue()),
            ITyApp(ITyLam("a", ILam("y", IBool(), ITrue())), ty)]


def _outcome(check, *args):
    try:
        return check(*args)
    except FdTypeError as err:
        return type(err), err.kind, str(err)


def test_an_ill_formed_closed_annotation_raises_at_every_check(
        monkeypatch):
    base = _p4_checker()
    checks = count_calls(monkeypatch, fd_core, "check_fd_type_wf")
    for e in _annotated(ORD_BOOL_TO_BOOL):
        got = [_outcome(base.child().check_expr, (), e) for _ in range(3)]
        assert got == [(FdTypeError, fd_core.UNKNOWN_METHOD,
                        "UnknownMethod: unknown class 'Ord'")] * 3
    # Checked anew each time, as a fresh checker would, and never kept.
    assert sum(args[2] is ORD_BOOL_TO_BOOL for args in checks) == 9
    assert ORD_BOOL_TO_BOOL not in base._closed
    # A well-formed one is checked once, whatever child checks it.
    checks.clear()
    for e in _annotated(EQ_BOOL_TO_BOOL):
        for _ in range(3):
            base.child().check_expr((), e)
    assert [args[2] for args in checks].count(EQ_BOOL_TO_BOOL) == 1
    assert EQ_BOOL_TO_BOOL in base._closed


def _annotations(e, env, out):
    """Add each (environment, annotation) pair that typing e under env
    checks to out: the annotated binders' and lets' types, the type
    arguments of type applications and of dictionary constructors."""
    match e:
        case ILam(_, ty, _) | ILet(_, ty, _, _) | ITyApp(_, ty):
            out.append((env, ty))
        case IDLam(_, q, _):
            out.append((env, q))
        case DCon(_, type_args, _):
            out.extend((env, ty) for ty in type_args)
    bind = _binding(e)
    for f in e.__match_args__:
        child = getattr(e, f)
        for part in child if type(child) is tuple else (child,):
            if isinstance(part, (FdExpr, S.FdDict)):
                inner = env + (bind,) if f == "body" and bind else env
                _annotations(part, inner, out)


def _corpus_and_digest_annotations():
    """The (Σ, TC, pairs) of every elaboration of PROGRAMS and of the fuzz
    digest's terms."""
    for r in PROGRAMS.values():
        for sq in squares(r):
            pairs = []
            _annotations(sq.derivation, (), pairs)
            yield sq.sigma, r.fd_class_env, pairs
    for sigma, TC in _digest_envs():
        pairs = []
        for size in (4, 6):
            for seed in range(100):
                _annotations(generate_fd_term(seed, size, sigma, TC), (),
                             pairs)
        yield sigma, TC, pairs


def test_the_closed_annotation_memo_agrees_with_checking_directly():
    # Under the environment at the site, under none (where an open
    # annotation fails), and over a TC without classes (where every
    # dictionary type fails, a closed one too), each check twice.
    seen = {"closed": 0, "failed": 0}
    for sigma, TC, pairs in _corpus_and_digest_annotations():
        for tc in (TC, ()):
            checker = FdChecker(sigma, tc)
            for env, t in pairs:
                for at in (env, ()):
                    want = _outcome(fd_core.check_fd_type_wf, tc,
                                    env_tyvars(at), t)
                    for typer in (checker, checker.child()):
                        assert _outcome(typer._wf, at, t) == want
                    seen["closed"] += not t._fv
                    seen["failed"] += want is not None
    assert seen["closed"] and seen["failed"]


def test_a_checker_over_another_class_environment_has_its_own_memo():
    base = _p4_checker()
    e = ILam("x", EQ_BOOL_TO_BOOL, IVar("x"))
    assert base.child().check_expr((), e) == \
        IArrow(EQ_BOOL_TO_BOOL, EQ_BOOL_TO_BOOL)
    assert EQ_BOOL_TO_BOOL in base._closed
    # Children share the memo, prefix checkers too: they have the same TC.
    assert base.child()._closed is base.child(base.sigma[:1])._closed \
        is base._closed
    other = FdChecker(base.sigma, ())
    assert not other._closed
    with pytest.raises(FdTypeError, match="unknown class 'Eq'"):
        other.child().check_expr((), e)
    assert not other._closed


def test_a_stream_keeps_the_types_of_its_latest_term_only():
    r = typecheck_program(corpus_program("P4"))
    sigma, TC = r.fd_elabs[0][0], r.fd_class_env
    state = sigma.derived(harness._Generators)
    every = set()
    for seed in range(500):
        e = generate_fd_term(seed, 6, sigma, TC)
        every |= state.kept
    # The state holds what the last term alone, generated over a Σ
    # typed afresh, keeps: no type of an earlier term that it lacks.
    alone = typecheck_program(corpus_program("P4")).fd_elabs[0][0]
    assert generate_fd_term(499, 6, alone, alone.TC) == e
    assert state.kept == alone.derived(harness._Generators).kept
    assert len(state.kept) < len(every) / 10


# ---------------------------------------------------------------------------
# The memo key: what typing a node reads of its environment
# ---------------------------------------------------------------------------

def warm(e):
    """e, once its facts and those of every node under it are cached."""
    S.free_vars(e, "iv")
    return e


BOOL_TO_BOOL = IArrow(IBool(), IBool())


def _eq_ord():
    """A Σ with classes Eq and Ord and one instance, Eq Bool, and its TC."""
    r = typecheck_program(parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "class Ord a where { cmp : a -> a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "True"))
    return r.fd_elabs[0][0], r.fd_class_env


EQ_ORD = _eq_ord()


def test_a_closed_subterm_is_typed_once_under_any_environment(monkeypatch):
    closed = warm(ILam("y", IBool(), IVar("y")))
    infer = count_calls(monkeypatch, FdChecker, "_infer")
    checker = FdChecker((), ())
    for env in ((), (TermBind("y", BOOL_TO_BOOL),),
                (TyVarBind("a"), DictBind("d", EQ_BOOL))):
        assert assert_same_as_unshared(checker, (), (), closed, env)[0] == \
            BOOL_TO_BOOL
    # Shared by two binders' bodies, under two environments of one term.
    e = ILam("x", IBool(), ILet("z", IBool(), IVar("x"), closed))
    assert_same_as_unshared(checker, (), (), e)
    assert sum(args[2] is closed for args in infer) == 1
    assert sum(args[2] is closed.body for args in infer) == 1


def _shadowed():
    """One IVar x under x : Bool, and under x : Bool -> Bool shadowing it."""
    x = IVar("x")
    return ILam("x", IBool(),
                ILet("y", IBool(), x, ILam("x", BOOL_TO_BOOL, x)))


# Terms, built afresh for each test, each typed in turn under each
# environment given by one checker, and how many distinct outcomes (types
# or errors) that gives.
BINDING_CASES = {
    "variable shadowed at two types": (lambda: IVar("x"), 3, [
        (TermBind("x", IBool()),),
        (TermBind("x", IBool()), TermBind("x", BOOL_TO_BOOL)),
        (TermBind("x", BOOL_TO_BOOL), DictBind("x", EQ_BOOL)),
        (DictBind("x", EQ_BOOL),), ()]),
    "variable shadowed within the term": (_shadowed, 1, [
        (), (TermBind("x", BOOL_TO_BOOL),)]),
    "dictionary at two classes": (lambda: IMethod(DVar("d"), "eq"), 4, [
        (DictBind("d", EQ_BOOL),), (DictBind("d", FdQ("Ord", IBool())),),
        (DictBind("d", EQ_FUN),), (TermBind("d", IBool()),), ()]),
    "annotation with a free type variable": (
        lambda: ILam("y", ITyVar("a"), IVar("y")), 2, [
            (TyVarBind("a"),), (), (TermBind("a", IBool()),),
            (TyVarBind("a"), TyVarBind("b"))]),
    "type argument with a free type variable": (
        lambda: ITyApp(ITyLam("b", ILam("y", ITyVar("b"), IVar("y"))),
                       ITyVar("a")),
        2, [(TyVarBind("a"),), (), (TyVarBind("a"),)]),
}


@pytest.mark.parametrize("facts", ["cold", "warm"])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
@pytest.mark.parametrize("case", list(BINDING_CASES))
def test_a_node_under_other_bindings_is_typed_anew(case, order, facts):
    build, distinct, envs = BINDING_CASES[case]
    e = warm(build()) if facts == "warm" else build()
    sigma, TC = EQ_ORD
    checker = FdChecker(sigma, TC)
    outcomes = [assert_same_as_unshared(checker, sigma, TC, e, env)
                for env in envs[::order]]
    assert len(set(outcomes)) == distinct
    assert (e._fv is None) == (facts == "cold")


def test_an_error_is_never_memoized(monkeypatch):
    infer = count_calls(monkeypatch, FdChecker, "_infer")
    checker = FdChecker((), ())
    for e in (warm(IVar("x")), warm(IApp(ITrue(), ITrue())),
              warm(ILam("y", ITyVar("a"), IVar("y"))), IApp(ITrue(), ITrue())):
        for _ in range(3):
            with pytest.raises(FdTypeError):
                checker.check_expr((), e)
        assert sum(args[2] is e for args in infer) == 3
        assert e._types is None
    # A node typed under one environment keeps that typing alone.
    x = warm(IVar("x"))
    env = (TermBind("x", IBool()),)
    assert checker.check_expr(env, x) is IBool()
    with pytest.raises(FdTypeError, match="unbound variable"):
        checker.check_expr((), x)
    assert [ty for _, ty in x._types.values()] == [IBool()]


# ---------------------------------------------------------------------------
# Typings kept on nodes: a checker family's answer for its own Σ alone,
# and live as long as their nodes
# ---------------------------------------------------------------------------

def _typed_sigma(p):
    """The first Σ of the program p, typed afresh, and its TC."""
    r = typecheck_program(p)
    return r.fd_elabs[0][0], r.fd_class_env


# Two Σs whose D1_Eq builds Eq Bool, whose method has a type of its own in
# each.
EQ_BINARY = _typed_sigma(parse_program(
    "class Eq a where { eq : a -> a -> Bool };\n"
    "instance Eq Bool where { eq = \\x. \\y. True };\nTrue"))
EQ_UNARY = _typed_sigma(parse_program(
    "class Eq a where { eq : a -> Bool };\n"
    "instance Eq Bool where { eq = \\x. True };\nTrue"))


@pytest.mark.parametrize("facts", ["cold", "warm"])
def test_a_node_typed_under_two_sigmas_gets_each_sigmas_type(facts):
    cases = [(IMethod(DCon("D1_Eq", (), ()), "eq"), (),
              IArrow(IBool(), BOOL_TO_BOOL), BOOL_TO_BOOL),
             (IApp(IMethod(DCon("D1_Eq", (), ()), "eq"), IVar("x")),
              (TermBind("x", IBool()),), BOOL_TO_BOOL, IBool())]
    for e, env, binary, unary in cases:
        e = warm(e) if facts == "warm" else e
        typers = [(FdChecker(*EQ_BINARY), EQ_BINARY, binary),
                  (FdChecker(*EQ_UNARY), EQ_UNARY, unary)]
        for typer, (sigma, TC), want in typers * 2:
            assert assert_same_as_unshared(typer, sigma, TC, e, env)[0] \
                is want
            assert typer.child().check_expr(env, e) is want
        assert len(e._types) == 2


def test_a_prefix_checkers_typing_never_answers_for_the_full_sigma(
        monkeypatch):
    sigma = _late_ord_sigma()
    full = FdChecker(sigma, sigma.TC)
    # Eq Bool's implementation, typed under the full Σ, which has Ord
    # Bool; its strict prefix, which checks it, has not.
    assert full.check_expr((), sigma[0].impl) is \
        IArrow(IBool(), BOOL_TO_BOOL)
    for typer in (full, full.child()):
        with pytest.raises(FdTypeError) as err:
            typer.check_expr((), IMethod(DCon("D1_Eq", (), ()), "eq"))
        assert err.value.kind == PREFIX_VIOLATION
    # Each prefix checker types a node anew; a child of the full Σ reads
    # the full Σ's typing.
    infer = count_calls(monkeypatch, FdChecker, "_infer")
    e = warm(ILam("y", IBool(), IVar("y")))
    prefix = full.sigma[:1]
    for typer in (full.child(prefix), full.child(prefix), full,
                  full.child()):
        assert typer.check_expr((), e) is BOOL_TO_BOOL
    assert sum(args[2] is e for args in infer) == 3
    assert len(e._types) == 3


@pytest.mark.parametrize("facts", ["cold", "warm"])
def test_a_typing_keeps_its_environment_only_if_keyed_by_it(facts):
    # A node without facts is keyed by the environment's identity, which
    # its entry keeps alive; a node with facts, as a literal a stream
    # shares, keeps no environment of the term it was first typed in.
    e = ITrue() if facts == "cold" else warm(ITrue())
    env = (TermBind("x", IBool()),)
    held = weakref.ref(env[0])
    checker = FdChecker((), ())
    assert checker.check_expr(env, e) is IBool()
    del env
    gc.collect()
    assert (held() is None) == (facts == "warm")
    assert checker.check_expr((), e) is IBool()


def test_a_copy_or_pickle_of_a_typed_node_carries_no_typing():
    e = warm(ILam("y", IBool(), IVar("y")))
    assert FdChecker((), ()).check_expr((), e) == BOOL_TO_BOOL
    assert e._types and e.body._types
    data = pickle.dumps(e)
    assert b"_types" not in data
    for other in (pickle.loads(data), copy.copy(e), copy.deepcopy(e)):
        assert other == e and other is not e and other._types is None


def _package_nodes() -> list:
    """Every node that a module of the package holds at top level, in a
    container or as a part of another, the interned nodes included."""
    package = Path(dictelab.__file__).resolve().parent
    todo = [vars(importlib.import_module(f"dictelab.{path.stem}"))
            for path in package.glob("*.py")]
    out, seen = [], set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if type(x) in S._SHAPES:
            out.append(x)
            todo.extend(getattr(x, f) for f in x.__match_args__)
        elif isinstance(x, (tuple, list, set, frozenset)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.keys())
            todo.extend(x.values())
        elif isinstance(x, S._Entry):
            todo.append(x())
    return out


def test_no_node_of_the_package_keeps_a_typing():
    # A stream over each of 50 Σs typed afresh, then dropped: every node
    # the stream shared is the Σ's own, so none left keeps a typing.
    for k in range(50):
        sigma, TC = _typed_sigma(corpus_program(("P2", "P4")[k % 2]))
        for seed in range(2):
            check_metatheory(sigma, TC, generate_fd_term(seed, 4, sigma, TC))
    del sigma, TC
    gc.collect()
    nodes = _package_nodes()
    assert any(node is source_typer._UNRESOLVED for node in nodes)
    assert [node for node in nodes if node._types is not None] == []


environments = st.lists(st.one_of(
    st.builds(TermBind, st.sampled_from(FD_NAMES), fd_qual_type),
    st.builds(DictBind, st.sampled_from(DVARS), fd_q),
    st.builds(TyVarBind, st.sampled_from(TYVARS))), max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(fd_term, environments, environments)
def test_the_memo_agrees_on_open_terms_cold_and_warm(e, env1, env2):
    sigma, TC = EQ_ORD
    checker = FdChecker(sigma, TC)
    for env in (env1, env2, env1):
        assert_same_as_unshared(checker, sigma, TC, e, env)
    warm(e)
    for env in (env2, env1, (*env1, *env2)):
        assert_same_as_unshared(checker, sigma, TC, e, env)


def test_forest_typing_computes_no_facts(monkeypatch):
    # Typing and checking a forest keys its nodes, which have no facts,
    # by environment: no walk computes facts to key them. Every fact
    # walk here is an interned node's, at construction.
    walks = count_calls(monkeypatch, S, "_fact_walk")
    sources = [flex_source(n) for n in range(1, 6)] + \
        [tower_source(d) for d in range(1, 9)]
    for source in sources:
        r = typecheck_program(parse_program(source))
        for sq in squares(r):
            sq.checker.check_expr((), sq.derivation)
    assert walks and all(type(node) in S._INTERNED for node, in walks)
