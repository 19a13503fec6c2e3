"""The memos of `fd_core.FdChecker` against checking without sharing.

A checker types each (node, environment) pair once and translates each
node once, and reuses the result wherever the node object occurs again
(under the same environment, for its type).
The reference is the same checker on a copy of the term rebuilt node by
node, so that no two positions share an object and the memo never hits
across positions: types and targets must be `==`, and an ill-typed term
must raise the same error class, kind and message.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from dictelab import fd_core, harness, syntax as S
from dictelab.fd_core import (PREFIX_VIOLATION, FdChecker, FdTypeError,
                              fd_step, is_fd_value)
from dictelab.harness import check_metatheory, generate_fd_term, squares
from dictelab.parser import parse_program
from dictelab.source_typer import MethodEnv, typecheck_program
from dictelab.syntax import (
    DCon, DictBind, DVar, FdExpr, FdQ, IApp, IArrow, IBool, IDLam, ILam, ILet,
    ITrue, ITyLam, IVar, TermBind, TyVarBind,
)

from conftest import (POSITIVE, corpus_program, corpus_result, count_calls,
                      flex_source, tower_source, type_and_translate,
                      wide_source)
from reader import read_fd_expr


def rebuild(x):
    """A copy of x in which no object occurs twice."""
    if type(x) is tuple:
        return tuple(rebuild(item) for item in x)
    if hasattr(x, "__match_args__"):
        return type(x)(*[rebuild(getattr(x, f)) for f in x.__match_args__])
    return x


def outcome(checker, e):
    try:
        return type_and_translate(checker, e)
    except FdTypeError as err:
        return type(err), err.kind, str(err)


def assert_same_as_unshared(checker, sigma, TC, e):
    """checker (shared with earlier terms) agrees with a fresh checker on
    an unshared copy of e."""
    fresh = FdChecker(rebuild(sigma), rebuild(TC))
    assert outcome(checker, e) == outcome(fresh, rebuild(e))


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


def _doubling_chain(k):
    """(twice (twice ... (twice id))) True, twice nested k deep, with
    twice = \\f : Bool -> Bool. \\x : Bool. f (f x): a trace of thousands
    of steps over small terms."""
    b = IBool()
    twice = ILam("f", IArrow(b, b),
                 ILam("x", b, IApp(IVar("f"), IApp(IVar("f"), IVar("x")))))
    fun = ILam("b", b, IVar("b"))
    for _ in range(k):
        fun = IApp(twice, fun)
    return IApp(fun, ITrue())


def test_trace_checking_keeps_a_bounded_memo():
    e = _doubling_chain(9)
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
    assert len(infer) == 23_114
    assert 0 < len(walks) <= 429
    assert [env for _, env, t in wf if t._fv] == [env for env, in scanned]
    assert len(scanned) == 1_494
    typed = [(id(self._dicts), d) for self, _, d in rule]
    assert len(typed) == len(set(typed)) == 5
    assert not any(d._fv for _, d in typed)


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
    base = weakref.ref(bases.pop())
    bases.clear()
    del r, sigma, TC
    gc.collect()
    assert base() is None


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


def test_a_prefix_checker_keeps_its_own_dictionary_memo():
    # Eq Bool's implementation projects Ord Bool's dictionary, declared
    # after it: the full Σ types that dictionary, the strict prefix that
    # checks the implementation must not.
    r = typecheck_program(parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "class Ord a where { cmp : a -> a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "instance Ord Bool where { cmp = \\x. \\y. True };\n"
        "True"))
    sigma = MethodEnv(r.fd_class_env, r.P, (
        read_fd_expr("[D2_Ord].cmp"),
        read_fd_expr("\\x : Bool. \\y : Bool. True")))
    checker = FdChecker(sigma, sigma.TC)
    assert checker.check_dict((), DCon("D2_Ord", (), ())) is \
        FdQ("Ord", IBool())
    for typer in (checker, checker.child(), checker):
        with pytest.raises(FdTypeError) as err:
            typer.check_dict((), DCon("D1_Eq", (), ()))
        assert err.value.kind == PREFIX_VIOLATION
        assert "references a constructor declared later" in str(err.value)
    assert list(checker._dicts) == [DCon("D2_Ord", (), ())]
