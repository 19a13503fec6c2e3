from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import types
import weakref

import pytest

from dictelab import fd_core, harness, source_typer, syntax as S
from dictelab.harness import (check_coherence, check_decomposition,
                              check_metatheory, closed_dicts, coherence_lines,
                              decomposition_lines, generate_fd_term,
                              meta_lines)
from dictelab.parser import parse_program
from dictelab.source_typer import (MAX_ELABORATIONS, MethodEnv,
                                   typecheck_program)
from dictelab.syntax import (FdClassEntry, FdConstraintScheme, FdQ, IArrow,
                             IBool, ITyVar, MethodImpl)

from conftest import (PICK_ANY, POSITIVE, corpus_contexts, corpus_program,
                      corpus_result, corpus_text, count_calls, count_rules,
                      flex_source, squares, tower_source,
                      type_and_translate, wide_source)
from reader import read_fd_expr
import reference_generator
from test_golden_cli import programs


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,count", [("P1", 1), ("P2", 2), ("P3", 2),
                                        ("P4", 1)])
def test_corpus_is_coherent(name, count):
    rep = check_coherence(corpus_program(name))
    assert rep.all_kleene_equal
    assert not rep.truncated
    assert rep.elab_count_fd == rep.elab_count_tgt == count
    assert rep.witness_value == "True"
    assert rep.counterexample is None


@pytest.mark.parametrize("name", POSITIVE)
def test_coherence_survives_program_contexts(name):
    rep = check_coherence(corpus_program(name), contexts=corpus_contexts())
    assert rep.all_kleene_equal


def test_coherence_report_lines_are_stable():
    rep = check_coherence(corpus_program("P1"))
    lines = coherence_lines(rep, "P1")
    assert lines == coherence_lines(rep, "P1")
    assert any("Kleene-equal" in ln for ln in lines)


def test_both_reports_read_one_typing(monkeypatch):
    # Contexts retype only the plugged main, never the declarations.
    calls = count_calls(monkeypatch, source_typer, "typecheck_instance")
    r = source_typer.typecheck_program(corpus_program("P2"))
    coh = harness.coherence_report(r, contexts=corpus_contexts() * 3)
    dec = harness.decomposition_report(r)
    assert coh.all_kleene_equal and dec.equal
    assert len(calls) == len(r.P) == 3


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE)
def test_direct_and_composed_elaborations_coincide(name):
    rep = check_decomposition(corpus_program(name))
    assert rep.equal
    assert rep.count_direct == rep.count_composed
    assert rep.mismatches == ()


def test_decomposition_counts_match_typechecker():
    r = corpus_result("P2")
    rep = check_decomposition(corpus_program("P2"))
    assert rep.count_composed == len(r.fd_elabs) == 2


@pytest.mark.parametrize("name", ["b0.src", "b2.src"])
def test_decomposition_fixes_one_body_per_instance(name):
    # Ord's body resolves Eq Bool two ways. Each method environment fixes
    # one of them for the whole program, in both translations.
    rep = check_decomposition(parse_program(programs()[name][0]))
    assert rep.equal and rep.mismatches == ()
    assert rep.count_direct == rep.count_composed == 2


def test_decomposition_abstracts_a_record_over_its_context_in_order():
    # Two context dictionaries: both translations must abstract and apply
    # them in the order of the instance context.
    rep = check_decomposition(parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "class Ord a where { le : a -> a -> Bool };\n"
        "class Both a where { both : a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "instance Ord Bool where { le = \\x. \\y. False };\n"
        "instance (Eq a, Ord a) => Both (a -> a) where "
        "{ both = \\f. True };\n"
        "(both :: (Bool -> Bool) -> Bool) (\\x. x)"))
    assert rep.equal and rep.count_direct == 1


# Mutation checks: a wrong dictionary-variable rule in either translation
# must break the commuting square, and the report must name the derivation.
# In P3 the let body resolves Eq Bool through its local dictionary or
# through the global instance.

NEVER = S.TRecord((("eq", S.TLam("x", S.TBool(),
                                  S.TLam("y", S.TBool(), S.TFalse()))),))
P3_LOCAL = ("let isz : [Eq Bool] -> Bool -> Bool = "
            "\\δisz1 : [Eq Bool]. \\n : Bool. [δisz1].eq n n "
            "in isz [D1_Eq] True")


def _assert_the_square_breaks_at_the_local_dictionary():
    rep = check_decomposition(corpus_program("P3"))
    assert not rep.equal
    (m,) = rep.mismatches
    assert m.derivation == P3_LOCAL and m.variant == 0
    assert m.direct != m.composed
    lines = decomposition_lines(rep, "P3")
    assert f"  derivation: {P3_LOCAL} (method environment 0)" in lines


def _break_direct_dictionary_variables(monkeypatch):
    monkeypatch.setattr(source_typer.DirectTranslator, "dict_var",
                        lambda self, dv: NEVER)


def test_decomposition_catches_wrong_intermediate_dictionary(monkeypatch):
    # The bug is in FdChecker's translation of a dictionary variable.
    monkeypatch.setitem(fd_core.FdChecker._TRANSLATIONS, S.DVar,
                        lambda self, node: NEVER)
    _assert_the_square_breaks_at_the_local_dictionary()


def test_decomposition_catches_wrong_target_dictionary(monkeypatch):
    _break_direct_dictionary_variables(monkeypatch)
    _assert_the_square_breaks_at_the_local_dictionary()


# Ord's body calls eq twice, each through the local dictionary or the
# global instance: four method environments, and only the last one uses no
# dictionary variable.
EQ_CALL = "(eq :: Bool -> Bool -> Bool)"
FOUR_SIGMAS = (
    "class Eq a where { eq : a -> a -> Bool };\n"
    "class Ord a where { le : a -> a -> Bool };\n"
    "instance Eq Bool where { eq = \\x. \\y. True };\n"
    "instance Eq Bool => Ord Bool where "
    f"{{ le = \\x. \\y. {EQ_CALL} ({EQ_CALL} x y) y }};\n"
    "(le :: Bool -> Bool -> Bool) True True")


def test_decomposition_names_the_method_environment_of_a_mismatch(
        monkeypatch):
    _break_direct_dictionary_variables(monkeypatch)
    r = source_typer.typecheck_program(parse_program(FOUR_SIGMAS))
    rep = harness.decomposition_report(r)
    assert rep.count_direct == rep.count_composed == 4
    assert [m.variant for m in rep.mismatches] == [0, 1, 2]
    # The squares compared and the forest found equal, in variant order.
    assert tuple(harness.corners(r, "composed")) == \
        tuple(sq.composed for sq in squares(r))


def test_each_method_environment_is_validated_once(monkeypatch):
    calls = []
    env_wf = harness.fd_env_wf

    def counted(sigma, TC):
        calls.append(sigma)
        return env_wf(sigma, TC)
    monkeypatch.setattr(harness, "fd_env_wf", counted)
    rep = check_decomposition(parse_program(FOUR_SIGMAS))
    assert rep.equal and rep.count_composed == 4
    assert len(calls) == len({id(sigma) for sigma in calls}) == 4


def test_both_reports_and_every_context_share_each_checker(monkeypatch):
    calls = count_calls(monkeypatch, harness, "fd_env_wf")
    r = source_typer.typecheck_program(corpus_program("P2"))
    harness.coherence_report(r, contexts=corpus_contexts())
    harness.decomposition_report(r)
    assert [sigma for sigma, _ in calls] == list(r.decls.variants)


def test_decomposition_after_coherence_translates_nothing(monkeypatch):
    r = source_typer.typecheck_program(corpus_program("P2"))
    coh = harness.coherence_report(r, contexts=corpus_contexts())
    nodes = count_rules(monkeypatch,
                        source_typer.DirectTranslator._TRANSLATIONS)
    checked = count_calls(monkeypatch, fd_core.FdChecker, "_infer")
    composed = count_rules(monkeypatch, fd_core.FdChecker._TRANSLATIONS)
    dec = harness.decomposition_report(r)
    assert dec.equal and dec.count == coh.count == \
        len(list(harness.corners(r, "composed")))
    assert nodes == [] and checked == [] and composed == []


def _keeps(sigma) -> bool:
    """Whether the typed Σ sigma keeps a translator or checker."""
    return bool(sigma._kept)


def test_a_copy_of_a_typed_program_leaves_the_translators_behind():
    # The translators' memos are keyed by id(); a copy starts afresh, and
    # neither equality nor hashing sees them.
    r = source_typer.typecheck_program(parse_program(FOUR_SIGMAS))
    fresh = copy.deepcopy(r)
    read = list(squares(r))
    assert all(map(_keeps, r.decls.variants))
    assert not any(map(_keeps, fresh.decls.variants))
    assert not any(map(_keeps, copy.deepcopy(r).decls.variants))
    assert not any(_keeps(copy.copy(sigma)) for sigma in r.decls.variants)
    assert r == fresh and hash(r) == hash(fresh) and repr(r) == repr(fresh)
    assert [(sq.variant, sq.direct, sq.composed)
            for sq in squares(fresh)] == \
        [(sq.variant, sq.direct, sq.composed) for sq in read]


def test_a_copy_or_pickle_of_a_sigma_is_equal_and_keeps_nothing():
    r = source_typer.typecheck_program(parse_program(FOUR_SIGMAS))
    list(squares(r))
    sigma = r.decls.variants[0]
    check_metatheory(sigma, r.fd_class_env, generate_fd_term(
        0, 4, sigma, r.fd_class_env))
    assert _keeps(sigma) and len(sigma._kept) == 4
    for other in (copy.copy(sigma), copy.deepcopy(sigma),
                  pickle.loads(pickle.dumps(sigma))):
        assert type(other) is source_typer.MethodEnv and other is not sigma
        assert other == sigma and hash(other) == hash(sigma)
        assert tuple(other) == tuple(sigma) and repr(other) == repr(sigma)
        assert (other.TC, other.P, other.bodies) == \
            (sigma.TC, sigma.P, sigma.bodies)
        assert not _keeps(other)


@pytest.mark.parametrize("name", POSITIVE + ["b0.src", "b2.src"])
def test_coherence_and_decomposition_share_the_composed_targets(name):
    p = corpus_program(name) if name in POSITIVE \
        else parse_program(programs()[name][0])
    # Both count the composed targets that the CLI prints beside them.
    assert check_coherence(p).count == check_decomposition(p).count == \
        len(list(harness.corners(typecheck_program(p), "composed")))


def test_coherence_violation_names_both_elaborations(monkeypatch):
    # A wrong local dictionary in the direct translation makes one direct
    # target evaluate to False; the report names it and the first value.
    _break_direct_dictionary_variables(monkeypatch)
    rep = check_coherence(corpus_program("P3"))
    assert not rep.all_kleene_equal
    assert rep.counterexample == (
        "fd value of let isz : [Eq Bool] -> Bool -> Bool = "
        "\\δisz1 : [Eq Bool]. \\n : Bool. [δisz1].eq n n "
        "in isz [D1_Eq] True",
        "direct target let isz : {eq : Bool -> Bool -> Bool} -> "
        "Bool -> Bool = \\$d_δisz1 : {eq : Bool -> Bool -> Bool}. "
        "\\n : Bool. {eq = \\x : Bool. \\y : Bool. False}.eq n n "
        "in isz {eq = \\x : Bool. \\y : Bool. True} True")


def test_decomposition_report_lines():
    rep = check_decomposition(corpus_program("P1"))
    assert any("equal" in ln for ln in decomposition_lines(rep, "P1"))


# ---------------------------------------------------------------------------
# Metatheory trace walking
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_traces_are_safe(name):
    r = corpus_result(name)
    for sigma, ie in r.fd_elabs:
        rep = check_metatheory(sigma, r.fd_class_env, ie)
        assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
        assert rep.failing_term is None
        assert rep.steps_checked > 0


def test_metatheory_reports_fuel_exhaustion():
    # Well-typed terms terminate, so only a fuel of 0 runs out.
    e = S.IApp(S.ILam("x", IBool(), S.IVar("x")), S.ITrue())
    rep = check_metatheory((), (), e, fuel=0)
    assert (rep.steps_checked, rep.preservation_ok, rep.progress_ok,
            rep.fuel_ok) == (0, True, True, False)
    assert check_metatheory((), (), e, fuel=1).fuel_ok


def test_metatheory_reports_an_ill_typed_start_term_as_a_violation():
    # No step is taken, so no fuel is spent: the verdict is a violation,
    # not a resource limit.
    rep = check_metatheory((), (), S.IApp(S.ITrue(), S.ITrue()))
    assert (rep.steps_checked, rep.preservation_ok, rep.progress_ok,
            rep.fuel_ok) == (0, False, False, True)
    assert "fuel: ok" in meta_lines(rep)
    assert rep.failing_term.startswith("True True : ")


def test_metatheory_catches_a_type_breaking_implementation():
    # Bypass the typechecker and install an implementation whose result
    # type lies: invoking the method steps to a term of a different type.
    tc = (FdClassEntry("eq", "Eq", "a",
                       IArrow(ITyVar("a"), IArrow(ITyVar("a"), IBool()))),)
    bad = (MethodImpl("D1_Eq", FdConstraintScheme((), (), FdQ("Eq", IBool())),
                      "eq", read_fd_expr("\\x : Bool. x")),)
    e = read_fd_expr("[D1_Eq].eq True False")
    rep = check_metatheory(bad, tc, e)
    assert not rep.preservation_ok
    assert rep.failing_term is not None


def test_meta_lines_mention_each_property():
    r = corpus_result("P1")
    sigma, ie = r.fd_elabs[0]
    lines = meta_lines(check_metatheory(sigma, r.fd_class_env, ie))
    text = "\n".join(lines)
    for word in ("preservation", "progress", "fuel"):
        assert word in text


# ---------------------------------------------------------------------------
# Term generation
# ---------------------------------------------------------------------------

def _p2_env():
    r = corpus_result("P2")
    sigma, _ = r.fd_elabs[0]
    return sigma, r.fd_class_env


def test_closed_dicts_cover_ground_instances():
    sigma, _ = _p2_env()
    dicts = closed_dicts(sigma)
    names = {d.name for _, d in dicts if isinstance(d, S.DCon)}
    assert {e.con for e in sigma} <= names


def test_generated_terms_deterministic_per_seed():
    sigma, tc = _p2_env()
    for seed in range(10):
        t1 = generate_fd_term(seed, 8, sigma, tc)
        t2 = generate_fd_term(seed, 8, sigma, tc)
        assert t1 == t2


def test_generated_terms_vary_across_seeds():
    sigma, tc = _p2_env()
    terms = {generate_fd_term(seed, 8, sigma, tc) for seed in range(30)}
    assert len(terms) > 5


def test_generated_terms_are_pinned():
    # The generator's output for a fixed seed range, recorded before its
    # method calls were computed once per term instead of at every node.
    h = hashlib.sha256()
    for name in ("P2", "P4"):
        r = corpus_result(name)
        sigma = r.fd_elabs[0][0]
        for size in (4, 6):
            for seed in range(200):
                e = generate_fd_term(seed, size, sigma, r.fd_class_env)
                h.update((S.pretty(e) + "\n").encode())
    assert h.hexdigest() == ("4b2d4b7eee15c52092b2741eec5278b3"
                             "bee4272746816654fbc18f57a9ab434c")


def _fuzz_work():
    """The benchmark's fuzz work: each generated term with its report."""
    for name in ("P2", "P4"):
        r = corpus_result(name)
        sigma = r.fd_elabs[0][0]
        for size in (4, 6):
            for seed in range(100):
                e = generate_fd_term(seed, size, sigma, r.fd_class_env)
                yield e, check_metatheory(sigma, r.fd_class_env, e)


def test_fuzz_work_is_pinned():
    # The terms checked and the length of each checked trace, recorded
    # before subst, alpha_eq and the checker took their fast paths: a
    # speed-up must not come from checking other terms or shorter traces.
    h = hashlib.sha256()
    steps = 0
    for e, rep in _fuzz_work():
        assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
        h.update(f"{S.pretty(e)}\n{rep.steps_checked}\n".encode())
        steps += rep.steps_checked
    assert steps == 1396
    assert h.hexdigest() == ("7211cb315511aebb2dda291709551f55"
                             "0f9d9987f8fb6bbca51e0d312ee12d94")


def test_a_size_6_stream_checks_a_pinned_number_of_steps():
    # The trace steps of P2's first 50 terms at size 6, recorded before
    # each method environment kept its state across terms: a speed-up
    # must not come from checking fewer steps.
    r = corpus_result("P2")
    sigma = r.fd_elabs[0][0]
    steps = 0
    for seed in range(50):
        e = generate_fd_term(seed, 6, sigma, r.fd_class_env)
        rep = check_metatheory(sigma, r.fd_class_env, e)
        assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
        steps += rep.steps_checked
    assert steps == 226


def _fresh_sigma(name: str):
    """The first Σ of the corpus program name, typed afresh, so that its
    stream state is new; or, for "()", a Σ with no instances over no
    classes, which has no closed dictionaries."""
    if name == "()":
        return MethodEnv((), (), ())
    return typecheck_program(corpus_program(name)).fd_elabs[0][0]


@pytest.mark.parametrize("size", range(9))
@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P4", "()"])
def test_generated_terms_agree_with_the_reference_generator(name, size):
    # Seed by seed, the same terms as the generator that built a closure
    # per rule and scanned every call with alpha_eq, and so the same
    # random draws and fresh names; and the same types kept.
    sigma = _fresh_sigma(name)
    state = sigma.derived(harness._Generators)
    ref = reference_generator.Generators(sigma, sigma.TC)
    for seed in range(300):
        e = generate_fd_term(seed, size, sigma, sigma.TC)
        want = reference_generator.generate_fd_term(seed, size, ref)
        assert e == want
        assert S.pretty(e) == S.pretty(want)
        assert state.kept == ref.kept
        if name == "()":        # a Σ that is not a typed one
            assert generate_fd_term(seed, size, (), ()) == e


@pytest.mark.parametrize("size", (2, 4, 6))
def test_a_method_type_that_binds_is_generated_as_the_reference_does(size):
    # A call whose type holds a binder is found by alpha_eq
    # (`bound_calls`): the same terms and types kept as the reference,
    # and every term safe.
    sigma = typecheck_program(parse_program(PICK_ANY)).fd_elabs[0][0]
    state = sigma.derived(harness._Generators)
    assert [S.pretty(call) for call, _ in state.bound_calls] == \
        ["[D1_Pick].pick"] and not state.calls
    ref = reference_generator.Generators(sigma, sigma.TC)
    picks = 0
    for seed in range(500):
        e = generate_fd_term(seed, size, sigma, sigma.TC)
        want = reference_generator.generate_fd_term(seed, size, ref)
        assert e == want and S.pretty(e) == S.pretty(want)
        assert state.kept == ref.kept
        rep = check_metatheory(sigma, sigma.TC, e)
        assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
        picks += ".pick" in S.pretty(e)
    assert picks == {2: 5, 4: 6, 6: 5}[size]


def _nodes(x):
    """Every node of x, a node or a tuple of them, in a fixed order."""
    stack = [x]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            stack.extend(x)
        elif type(x) in S._SHAPES:
            yield x
            stack.extend(getattr(x, f) for f in x.__match_args__)


def assert_facts_as_walked(e):
    """Every node of e has its facts cached, and they are those that
    `_fact_walk` computes on a fact-free copy of e (a pickle keeps no
    fact)."""
    fresh = pickle.loads(pickle.dumps(e))
    S._fact_walk(fresh)
    for node, walked in zip(_nodes(e), _nodes(fresh), strict=True):
        assert node._fv is not None, S.pretty(node)
        assert (node._fv, node._binds) == (walked._fv, walked._binds)


@pytest.mark.parametrize("name", ["P2", "P4"])
def test_generated_nodes_have_the_facts_a_walk_gives(name):
    # The fuzz digest's programs, at every size: the generator gives each
    # node it builds its facts, and they are the walk's.
    sigma = corpus_result(name).fd_elabs[0][0]
    for size in range(9):
        for seed in range(100):
            assert_facts_as_walked(generate_fd_term(seed, size, sigma,
                                                    sigma.TC))


def _built(x):
    """x rebuilt bottom up as the generator builds: each new node given
    its facts at once (`with_facts`)."""
    if type(x) not in S._SHAPES or type(x) in S._INTERNED:
        return x
    return S.with_facts(type(x)(*[_built(getattr(x, f))
                                  for f in x.__match_args__]))


BOOL, EQ_BOOL = IBool(), FdQ("Eq", IBool())
FACT_CASES = [
    # A shadowed binder: the inner one binds.
    S.ILam("x", BOOL, S.ILam("x", BOOL, S.IApp(S.IVar("x"), S.IVar("y")))),
    # A let binds its name in its body only.
    S.ILet("x", BOOL, S.IVar("x"),
           S.ILet("x", BOOL, S.IVar("y"), S.IVar("x"))),
    # A type abstraction over a free and over its own type variable.
    S.ITyLam("a", S.ILam("y", ITyVar("b"), S.IVar("y"))),
    S.ITyLam("a", S.ILam("y", ITyVar("a"), S.IVar("z"))),
    # A type application at a type that binds, and at a free variable.
    S.ITyApp(S.IVar("f"), S.IForall("c", IArrow(ITyVar("c"), BOOL))),
    S.ITyApp(S.ITrue(), ITyVar("a")),
    # Dictionaries: a bound and a free variable, and a closed constructor.
    S.IDLam("d", EQ_BOOL, S.IApp(S.IMethod(S.DVar("d"), "eq"),
                                 S.IMethod(S.DVar("e"), "eq"))),
    S.IDApp(S.IVar("f"), S.DCon("D1_Eq", (), ())),
]


@pytest.mark.parametrize("e", FACT_CASES, ids=S.pretty)
def test_with_facts_gives_a_node_the_facts_a_walk_gives(e):
    built = _built(e)
    assert built == e
    assert_facts_as_walked(built)


def test_with_facts_walks_what_has_no_facts():
    # A part without facts, and a node with a tuple of parts, which the
    # generator never builds, are walked.
    body = S.IApp(S.IVar("x"), S.IVar("y"))
    assert S.with_facts(S.ILam("x", BOOL, body))._fv == (("iv", "y"),)
    assert body._fv == (("iv", "x"), ("iv", "y"))
    choice = S.with_facts(S.IChoice((S.IVar("z"), S.ITrue())))
    assert choice._fv == (("iv", "z"),) and not choice._binds


def test_below_draws_as_choice_and_randrange():
    # The generator's draws are `_below` over a Random's bits; `choice`
    # and `randrange` draw the same, on this Python.
    for seed in range(200):
        for n in range(1, 21):
            below, choice, randrange = (random.Random(seed)
                                        for _ in range(3))
            drawn = [harness._below(below.getrandbits, n) for _ in range(8)]
            assert drawn == [choice.choice(range(n)) for _ in range(8)]
            assert drawn == [randrange.randrange(n) for _ in range(8)]


def test_generating_a_term_frees_the_types_the_last_one_kept():
    # Generation leaves no reference cycle: without a garbage collection,
    # the next term's generation frees the kept set of the one before.
    sigma = _fresh_sigma("P2")
    state = sigma.derived(harness._Generators)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for seed in range(20):
            generate_fd_term(seed, 6, sigma, sigma.TC)
            old = weakref.ref(state.kept)
            generate_fd_term(seed + 1, 6, sigma, sigma.TC)
            assert old() is None
    finally:
        if enabled:
            gc.enable()


def test_the_first_fuzz_terms_leave_no_syntax_closure_as_garbage():
    # The walks of `syntax` leave no reference cycle through their
    # closures: with collections off, the first terms of the fuzz work,
    # typed programs included, leave no function of `syntax` that only a
    # collection would free.
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in itertools.islice(_fuzz_work(), 20):
            pass
        gc.collect()
        left = [f.__qualname__ for f in gc.garbage
                if type(f) is types.FunctionType
                and f.__module__ == "dictelab.syntax"]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


def test_fuzz_work_builds_no_target_term(monkeypatch):
    # Work counts: trace checking types every step and translates none.
    # An interned class builds its nodes in `__new__`.
    built = [count_calls(monkeypatch, cls,
                         "__new__" if cls in S._INTERNED else "__init__")
             for cls in S._SHAPES if issubclass(
                 cls, (S.TgtExpr, S.TgtType, S.TChoice))]
    translated = count_calls(monkeypatch, fd_core.FdChecker, "translate")
    for _ in _fuzz_work():
        pass
    assert sum(map(len, built)) == 0 and translated == []
    # The counters count: one translation builds target nodes.
    r = corpus_result("P2")
    sigma, ie = r.fd_elabs[0]
    fd_core.FdChecker(sigma, r.fd_class_env).translate(ie)
    assert sum(map(len, built)) > 0 and translated


def _translation_pin_programs():
    """(source, cap) of each program whose squares the translation pin
    covers."""
    out = [(corpus_text(name), MAX_ELABORATIONS) for name in POSITIVE]
    out += [(flex_source(n), MAX_ELABORATIONS) for n in range(1, 9)]
    out += [(wide_source(k), cap)
            for k in (1, 2, 3) for cap in (1, 16, 256)]
    out += [(tower_source(d), MAX_ELABORATIONS) for d in range(1, 9)]
    return out


def test_composed_translations_are_pinned():
    # The composed corner of every square, and the composed translation of
    # each fuzz-digest term and of its intermediate value, recorded while
    # typing still built the translation: translating typed terms apart
    # from typing them must give the same targets.
    h = hashlib.sha256()
    for src, cap in _translation_pin_programs():
        r = source_typer.typecheck_program(parse_program(src), cap)
        for sq in squares(r):
            h.update((S.pretty(sq.composed) + "\n").encode())
    for name in ("P2", "P4"):
        r = corpus_result(name)
        sigma, TC = r.fd_elabs[0][0], r.fd_class_env
        for size in (4, 6):
            for seed in range(100):
                e = generate_fd_term(seed, size, sigma, TC)
                checker = fd_core.FdChecker(sigma, TC)
                for term in (e, fd_core.fd_eval(sigma, e, 100_000)):
                    _, te = type_and_translate(checker, term)
                    h.update((S.pretty(te) + "\n").encode())
    assert h.hexdigest() == ("b31f05dfdd4f001f7c1785f79f30d600"
                             "4940811878a6773efa22034eb6cc7101")


def test_fuzz_work_walks_each_range_value_once(monkeypatch):
    # Work counts, not times: subst reads the free variables of its range
    # values off their facts, which a value that has none yet computes in
    # one walk, and no node computes its facts twice in its life; alpha_eq
    # leaves nodes of different classes before its renaming walk.
    frames, computed, range_walks, renaming_walks = [], {}, [0], []
    subst, fact_walk, alpha_walk = S.subst, S._fact_walk, S._alpha_walk

    def counted_subst(node, sort, mapping):
        frames.append(list(mapping.values()))
        try:
            return subst(node, sort, mapping)
        finally:
            frames.pop()

    def recorded_setattr(node, name, value):
        # Every fact a node caches is stored here, its free variables
        # first; the node is kept, so its id stays its own.
        if name == "_fv":
            assert id(node) not in computed, S.pretty(node)
            computed[id(node)] = node
        object.__setattr__(node, name, value)

    def counted_fact_walk(root):
        if frames and any(root is v for v in frames[-1]):
            range_walks[0] += 1
        return fact_walk(root)

    def counted_alpha_walk(a, b):
        renaming_walks.append((type(a), type(b)))
        return alpha_walk(a, b)

    monkeypatch.setattr(S, "subst", counted_subst)
    monkeypatch.setattr(fd_core, "subst", counted_subst)
    monkeypatch.setattr(S, "_setattr", recorded_setattr)
    monkeypatch.setattr(S, "_fact_walk", counted_fact_walk)
    monkeypatch.setattr(S, "_alpha_walk", counted_alpha_walk)
    for _ in _fuzz_work():
        pass
    assert range_walks[0] > 0 and renaming_walks
    assert any(type(node) not in S._INTERNED for node in computed.values())
    assert all(a is b for a, b in renaming_walks)


def test_fuzz_work_substitutes_without_walking_what_it_leaves():
    # Work counts: subst walks only toward a variable it replaces, since
    # every range value in a trace is closed. The calls of the functions
    # subst defines, its walk and its comprehensions: 18 083 when every
    # substitution walked its whole body, 3 142 with its facts cached.
    codes = {c for c in S.subst.__code__.co_consts
             if isinstance(c, types.CodeType)}
    visits = 0

    def profile(frame, event, arg):
        nonlocal visits
        if event == "call" and frame.f_code in codes:
            visits += 1
    sys.setprofile(profile)
    try:
        for _ in _fuzz_work():
            pass
    finally:
        sys.setprofile(None)
    assert 0 < visits <= 3_500


def test_fuzz_work_reads_type_variables_only_for_an_open_annotation(
        monkeypatch):
    # Work counts: a checker reads the type variables of the environment
    # at hand only to check an annotation with a free type variable, and
    # each such variable is bound there.
    scanned = []
    env_tyvars = fd_core.env_tyvars

    def counted(env):
        t = sys._getframe(1).f_locals["t"]
        tyvars = env_tyvars(env)
        scanned.append(({a for _, a in t._fv}, tyvars))
        return tyvars
    monkeypatch.setattr(fd_core, "env_tyvars", counted)
    for _ in _fuzz_work():
        pass
    assert scanned and all(free and free <= tyvars
                           for free, tyvars in scanned)


@pytest.mark.parametrize("seed", range(50))
def test_generated_terms_are_well_typed_and_safe(seed):
    sigma, tc = _p2_env()
    e = generate_fd_term(seed, 8, sigma, tc)
    rep = check_metatheory(sigma, tc, e)
    assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
