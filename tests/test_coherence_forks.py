"""Coherence by forked evaluation against the enumeration it replaced.

`harness.coherence_report` evaluates each translated forest once per
method environment; its machines fork only where evaluation inspects a
choice, and rank the leaves as the enumeration ordered its values. The
report must equal the one `reference_coherence` builds by evaluating every
square alone, and where that raises, raise the same error.
"""

from __future__ import annotations

import pytest

from dictelab import fd_core, harness, source_typer, syntax as S, target_core
from dictelab.fd_core import FdTypeError, FuelExhausted
from dictelab.parser import parse_program
from dictelab.source_typer import SrcTypeError, typecheck_program
from dictelab.target_core import TgtTypeError

import reference_coherence
from conftest import (EQ, PICK, POSITIVE, corpus_contexts, corpus_text,
                      count_calls, flex_source, sigma_source, squares,
                      tower_source, wide_source)
from test_forest import LADDERS
from test_golden_cli import programs
from test_harness import (FOUR_SIGMAS, NEVER,
                          _break_direct_dictionary_variables)

P3_DECLS = corpus_text("P3").rsplit("in ", 1)[0] + "in "


def flex_reversed(n: int) -> str:
    """flex(n) with the calls nested the other way: the choice evaluation
    inspects, in the outermost call's let, is the first in the forest."""
    main_ = "True"
    for i in reversed(range(n)):
        main_ = f"(f{i} :: Bool -> Bool) ({main_})"
    return flex_source(n).rsplit("\n", 1)[0] + "\n" + main_


PROGRAMS = {
    **LADDERS,
    **{f"sigma{k}": sigma_source(k) for k in range(1, 5)},
    **{name: programs()[f"{name}.src"][0] for name in ("b0", "b1", "b2")},
    # Function-typed mains: the value holds a choice no step inspected.
    "P3-fun": P3_DECLS + "(isz :: Bool -> Bool)",
    "flex3-fun": flex_source(3).rsplit("\n", 1)[0] + "\n(f2 :: Bool -> Bool)",
    "flex3-rev": flex_reversed(3),
    "flex8-rev": flex_reversed(8),
    "pick": PICK,
}
# A function value whose body holds a dictionary abstraction: its trees
# differ in the dictionary a body uses, so their values differ as terms.
LAMBDA_LET = (EQ + "(\\x. let h : Eq Bool => Bool -> Bool = "
              "\\n. (eq :: Bool -> Bool -> Bool) n n "
              "in (h :: Bool -> Bool) x :: Bool -> Bool)")
CAPS = (1, 2, 16, 256)


def outcome(check, r, *args, **kwargs):
    """check's report on r, or the class and message of what it raised."""
    try:
        return check(r, *args, **kwargs)
    except (FdTypeError, TgtTypeError, FuelExhausted, SrcTypeError) as err:
        return type(err), str(err)


def assert_matches_reference(r, *args, **kwargs):
    got = outcome(harness.coherence_report, r, *args, **kwargs)
    assert got == outcome(reference_coherence.coherence_report, r, *args,
                          **kwargs)
    if isinstance(got, harness.CoherenceReport):
        # The composed targets the CLI prints beside the report.
        assert tuple(harness.corners(r, "composed")) == \
            tuple(sq.composed for sq in squares(r))
    return got


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_coherence_agrees_with_the_enumerated_reference(name, cap):
    r = typecheck_program(parse_program(PROGRAMS[name]), cap)
    assert assert_matches_reference(r).all_kleene_equal


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", POSITIVE)
def test_coherence_under_contexts_agrees_with_the_reference(name, cap):
    r = typecheck_program(parse_program(corpus_text(name)), cap)
    assert assert_matches_reference(
        r, contexts=corpus_contexts()).all_kleene_equal


@pytest.mark.parametrize("cap", CAPS)
def test_a_split_value_agrees_with_the_reference(cap):
    r = typecheck_program(parse_program(LAMBDA_LET), cap)
    rep = assert_matches_reference(r)
    assert rep.all_kleene_equal == (cap == 1)


@pytest.mark.parametrize("name", ["P3", "P3-fun"])
def test_every_fuel_exhaustion_agrees_with_the_reference(name):
    # From no fuel up to the first that suffices: every evaluation step of
    # every pipeline is the one that runs out at some fuel.
    src = PROGRAMS.get(name) or corpus_text(name)
    r = typecheck_program(parse_program(src))
    fuel, raised = 0, set()
    while isinstance(got := assert_matches_reference(r, fuel), tuple):
        raised.add(got[0])
        fuel += 1
    assert raised == {FuelExhausted}


def _break_the_last_alternative(monkeypatch):
    """A direct translation that takes the last alternative of each
    choice to a record whose method is always False."""
    rules = source_typer.DirectTranslator._TRANSLATIONS
    translate = rules[S.IChoice]

    def breaking(self, node):
        out = translate(self, node)
        if isinstance(node.alts[-1], S.FdDict):
            out = S.TChoice(out.alts[:-1] + (NEVER,))
        return out
    monkeypatch.setitem(rules, S.IChoice, breaking)


@pytest.mark.parametrize("mutant", [_break_direct_dictionary_variables,
                                    _break_the_last_alternative])
@pytest.mark.parametrize("name", ["P3", "P3-fun", "flex1", "flex3",
                                  "flex3-fun", "wide2", "b2", "sigma3"])
def test_a_broken_translation_is_reported_as_the_reference_reports_it(
        monkeypatch, mutant, name):
    mutant(monkeypatch)
    src = PROGRAMS.get(name) or corpus_text(name)
    for cap in CAPS:
        r = typecheck_program(parse_program(src), cap)
        assert_matches_reference(r, contexts=corpus_contexts())


def _unbind_each_alternative(monkeypatch):
    """A direct translation that takes alternative j of each choice of
    dictionaries to an unbound variable named after j: each tree that
    uses one gets stuck, with a message naming the alternative."""
    rules = source_typer.DirectTranslator._TRANSLATIONS
    translate = rules[S.IChoice]

    def unbinding(self, node):
        out = translate(self, node)
        if isinstance(node.alts[0], S.FdDict):
            out = S.TChoice(tuple(S.TVar(f"nowhere{j}")
                                  for j in range(len(node.alts))))
        return out
    monkeypatch.setitem(rules, S.IChoice, unbinding)


@pytest.mark.parametrize("name", ["P3", "flex3", "flex3-rev", "flex8-rev"])
def test_the_first_error_raised_is_the_reference_s(monkeypatch, name):
    _unbind_each_alternative(monkeypatch)
    src = PROGRAMS.get(name) or corpus_text(name)
    for cap in CAPS:
        r = typecheck_program(parse_program(src), cap)
        got = assert_matches_reference(r)
        assert got == (TgtTypeError, "stuck term nowhere0")


def test_the_direct_values_of_every_sigma_rank_last(monkeypatch):
    # FOUR_SIGMAS under broken direct dictionary variables: the direct
    # value under the first Σ differs, and so does the intermediate value
    # under the second, whose composed translation of True is wrong; the
    # enumeration lists the second before any direct value.
    _break_direct_dictionary_variables(monkeypatch)
    r = typecheck_program(parse_program(FOUR_SIGMAS))
    second = tuple(r.decls.variants[1])
    rules = fd_core.FdChecker._TRANSLATIONS
    translate = rules[S.ITrue]

    def wrong_true(self, node):
        if self.sigma == second:
            return S.TFalse()
        return translate(self, node)
    monkeypatch.setitem(rules, S.ITrue, wrong_true)
    rep = assert_matches_reference(r)
    assert rep.counterexample[1].startswith("fd value of ")


def test_a_counterexample_past_tree_0_is_found(monkeypatch):
    # flex(1) has two trees; the mutant breaks the second alone.
    _break_the_last_alternative(monkeypatch)
    rep = assert_matches_reference(typecheck_program(parse_program(
        flex_source(1))))
    assert not rep.all_kleene_equal
    assert rep.counterexample[0].startswith("fd value of ")
    assert rep.counterexample[1].startswith("direct target ")
    assert "False" in rep.counterexample[1] \
        and "False" not in rep.counterexample[0]


# ---------------------------------------------------------------------------
# Work
# ---------------------------------------------------------------------------

def test_coherence_runs_each_machine_once_per_leaf(monkeypatch):
    # flex(8) has 256 trees, but evaluation inspects one choice, the
    # outermost call's dictionary: two leaves per pipeline, where the
    # enumeration ran four machines for each of the 256 trees.
    r = typecheck_program(parse_program(flex_source(8)))
    # Each language calls the one machine through its module's name.
    fd_runs = count_calls(monkeypatch, fd_core, "run_machine")
    tgt_runs = count_calls(monkeypatch, target_core, "run_machine")
    unpacked = count_calls(monkeypatch, S, "unpack")
    printed = count_calls(monkeypatch, S, "tree_at")
    rep = harness.coherence_report(r)
    assert rep.all_kleene_equal and rep.elab_count_fd == 256
    # Two leaves of the intermediate forest, each value then evaluated in
    # the target; two leaves of each translated forest.
    assert len(fd_runs) == 2 and len(tgt_runs) == 2 + 2 + 2
    assert unpacked == [] and printed == []
    assert rep.count == 256 and unpacked == []
    next(harness.corners(r, "composed"))
    assert len(unpacked) == 1


def test_a_branch_past_the_cap_is_never_taken(monkeypatch):
    r = typecheck_program(parse_program(flex_source(8)), 1)
    runs = count_calls(monkeypatch, fd_core, "run_machine")
    assert harness.coherence_report(r).all_kleene_equal
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# Leaves, counts and trees by index
# ---------------------------------------------------------------------------

def _evaluate(run, *args):
    try:
        return run(*args), None
    except (FdTypeError, TgtTypeError, FuelExhausted) as err:
        return None, (type(err), str(err))


def _leaf_outcome(leaf):
    error = leaf.error and (type(leaf.error), str(leaf.error))
    return leaf.value, error


@pytest.mark.parametrize("fuel", [3, 100_000])
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_each_leaf_is_the_value_of_its_first_tree(name, fuel):
    # A leaf's low is the index of the first tree it stands for, and that
    # tree, evaluated alone, gives the leaf's value or error; the leaves
    # are at most the trees read.
    r = typecheck_program(parse_program(PROGRAMS[name]))
    for env in harness._environments(r):
        _, sigma, _, n, direct, composed = env
        leaves = fd_core.fd_leaves(sigma, r.forest, fuel, n)
        assert len({leaf.low for leaf in leaves}) == len(leaves) <= n
        assert 0 in {leaf.low for leaf in leaves}
        for leaf in leaves:
            tree = S.tree_at(r.forest, leaf.low)
            assert _leaf_outcome(leaf) == _evaluate(fd_core.fd_eval, sigma,
                                                    tree, fuel)
        for forest in (direct, composed):
            leaves = target_core.tgt_leaves(forest, fuel, n)
            assert len({leaf.low for leaf in leaves}) == len(leaves) <= n
            for leaf in leaves:
                assert _leaf_outcome(leaf) == _evaluate(
                    target_core.tgt_eval, S.tree_at(forest, leaf.low), fuel)


def test_a_forest_evaluates_alone_as_its_first_tree():
    r = typecheck_program(parse_program(flex_source(3)))
    sigma = r.decls.variants[0]
    assert fd_core.fd_eval(sigma, r.forest, 100) == fd_core.fd_eval(
        sigma, S.tree_at(r.forest, 0), 100)


def _count_programs():
    out = {name: corpus_text(name) for name in POSITIVE}
    out.update({f"flex{n}": flex_source(n) for n in range(1, 9)})
    out.update({f"wide{k}": wide_source(k) for k in (1, 2)})
    out.update({f"tower{d}": tower_source(d) for d in range(1, 9)})
    return out


COUNTED = _count_programs()


@pytest.mark.parametrize("name", list(COUNTED))
def test_tree_count_and_tree_at_agree_with_unpack(name):
    r = typecheck_program(parse_program(COUNTED[name]))
    sigma = r.decls.variants[0]
    direct = sigma.derived(source_typer.DirectTranslator)
    for forest in (r.forest, direct(r.forest),
                   harness._composed(sigma.derived(fd_core.fd_env_wf),
                                     r.forest)):
        trees = S.unpack(forest, 10 ** 6)
        assert S.tree_count(forest) == len(trees)
        assert [S.tree_at(forest, i) for i in range(len(trees))] == trees


@pytest.mark.parametrize("k", [6, 8])
def test_tree_count_is_exact_past_the_cap(k):
    r = typecheck_program(parse_program(wide_source(k)))
    assert r.count == 256 and S.tree_count(r.forest) == 16 ** k
    # The last tree takes the instance, the last alternative, for each of
    # f's k constraints, where the first takes a local dictionary.
    first, last = (S.pretty(S.tree_at(r.forest, i)) for i in (0, 16 ** k - 1))
    assert last.count("D1_Eq") == first.count("D1_Eq") + k


# Synthetic target forests: Kfst and Ksnd pick their first and second of
# two arguments.
BOOL2 = S.TArrow(S.TBool(), S.TArrow(S.TBool(), S.TBool()))
KFST = S.TLam("a", S.TBool(), S.TLam("b", S.TBool(), S.TVar("a")))
KSND = S.TLam("a", S.TBool(), S.TLam("b", S.TBool(), S.TVar("b")))
BOTH = S.TChoice((S.TTrue(), S.TFalse()))


def _apply(f, *args):
    for a in args:
        f = S.TApp(f, a)
    return f


@pytest.mark.parametrize("forest,values", [
    # x is used twice: one occurrence, decided once on each path.
    (S.TApp(S.TLam("x", BOOL2, _apply(S.TVar("x"),
                                      _apply(S.TVar("x"), S.TTrue(),
                                             S.TFalse()), S.TFalse())),
            S.TChoice((KFST, KSND))), [S.TTrue(), S.TFalse()]),
    # A choice in a record field, reached by projection.
    (S.TProj(S.TRecord((("eq", BOTH),)), "eq"), [S.TTrue(), S.TFalse()]),
    # A let-bound choice that nothing inspects.
    (S.TLet("y", S.TBool(), BOTH, S.TTrue()), [S.TTrue()]),
    # One argument inspected, the other dropped: the dropped one's
    # alternatives share a leaf, whose first tree takes alternative 0.
    (_apply(S.TChoice((KFST, KSND)), BOTH, BOTH),
     [S.TTrue(), S.TFalse(), S.TTrue(), S.TFalse()]),
    # Stuck with a choice no step inspected: the message shows the first
    # tree's alternative.
    (S.TApp(S.TTrue(), BOTH), [None]),
])
def test_a_target_forest_forks_where_a_choice_is_inspected(forest, values):
    leaves = sorted(target_core.tgt_leaves(forest, 100, 100),
                    key=lambda leaf: leaf.low)
    assert [leaf.value for leaf in leaves] == values
    for leaf in leaves:
        assert _leaf_outcome(leaf) == _evaluate(
            target_core.tgt_eval, S.tree_at(forest, leaf.low), 100)
    # Under a cap of one tree, only the first leaf's branch is taken.
    assert [leaf.low for leaf in target_core.tgt_leaves(forest, 100, 1)] \
        == [0]
