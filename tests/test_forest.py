"""The packed derivation forest against the enumeration it replaced.

The typer returns one forest per judgment; `syntax.unpack` reads its trees
in lexicographic order. What every consumer sees must be what the capped
Cartesian products produced before: the same elaborations, in the same
order, with the same truncation flags and errors.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from dictelab import fd_core, harness, source_typer, syntax as S, target_core
from dictelab.cli import main
from dictelab.fd_core import FdChecker
from dictelab.harness import DecompositionReport, Mismatch
from dictelab.parser import parse_program
from dictelab.source_typer import DirectTranslator, Limits, typecheck_program

from conftest import (POSITIVE, corpus_contexts, corpus_text, count_calls,
                      flex_source, tower_source, type_and_translate,
                      wide_source)
from test_enumeration_pin import LOCAL_EQ, SELF_SUPPORT, SELF_SUPPORT_TWICE
from test_harness import FOUR_SIGMAS

# ---------------------------------------------------------------------------
# Decomposition over forests against decomposition square by square
# ---------------------------------------------------------------------------

def ladder_programs():
    """name -> source of the corpus and the ladder rungs the differential
    and escape checks run on."""
    out = {name: corpus_text(name) for name in POSITIVE}
    out.update({f"flex{n}": flex_source(n) for n in range(1, 9)})
    out.update({f"wide{k}": wide_source(k) for k in (1, 2, 3)})
    out.update({f"tower{d}": tower_source(d) for d in range(1, 9)})
    return out


LADDERS = ladder_programs()


def reference_squares(r):
    """Each square of r as it was built before forests, as (variant, sigma,
    derivation, direct, composed): each unpacked derivation translated
    alone, by fresh translators."""
    variants = r.decls.variants
    for sigma, ie in r.fd_elabs:
        variant = next(i for i, s in enumerate(variants) if s is sigma)
        direct = DirectTranslator(r.fd_class_env, r.P,
                                  variants[variant].bodies)(ie)
        _, te = type_and_translate(FdChecker(sigma, r.fd_class_env), ie)
        yield variant, sigma, ie, direct, te


def reference_decomposition(r, program_name=""):
    """Decomposition as it was checked before forests: each square of
    reference_squares compared by alpha_eq."""
    squares = list(reference_squares(r))
    mismatches = tuple(
        Mismatch(S.pretty(ie), variant, S.pretty(direct), S.pretty(te))
        for variant, _, ie, direct, te in squares
        if not S.alpha_eq(direct, te))
    return DecompositionReport(program_name, not mismatches, r.fd_truncated,
                               r.main_type, tuple(te for *_, te in squares),
                               mismatches)


def fields(rep: DecompositionReport):
    return (rep.equal, rep.count_direct, rep.count_composed, rep.truncated,
            [S.pretty(te) for te in rep.composed], rep.mismatches)


def assert_matches_reference(src, limits=Limits()) -> DecompositionReport:
    r = typecheck_program(parse_program(src), limits)
    rep = harness.decomposition_report(r)
    assert fields(rep) == fields(reference_decomposition(r))
    assert [(sq.variant, sq.sigma, sq.derivation, sq.direct, sq.composed)
            for sq in harness.squares(r)] == list(reference_squares(r))
    return rep


# The caps the differential runs at: below, at and past the elaborations of
# the smaller rungs, and the default. At the default the ids are the names.
CAPS = (1, 2, 3, 256)


@pytest.mark.parametrize("name,cap", [
    pytest.param(name, cap, id=name if cap == 256 else f"{name}-cap{cap}")
    for name in LADDERS for cap in CAPS])
def test_decomposition_agrees_with_the_square_by_square_reference(name, cap):
    assert assert_matches_reference(
        LADDERS[name], Limits(max_elaborations=cap)).equal


def _drop_type_applications(monkeypatch):
    translate = DirectTranslator._translate

    def dropping(self, node):
        if isinstance(node, S.ITyApp):
            return self(node.fun)
        return translate(self, node)
    monkeypatch.setattr(DirectTranslator, "_translate", dropping)


def _mislabel_record_fields(monkeypatch):
    wrap = FdChecker._wrap_record

    def mislabelled(self, entry, te_impl):
        renamed = S.MethodImpl(entry.con, entry.scheme, entry.method + "'",
                               entry.impl)
        return wrap(self, renamed, te_impl)
    monkeypatch.setattr(FdChecker, "_wrap_record", mislabelled)


@pytest.mark.parametrize("fault,broken", [
    # P1 and P2 instantiate a polymorphic let at Bool; nothing else does.
    (_drop_type_applications, {"P1", "P2"}),
    # Every program resolves some constraint through an instance, whose
    # dictionary is a record.
    (_mislabel_record_fields, set(LADDERS)),
])
def test_a_broken_translation_falls_back_to_naming_each_square(
        monkeypatch, fault, broken):
    fault(monkeypatch)
    failed = {name for name, src in LADDERS.items()
              if not assert_matches_reference(src).equal}
    assert failed == broken


def _reject_the_instance_alternative(monkeypatch):
    """A checker that rejects every choice with an alternative D1_Eq."""
    infer = FdChecker._infer

    def rejecting(self, env, e):
        if isinstance(e, S.IChoice) and any(
                isinstance(alt, S.DCon) and alt.name == "D1_Eq"
                for alt in e.alts):
            raise fd_core.FdTypeError(fd_core.MISMATCH, "no D1_Eq here")
        return infer(self, env, e)
    monkeypatch.setattr(FdChecker, "_infer", rejecting)


def test_a_checker_fault_past_the_cap_is_not_hidden(
        monkeypatch, tmp_path, capsys):
    # wide(2) resolves each of f's two constraints in g to one of g's 15
    # local dictionaries or to the instance D1_Eq, which comes last. At a
    # cap of 15 the forest holds the D1_Eq alternative (at caps below 15
    # resolution stops before it), but only derivations past the cap use
    # it. The forest's translation is the only one, so the fault shows.
    _reject_the_instance_alternative(monkeypatch)
    src = wide_source(2)
    r = typecheck_program(parse_program(src), Limits(max_elaborations=15))
    alts = [alt for node in forest_nodes(r.forest, {}).values()
            if isinstance(node, S.IChoice) for alt in node.alts]
    assert [alt.name for alt in alts if isinstance(alt, S.DCon)] == ["D1_Eq"]
    # Each derivation the cap keeps is checked alone without fault.
    assert reference_decomposition(r).equal
    assert r.fd_truncated and len(r.fd_elabs) == 15
    with pytest.raises(fd_core.FdTypeError, match="no D1_Eq here"):
        harness.decomposition_report(r)
    with pytest.raises(fd_core.FdTypeError, match="no D1_Eq here"):
        harness.coherence_report(r)
    path = tmp_path / "wide2.src"
    path.write_text(src)
    capsys.readouterr()
    assert main(["decompose", str(path), "--max-elaborations", "15"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Mismatch: no D1_Eq here\n"


# ---------------------------------------------------------------------------
# Work
# ---------------------------------------------------------------------------

def test_decomposition_work_grows_with_the_program_not_its_squares(
        monkeypatch):
    # wide(k) has 16^k elaborations, of which 256 are read from k = 2 on;
    # typing and both translations see each node of the forest once, so
    # their work grows by the same few calls per constraint of f.
    counts = []
    for k in range(1, 7):
        r = typecheck_program(parse_program(wide_source(k)))
        checked = count_calls(monkeypatch, FdChecker, "_infer")
        composed = count_calls(monkeypatch, FdChecker, "_translate")
        translated = count_calls(monkeypatch, DirectTranslator, "_translate")
        rep = harness.decomposition_report(r)
        monkeypatch.undo()
        assert rep.equal and rep.count_composed == min(16 ** k, 256)
        counts.append((len(checked), len(composed), len(translated)))
    steps = {tuple(y - x for x, y in zip(a, b))
             for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1
    assert counts[-1][0] < 100 and counts[-1][1] < 100 \
        and counts[-1][2] < 250


def forest_nodes(node, out) -> dict:
    """id -> node of each term and dictionary node of a forest."""
    if id(node) in out:
        return out
    out[id(node)] = node
    for f in S._SHAPES[type(node)].fields:
        value = getattr(node, f)
        for child in value if type(value) is tuple else (value,):
            if isinstance(child, (S.FdExpr, S.FdDict, S.IChoice)):
                forest_nodes(child, out)
    return out


@pytest.mark.parametrize("name", list(LADDERS))
def test_each_forest_node_is_translated_once_per_sigma(monkeypatch, name):
    # Work counts: coherence and decomposition, with the corpus contexts,
    # translate each node of the forest once under each Σ, and no node
    # twice.
    r = typecheck_program(parse_program(LADDERS[name]))
    translated = count_calls(monkeypatch, FdChecker, "_translate")
    contexts = corpus_contexts() if name in POSITIVE else ()
    harness.coherence_report(r, contexts=contexts)
    harness.decomposition_report(r)
    keys = [(id(checker), id(node)) for checker, node in translated]
    assert len(keys) == len(set(keys))
    forest = forest_nodes(r.forest, {}).keys()
    for checker in {id(sq.checker) for sq in harness.squares(r)}:
        assert {i for c, i in keys if c == checker} >= forest


@pytest.mark.parametrize("instance", [SELF_SUPPORT, SELF_SUPPORT_TWICE])
def test_resolution_work_is_linear_in_the_depth_cap(monkeypatch, instance):
    # The self-supporting instance resolves Eq Bool through itself until
    # the depth cap; with a context of two Eq a, unshared resolution would
    # double its work at every level.
    calls = count_calls(monkeypatch, source_typer, "_resolve")
    for depth in (8, 16, 32):
        calls.clear()
        r = typecheck_program(parse_program(instance + LOCAL_EQ),
                              Limits(max_depth=depth))
        assert r.fd_truncated and r.fd_elabs
        assert len(calls) == depth + 1


# ---------------------------------------------------------------------------
# Counts off the forest, trees at their first read
# ---------------------------------------------------------------------------

def read_lazily(r):
    """name -> each sequence of r and of its decomposition report whose
    trees are unpacked at their first read."""
    return {"elaborations": r.elaborations, "fd_elabs": r.fd_elabs,
            "tgt_elabs": r.tgt_elabs,
            "composed": harness.decomposition_report(r).composed}


def read_eagerly(r):
    """The same sequences, built as they were before any waited: unpacked
    at once, with the composed targets read off the squares."""
    elabs = tuple(S.unpack(r.forest, r.count))
    return {"elaborations": elabs,
            "fd_elabs": tuple((sigma, ie) for sigma, n in r.variants_read
                              for ie in elabs[:n]),
            "tgt_elabs": tuple(
                te for sigma, n in r.variants_read
                for te in S.unpack(sigma.direct(r.forest), n)),
            "composed": tuple(sq.composed for sq in harness.squares(r))}


COUNTED = {**LADDERS, "wide5": wide_source(5), "four_sigmas": FOUR_SIGMAS}


@pytest.mark.parametrize("name", list(COUNTED))
def test_counts_and_trees_read_lazily_match_the_eager_reference(name):
    src = COUNTED[name]
    for cap in (1, 2, 16, 256):
        r = typecheck_program(parse_program(src), Limits(max_elaborations=cap))
        reference = read_eagerly(r)
        for what, seq in read_lazily(r).items():
            counted = len(seq)
            assert seq == reference[what], (cap, what)
            assert tuple(seq) == reference[what] and \
                counted == len(seq) == len(reference[what]), (cap, what)


def test_a_miscounted_forest_fails_at_its_first_read():
    r = typecheck_program(parse_program(wide_source(1)))
    forest = S.IChoice((S.ITrue(), S.IFalse()))
    wrong = source_typer.ProgramResult(r.main_type, r.main, r.decls, forest,
                                       3, False)
    assert len(wrong.elaborations) == len(wrong.fd_elabs) == 3
    for seq in (wrong.elaborations, wrong.fd_elabs):
        with pytest.raises(RuntimeError, match=r"\b2\b.*\b3\b"):
            seq[0]
    assert S.Unpacked(2, lambda: S.unpack(forest, 2))[1] == S.IFalse()


@pytest.mark.parametrize("k", [2, 5])
def test_counts_and_report_lines_unpack_nothing(monkeypatch, k):
    r = typecheck_program(parse_program(wide_source(k)))
    calls = count_calls(monkeypatch, S, "unpack")
    assert len(r.fd_elabs) == len(r.tgt_elabs) == 256
    rep = harness.decomposition_report(r)
    assert harness.decomposition_lines(rep)[1:] == [
        "direct elaborations: 256", "composed elaborations: 256",
        f"truncated: {str(k > 2).lower()}", "equal modulo alpha: true"]
    assert calls == []
    first = r.fd_elabs[0]
    assert len(calls) == 1
    assert r.fd_elabs[0] is first and len(calls) == 1


@pytest.mark.parametrize("name", ["P2", "wide1"])
def test_a_report_with_lazy_targets_behaves_as_one_with_a_tuple(name):
    r = typecheck_program(parse_program(LADDERS[name]))
    eager = reference_decomposition(r)
    assert harness.decomposition_report(r).composed == \
        harness.coherence_report(r).composed
    # Each check reads a fresh report, whose targets are not unpacked yet.
    for same in (lambda rep: rep == eager, lambda rep: eager == rep,
                 lambda rep: hash(rep) == hash(eager),
                 lambda rep: repr(rep) == repr(eager),
                 lambda rep: copy.deepcopy(rep) == eager,
                 lambda rep: pickle.loads(pickle.dumps(rep)) == eager):
        assert same(harness.decomposition_report(r))
    composed = harness.decomposition_report(r).composed
    assert composed != eager.composed + (S.TTrue(),) and \
        composed != list(eager.composed)


# ---------------------------------------------------------------------------
# Choice nodes stay inside the forest
# ---------------------------------------------------------------------------

def choices_in(x) -> int:
    """The number of choice nodes in a tree, or in a tuple of trees."""
    if type(x) is tuple:
        return sum(map(choices_in, x))
    shape = S._SHAPES.get(type(x))
    if shape is None:
        return 0
    return isinstance(x, (S.IChoice, S.TChoice)) + sum(
        choices_in(getattr(x, f)) for f in shape.fields)


@pytest.mark.parametrize("name", list(LADDERS))
def test_no_choice_node_escapes_a_public_result(name):
    r = typecheck_program(parse_program(LADDERS[name]))
    results = [ie for _, ie in r.fd_elabs] + list(r.tgt_elabs)
    for sq in harness.squares(r):
        results += [sq.derivation, sq.direct, sq.composed]
    results += harness.decomposition_report(r).composed
    results += harness.coherence_report(r).composed
    results += [body for entry in r.P for body in entry.body_fd]
    results += [m.impl for sigma in r.decls.variants for m in sigma]
    assert r.fd_elabs and not any(map(choices_in, results))


FOREIGN = S.TermBind("x", S.IBool())    # no node of any language


@pytest.mark.parametrize("run,choice,foreign", [
    (S.pretty, S.IChoice(()), FOREIGN),
    (S.pretty, S.TChoice(()), FOREIGN),
    (lambda e: fd_core.fd_eval((), e, 10), S.IChoice((S.ITrue(),)),
     S.STrue()),
    (lambda e: fd_core.fd_eval((), S.IApp(e, S.ITrue()), 10),
     S.IChoice((S.ILam("x", S.IBool(), S.IVar("x")),)), S.STrue()),
    (lambda d: fd_core.fd_eval((), S.IMethod(d, "eq"), 10),
     S.IChoice((S.DCon("D1_Eq", (), ()),)), S.STrue()),
    (lambda e: target_core.tgt_eval(e, 10), S.TChoice((S.TTrue(),)),
     S.ITrue()),
    (lambda e: target_core.tgt_eval(S.TProj(e, "eq"), 10),
     S.TChoice((S.TRecord((("eq", S.TTrue()),)),)), S.ITrue()),
])
def test_a_choice_is_rejected_like_any_node_outside_the_language(
        run, choice, foreign):
    messages = []
    for node in (choice, foreign):
        with pytest.raises(TypeError) as exc:
            run(node)
        messages.append(str(exc.value).replace(repr(node), "X")
                        .replace(type(node).__name__, "X"))
    assert messages[0] == messages[1]
