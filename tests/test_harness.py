from __future__ import annotations

import hashlib

import pytest

from dictelab import source_typer, syntax as S
from dictelab.harness import (check_coherence, check_decomposition,
                              check_metatheory, closed_dicts, coherence_lines,
                              decomposition_lines, generate_fd_term,
                              meta_lines)
from dictelab.parser import parse_program
from dictelab.reader import read_fd_expr
from dictelab.source_typer import Limits
from dictelab.syntax import (FdClassEntry, FdConstraintScheme, FdQ, IArrow,
                             IBool, ITyVar, MethodImpl)

from conftest import POSITIVE, corpus_contexts, corpus_program, corpus_result


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,count", [("P1", 1), ("P2", 2), ("P3", 2),
                                        ("P4", 1)])
def test_corpus_is_coherent(name, count):
    rep = check_coherence(corpus_program(name), program_name=name)
    assert rep.all_kleene_equal
    assert not rep.truncated
    assert rep.elab_count_fd == rep.elab_count_tgt == count
    assert rep.witness_value == "True"
    assert rep.counterexample is None


@pytest.mark.parametrize("name", POSITIVE)
def test_coherence_survives_program_contexts(name):
    rep = check_coherence(corpus_program(name), contexts=corpus_contexts(),
                          program_name=name)
    assert rep.all_kleene_equal


def test_coherence_report_lines_are_stable():
    rep = check_coherence(corpus_program("P1"), program_name="P1")
    lines = coherence_lines(rep)
    assert lines == coherence_lines(rep)
    assert any("Kleene-equal" in ln for ln in lines)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE)
def test_direct_and_composed_elaborations_coincide(name):
    rep = check_decomposition(corpus_program(name), program_name=name)
    assert rep.equal
    assert rep.count_direct == rep.count_composed
    assert rep.only_direct == () and rep.only_composed == ()


def test_decomposition_counts_match_typechecker():
    r = corpus_result("P2")
    rep = check_decomposition(corpus_program("P2"))
    assert rep.count_composed == len(r.fd_elabs) == 2


# Mutation checks: a wrong dictionary from either builder must break the
# commuting square. In P3 the let body resolves Eq Bool through its local
# dictionary or through the global instance.

def test_decomposition_catches_wrong_intermediate_dictionary(monkeypatch):
    monkeypatch.setattr(source_typer.FdBuilder, "local_dict",
                        lambda dvar: S.DCon("D1_Eq", (), ()))
    rep = check_decomposition(corpus_program("P3"))
    assert not rep.equal


def test_decomposition_catches_wrong_target_dictionary(monkeypatch):
    never = S.TLam("x", S.TBool(), S.TLam("y", S.TBool(), S.TFalse()))
    monkeypatch.setattr(source_typer.TgtBuilder, "local_dict",
                        lambda dvar: S.TRecord((("eq", never),)))
    rep = check_decomposition(corpus_program("P3"))
    assert not rep.equal


def test_coherence_violation_names_both_elaborations(monkeypatch):
    # A wrong local dictionary in the direct pipeline makes one direct
    # target evaluate to False; the report names it and the first value.
    never = S.TLam("x", S.TBool(), S.TLam("y", S.TBool(), S.TFalse()))
    monkeypatch.setattr(source_typer.TgtBuilder, "local_dict",
                        lambda dvar: S.TRecord((("eq", never),)))
    rep = check_coherence(corpus_program("P3"), program_name="P3")
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
    rep = check_decomposition(corpus_program("P1"), program_name="P1")
    assert any("equal" in ln for ln in decomposition_lines(rep))


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
    omega = S.IApp(S.ILam("x", IBool(), S.IApp(S.IVar("x"), S.IVar("x"))),
                   S.ILam("x", IBool(), S.IApp(S.IVar("x"), S.IVar("x"))))
    # ill-typed, so the checker flags it before stepping
    rep = check_metatheory((), (), omega, fuel=20)
    assert not (rep.preservation_ok and rep.progress_ok and rep.fuel_ok)


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
    sigma, tc = _p2_env()
    dicts = closed_dicts(sigma, tc)
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


@pytest.mark.parametrize("seed", range(50))
def test_generated_terms_are_well_typed_and_safe(seed):
    sigma, tc = _p2_env()
    e = generate_fd_term(seed, 8, sigma, tc)
    rep = check_metatheory(sigma, tc, e)
    assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok
