"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line once
its assertions hold (run pytest with -s to see them; a failing criterion
never prints). The criteria exercise the public behavior only: coherence,
decomposition, determinism, type safety, resource bounds and the negative
corpus.
"""

from __future__ import annotations

import random

import pytest

from dictelab import syntax as S
from dictelab.fd_core import (FdChecker, FdTypeError, FuelExhausted,
                              OVERLAP, fd_env_wf, fd_eval)
from dictelab.harness import (check_coherence, check_decomposition,
                              check_metatheory, generate_fd_term)
from dictelab.parser import parse_program
from dictelab.source_typer import (Limits, SrcTypeError, closure, elab_type,
                                   typecheck_program)
from dictelab.syntax import (FdClassEntry, FdConstraintScheme, FdQ, IArrow,
                             IBool, ITyVar, MethodImpl, SrcConstraint)
from dictelab.target_core import tgt_eval

from conftest import POSITIVE, corpus_program, corpus_result, corpus_text
from reader import read_fixture
from reference_eval import kleene_eq
from test_source_typer import _class, closure_oracle, random_class_dag

FUEL = 100_000


def passed(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_coherence_counts_and_witness():
    expected = {"P1": 1, "P2": 2, "P3": 2}
    for name, count in expected.items():
        rep = check_coherence(corpus_program(name), fuel=FUEL,
                              program_name=name)
        assert rep.elab_count_fd == count, name
        assert rep.all_kleene_equal and rep.witness_value == "True", name
    passed(1, "P1/P2/P3 yield 1/2/2 elaborations, all Kleene-equal to True")


def test_criterion_2_decomposition():
    for name in POSITIVE:
        rep = check_decomposition(corpus_program(name), program_name=name)
        assert rep.equal, (name, rep.mismatches)
    passed(2, "direct and composed target translations of every "
              "derivation agree modulo alpha on every positive program")


def test_criterion_3_deterministic_elaboration():
    for name in POSITIVE:
        outs = set()
        for _ in range(5):
            r = typecheck_program(corpus_program(name), Limits())
            text = "\n".join([S.pretty(ie) for _, ie in r.fd_elabs]
                             + [S.pretty(te) for te in r.tgt_elabs])
            outs.add(text)
        assert len(outs) == 1, name
    passed(3, "five independent elaboration runs per program produce "
              "byte-identical output")


def test_criterion_4_type_safety_traces():
    total = 0
    for name in POSITIVE:
        r = corpus_result(name)
        for sigma, ie in r.fd_elabs:
            rep = check_metatheory(sigma, r.fd_class_env, ie, FUEL)
            assert rep.preservation_ok and rep.progress_ok, name
            total += 1
    r = corpus_result("P2")
    sigma, _ = r.fd_elabs[0]
    for seed in range(1000):
        e = generate_fd_term(seed, 6, sigma, r.fd_class_env)
        rep = check_metatheory(sigma, r.fd_class_env, e, FUEL)
        assert rep.preservation_ok and rep.progress_ok and rep.fuel_ok, seed
        total += 1
    assert total >= 1000
    passed(4, f"type safety held along {total} evaluation traces "
              "(corpus + 1000 generated terms)")


def test_criterion_5_fuel_bound():
    for name in POSITIVE:
        r = corpus_result(name)
        try:
            for sigma, ie in r.fd_elabs:
                fd_eval(sigma, ie, FUEL)
            for te in r.tgt_elabs:
                tgt_eval(te, FUEL)
        except FuelExhausted:
            pytest.fail(f"{name} exhausted {FUEL} steps")
    passed(5, f"every corpus elaboration evaluates within {FUEL} steps")


def test_criterion_6_semantic_preservation():
    for name in POSITIVE:
        r = corpus_result(name)
        for sigma, ie in r.fd_elabs:
            checker = FdChecker(sigma, r.fd_class_env)
            _, te = checker.check_expr((), ie)
            v = fd_eval(sigma, ie, FUEL)
            _, te_of_value = checker.check_expr((), v)
            assert kleene_eq(te_of_value, te, FUEL), name
    passed(6, "elaborating the evaluated term and evaluating the elaborated "
              "term meet at the same value")


def test_criterion_7_elaborations_welltyped_at_translated_type():
    for name in POSITIVE:
        r = corpus_result(name)
        expected = elab_type(r.GC, (), r.main_type)
        for sigma, ie in r.fd_elabs:
            ty, _ = FdChecker(sigma, r.fd_class_env).check_expr((), ie)
            assert S.alpha_eq(ty, expected), name
    passed(7, "each intermediate elaboration typechecks at the translation "
              "of the program type")


def test_criterion_8_overlap_rejected_but_target_can_discriminate():
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(corpus_text("N1")))
    assert exc.value.kind == "overlap"
    # Same shape one language down: two entries at the same ground head.
    tc = (FdClassEntry("base", "Base", "a", IArrow(ITyVar("a"), IBool())),)
    scheme = FdConstraintScheme((), (), FdQ("Base", IBool()))
    sigma = (MethodImpl("D1_Base", scheme, "base",
                        S.ILam("x", IBool(), S.ITrue())),
             MethodImpl("D2_Base", scheme, "base",
                        S.ILam("x", IBool(), S.IFalse())))
    with pytest.raises(FdTypeError) as fd_exc:
        fd_env_wf(sigma, tc, ())
    assert fd_exc.value.kind == OVERLAP
    # The target itself happily tells the two dictionaries apart.
    f = read_fixture(corpus_text("D1"))
    assert tgt_eval(f["test2a"], FUEL) == S.TTrue()
    assert tgt_eval(f["test2b"], FUEL) == S.TFalse()
    passed(8, "overlapping instances are rejected in both front ends while "
              "the bare target can observe the difference")


def test_criterion_9_superclass_closure_oracle():
    gc = (_class("Base"), _class("Sub1", supers=("Base",)),
          _class("Sub2", supers=("Base",)))
    got = closure(gc, [SrcConstraint("Sub1", S.STyVar("a")),
                       SrcConstraint("Sub2", S.STyVar("a"))])
    assert [q.cls for q in got] == ["Base", "Sub1", "Base", "Sub2"]
    for seed in range(100):
        rng = random.Random(seed)
        dag = random_class_dag(rng)
        names = [e.cls for e in dag]
        qs = tuple(SrcConstraint(rng.choice(names), S.STyVar("a"))
                   for _ in range(rng.randint(0, 4)))
        assert closure(dag, qs) == closure_oracle(dag, qs), seed
    passed(9, "superclass closure matches the rewriting oracle on the "
              "diamond golden and 100 random class hierarchies")


def test_criterion_10_ambiguous_scheme_rejected():
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(corpus_text("N2")))
    assert exc.value.kind == "ambiguous"
    passed(10, "a constrained type variable absent from the scheme head is "
               "rejected as ambiguous")
