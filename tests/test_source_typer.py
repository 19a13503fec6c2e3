from __future__ import annotations

import ast
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dictelab import fd_core, source_typer, syntax as S
from dictelab.harness import squares
from dictelab.parser import parse_expr, parse_program
from dictelab.source_typer import (
    ClassEntry, DirectTranslator, Limits, SrcTypeError, check, closure,
    elab_class_env, elab_type, entail, infer, typecheck_class,
    typecheck_instance, typecheck_program, unambig_constraint, unambig_scheme,
)
from dictelab.syntax import (
    DCon, DVar, DictBind, SArrow, SBool, STyVar, SrcConstraint,
    SrcConstraintScheme, SrcScheme, TyVarBind,
)

from conftest import (POSITIVE, corpus_program, corpus_result, count_calls,
                      tower_source, wide_source)
from strategies import src_mono

LIMITS = Limits()


def enumerated(forest, count, truncated):
    """A judgment's forest unpacked up to its count: the list of
    alternatives and the flag the judgment returned before it packed
    them."""
    return S.unpack(forest, count), truncated


def _class(name, supers=(), method=None, var="a", head=None):
    head = head or SArrow(STyVar(var), SBool())
    return ClassEntry(method or name.lower(), tuple(supers), name, var,
                      SrcScheme((), (), head))


GC_DIAMOND = (
    _class("Base"),
    _class("Sub1", supers=("Base",)),
    _class("Sub2", supers=("Base",)),
)


# ---------------------------------------------------------------------------
# Superclass closure
# ---------------------------------------------------------------------------

def test_closure_diamond_keeps_duplicates():
    qs = [SrcConstraint("Sub1", STyVar("a")), SrcConstraint("Sub2", STyVar("a"))]
    out = closure(GC_DIAMOND, qs)
    assert [(q.cls, q.arg) for q in out] == [
        ("Base", STyVar("a")), ("Sub1", STyVar("a")),
        ("Base", STyVar("a")), ("Sub2", STyVar("a"))]


def test_closure_no_superclasses():
    gc = (_class("Eq"),)
    qs = (SrcConstraint("Eq", SBool()),)
    assert closure(gc, qs) == qs


def test_closure_empty():
    assert closure(GC_DIAMOND, ()) == ()


def test_closure_unknown_class():
    with pytest.raises(SrcTypeError):
        closure(GC_DIAMOND, [SrcConstraint("Nope", SBool())])


def closure_oracle(gc, qs):
    """Fixpoint rewriting: repeatedly expand the leftmost unexpanded
    constraint into its (unexpanded) superclasses followed by its own
    expanded form, until no unexpanded constraint remains."""
    work = [(q, False) for q in qs]
    while True:
        for i, (q, expanded) in enumerate(work):
            if not expanded:
                entry = next(e for e in gc if e.cls == q.cls)
                supers = [(SrcConstraint(s, q.arg), False)
                          for s in entry.superclasses]
                work[i:i + 1] = supers + [(q, True)]
                break
        else:
            return tuple(q for q, _ in work)


def random_class_dag(rng: random.Random, max_classes: int = 6):
    n = rng.randint(1, max_classes)
    entries = []
    for i in range(n):
        k = rng.randint(0, i) if i else 0
        supers = tuple(f"C{j}" for j in sorted(rng.sample(range(i), k)))
        entries.append(_class(f"C{i}", supers=supers, method=f"m{i}"))
    return tuple(entries)


@pytest.mark.parametrize("seed", range(100))
def test_closure_matches_fixpoint_oracle(seed):
    rng = random.Random(seed)
    gc = random_class_dag(rng)
    names = [e.cls for e in gc]
    qs = tuple(SrcConstraint(rng.choice(names),
                             rng.choice([STyVar("a"), SBool()]))
               for _ in range(rng.randint(0, 4)))
    assert closure(gc, qs) == closure_oracle(gc, qs)


# ---------------------------------------------------------------------------
# Unambiguity
# ---------------------------------------------------------------------------

def test_unambig_scheme_accepts_binder_in_head():
    s = SrcScheme(("a",), (SrcConstraint("Eq", STyVar("a")),),
                  SArrow(STyVar("a"), SBool()))
    assert unambig_scheme(s)


def test_unambig_scheme_rejects_missing_binder():
    s = SrcScheme(("a",), (SrcConstraint("Eq", STyVar("a")),),
                  SArrow(SBool(), SBool()))
    assert not unambig_scheme(s)


def test_unambig_scheme_trivial():
    assert unambig_scheme(SrcScheme((), (), SBool()))


def test_unambig_constraint():
    ab = SrcConstraintScheme(
        ("a", "b"),
        (SrcConstraint("Eq", STyVar("a")), SrcConstraint("Eq", STyVar("b"))),
        SrcConstraint("Eq", SArrow(STyVar("a"), STyVar("b"))))
    assert unambig_constraint(ab)
    bad = SrcConstraintScheme(("a",), (SrcConstraint("Eq", STyVar("a")),),
                              SrcConstraint("Eq", SBool()))
    assert not unambig_constraint(bad)
    assert unambig_constraint(
        SrcConstraintScheme((), (), SrcConstraint("Eq", SBool())))


# ---------------------------------------------------------------------------
# Matching and unification
# ---------------------------------------------------------------------------

def test_match_simple():
    out = S.unify(SArrow(STyVar("a"), STyVar("a")),
                  SArrow(SBool(), SBool()), {"a"})
    assert out == {"a": SBool()}


def test_match_two_vars():
    target = SArrow(SBool(), SArrow(SBool(), SBool()))
    out = S.unify(SArrow(STyVar("a"), STyVar("b")), target, {"a", "b"})
    assert out == {"a": SBool(), "b": SArrow(SBool(), SBool())}


def test_match_inconsistent():
    target = SArrow(SBool(), SArrow(SBool(), SBool()))
    assert S.unify(SArrow(STyVar("a"), STyVar("a")), target, {"a"}) is None


@given(src_mono, st.dictionaries(st.sampled_from(["a", "b"]),
                                 st.one_of(st.just(SBool()),
                                           st.just(STyVar("c")),
                                           st.just(SArrow(SBool(), STyVar("c")))),
                                 min_size=0, max_size=2))
def test_match_recovers_substitution(pattern, sigma):
    vars = {"a", "b"}
    target = S.subst_type(pattern, sigma)
    if set(S.free_type_vars(target)) & vars:
        return  # precondition: target has no matchable vars left
    out = S.unify(pattern, target, vars)
    assert out is not None
    relevant = {a: t for a, t in sigma.items()
                if a in set(S.free_type_vars(pattern)) & vars}
    # unconstrained pattern vars may be absent from sigma: they match as-is
    for a, t in relevant.items():
        assert out[a] == t


def test_unify_mono():
    assert S.unify(SBool(), STyVar("b"), {"b"}) == {"b": SBool()}
    out = S.unify(SArrow(STyVar("a"), SBool()),
                  SArrow(SBool(), STyVar("b")), {"a", "b"})
    assert out == {"a": SBool(), "b": SBool()}
    assert S.unify(SBool(), SArrow(STyVar("b"), STyVar("b")), {"b"}) is None


def test_unify_occurs_check():
    assert S.unify(STyVar("a"), SArrow(STyVar("a"), SBool()), {"a"}) is None


# ---------------------------------------------------------------------------
# Type elaboration
# ---------------------------------------------------------------------------

GC_EQ = (_class("Eq", head=SArrow(STyVar("a"),
                                  SArrow(STyVar("a"), SBool()))),)
EQ_SCHEME = SrcScheme(("a",), (SrcConstraint("Eq", STyVar("a")),),
                      SArrow(STyVar("a"), SBool()))


def test_elab_type_fd():
    out = elab_type(GC_EQ, (), EQ_SCHEME)
    assert S.pretty(out) == "forall a. [Eq a] -> a -> Bool"


def test_elab_type_tgt():
    out = DirectTranslator(elab_class_env(GC_EQ), (), ())(
        elab_type(GC_EQ, (), EQ_SCHEME))
    assert S.pretty(out) == "forall a. {eq : a -> a -> Bool} -> a -> Bool"


def test_elab_type_bool():
    assert elab_type(GC_EQ, (), SBool()) == S.IBool()


def test_elab_type_unbound_var():
    with pytest.raises(SrcTypeError):
        elab_type(GC_EQ, (), STyVar("z"))


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

def _eq_instances():
    """P with an Eq Bool instance and the function-space instance."""
    p = parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "instance Eq a => Eq (a -> a) where { eq = \\f. \\g. True };\n"
        "True")
    r = typecheck_program(p)
    return r.P, r.GC


def test_entail_local_before_instance():
    P, _ = _eq_instances()
    env = (DictBind("d", SrcConstraint("Eq", SBool())),)
    out, truncated = enumerated(*entail(P, env, SrcConstraint("Eq", SBool()),
                                        LIMITS))
    assert not truncated
    assert out == [DVar("d"), DCon("D1_Eq", (), ())]


def test_entail_recursive_instance():
    P, _ = _eq_instances()
    want = SrcConstraint("Eq", SArrow(SBool(), SBool()))
    out, _ = enumerated(*entail(P, (), want, LIMITS))
    assert out == [DCon("D2_Eq", (S.IBool(),), (DCon("D1_Eq", (), ()),))]


def test_entail_unsatisfiable_is_empty():
    P, _ = _eq_instances()
    env = (TyVarBind("b"),)
    out, truncated = enumerated(*entail(
        P, env, SrcConstraint("Eq", STyVar("b")), LIMITS))
    assert out == [] and not truncated


def test_entail_resolves_a_shadowed_dictionary_once():
    # An inner let dictionary shadows an outer one of the same name: both
    # bindings give the same derivation.
    P, _ = _eq_instances()
    bind = DictBind("d", SrcConstraint("Eq", SBool()))
    out, _ = enumerated(*entail(P, (bind, bind), SrcConstraint("Eq", SBool()),
                                LIMITS))
    assert out == [DVar("d"), DCon("D1_Eq", (), ())]


def test_direct_translation_translates_each_node_once(monkeypatch):
    nodes = []
    translate = DirectTranslator._translate

    def recorded(self, node):
        nodes.append(node)
        return translate(self, node)
    monkeypatch.setattr(DirectTranslator, "_translate", recorded)
    r = typecheck_program(parse_program(wide_source(3)))
    direct = [sq.direct for sq in squares(r)]
    assert len(direct) == 256 and nodes
    assert len({id(n) for n in nodes}) == len(nodes)
    # The 256 targets share most of their nodes.
    assert len(nodes) * 10 < sum(map(_size, direct))


def test_direct_targets_are_translated_once_per_result(monkeypatch):
    # tgt_elabs translates at its first read only, and nothing before;
    # squares then reads the same translator.
    nodes = count_calls(monkeypatch, DirectTranslator, "_translate")
    r = typecheck_program(parse_program(wide_source(3)))
    assert nodes == []
    first = r.tgt_elabs
    translated = len(nodes)
    assert r.tgt_elabs is first and len(nodes) == translated > 0
    assert list(first) == [sq.direct for sq in squares(r)]
    assert len(nodes) == translated


def _size(node) -> int:
    """The number of node occurrences in a term."""
    if isinstance(node, tuple):
        return sum(map(_size, node))
    if isinstance(node, str):
        return 0
    # The fields only: an interned node also caches facts in its __dict__.
    return 1 + sum(_size(getattr(node, f)) for f in node.__match_args__)


def _direct(P, GC):
    """The direct translator under the first body of every instance."""
    return DirectTranslator(elab_class_env(GC), P,
                            tuple(entry.body_fd[0] for entry in P))


def test_entail_tgt_local_uses_reserved_prefix():
    P, GC = _eq_instances()
    env = (DictBind("d", SrcConstraint("Eq", SBool())),)
    out, _ = enumerated(*entail(P, env, SrcConstraint("Eq", SBool()), LIMITS))
    assert _direct(P, GC)(out[0]) == S.TVar("$d_d")


def test_entail_tgt_zero_arity_instance_is_bare_record():
    P, GC = _eq_instances()
    out, _ = enumerated(*entail(P, (), SrcConstraint("Eq", SBool()), LIMITS))
    (d,) = out
    rec = _direct(P, GC)(d)
    assert isinstance(rec, S.TRecord)
    assert rec.fields[0][0] == "eq"


def test_entail_depth_limit_truncates_self_support():
    # forall a. Eq a => Eq a  typechecks (its own context feeds the body)
    # but use-site resolution recurses forever; the depth cap turns the
    # infinite search into an empty, truncated result.
    p = parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "instance Eq a => Eq a where { eq = \\x. \\y. True };\n"
        "True")
    r = typecheck_program(p, Limits(max_depth=8))
    out, truncated = enumerated(*entail(r.P, (), SrcConstraint("Eq", SBool()),
                                        Limits(max_depth=8)))
    assert out == [] and truncated


def test_cap_emptied_resolution_is_a_resource_error():
    # Eq (Bool -> Bool) needs Eq Bool one level down, past max_depth=1.
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(corpus_program("P4"), Limits(max_depth=1))
    assert exc.value.kind == "resource"


def test_cap_emptied_superclass_is_a_resource_error():
    p = parse_program(
        "class Base a where { base : a -> Bool };\n"
        "class Base a => Sub a where { sub : a -> Bool };\n"
        "instance Base Bool where { base = \\x. True };\n"
        "instance Base a => Base (a -> a) where { base = \\f. True };\n"
        "instance Sub (Bool -> Bool) where { sub = \\f. True };\n"
        "True")
    assert len(typecheck_program(p).P) == 3
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(p, Limits(max_depth=1))
    assert exc.value.kind == "resource"


def test_cap_bounds_the_work_on_a_wide_product():
    # 16^6 resolutions of g's six constraints; only 257 may be pulled.
    program = parse_program(wide_source(6))
    tracemalloc.start()
    try:
        r = typecheck_program(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(r.fd_elabs) == len(r.tgt_elabs) == 256
    assert r.fd_truncated and r.tgt_truncated
    assert peak < 16 * 2**20


def test_instance_matching_reuses_the_free_variables_of_the_constraint(
        monkeypatch):
    # Work counts: resolution computes the type variables of a constraint
    # once and matches every instance of its class against that set. The
    # tower's rungs, each typed twice as the benchmark does, made 392
    # calls when each instance recomputed it.
    calls = count_calls(monkeypatch, source_typer, "free_type_vars")
    for d in range(1, 9):
        for _ in range(2):
            assert typecheck_program(parse_program(tower_source(d))).count == 1
    assert len(calls) == 216


# ---------------------------------------------------------------------------
# Bidirectional typing
# ---------------------------------------------------------------------------

def test_infer_true():
    ty, *forest = infer((), (), (), S.STrue(), LIMITS)
    alts, truncated = enumerated(*forest)
    assert ty == SBool() and alts == [S.ITrue()] and not truncated


def test_check_method_against_local_dict():
    P, GC = _eq_instances()
    env = (TyVarBind("a"), DictBind("d", SrcConstraint("Eq", STyVar("a"))))
    alts, _ = enumerated(*check(
        P, GC, env, S.SVar("eq"),
        SArrow(STyVar("a"), SArrow(STyVar("a"), SBool())), LIMITS))
    assert alts == [S.IMethod(DVar("d"), "eq")]


def test_method_not_inferable():
    P, GC = _eq_instances()
    with pytest.raises(SrcTypeError) as exc:
        infer(P, GC, (), S.SVar("eq"), LIMITS)
    assert exc.value.kind == "not-inferable"


def test_lambda_not_inferable():
    with pytest.raises(SrcTypeError) as exc:
        infer((), (), (), S.SLam("x", S.SVar("x")), LIMITS)
    assert exc.value.kind == "not-inferable"


def test_check_inf_requires_syntactic_equality():
    with pytest.raises(SrcTypeError) as exc:
        check((), (), (), S.STrue(), SArrow(SBool(), SBool()),
              LIMITS)
    assert exc.value.kind == "mismatch"


def test_unsatisfiable_constraint_at_use_site():
    P, GC = _eq_instances()
    env = (TyVarBind("b"),)
    with pytest.raises(SrcTypeError) as exc:
        check(P, GC, env, S.SVar("eq"),
              SArrow(STyVar("b"), SArrow(STyVar("b"), SBool())), LIMITS)
    assert exc.value.kind == "unsatisfiable"


def test_let_rejects_ambiguous_scheme():
    P, GC = _eq_instances()
    e = parse_expr("let f : forall a. Eq a => Bool -> Bool = \\x. x "
                   "in (f :: Bool -> Bool) True")
    with pytest.raises(SrcTypeError) as exc:
        infer(P, GC, (), e, LIMITS)
    assert exc.value.kind == "ambiguous"


def test_method_name_cannot_be_rebound():
    P, GC = _eq_instances()
    for src in ["(\\eq. True :: Bool -> Bool)",
                "let eq : Bool = True in (eq :: Bool)"]:
        with pytest.raises(SrcTypeError) as exc:
            e = parse_expr(src)
            check(P, GC, (), e, SArrow(SBool(), SBool()),
                  LIMITS) if src.startswith("(\\") \
                else infer(P, GC, (), e, LIMITS)
        assert exc.value.kind == "shadow"


def test_both_backends_infer_same_type():
    for name in POSITIVE:
        r = corpus_result(name)
        assert r.main_type == SBool()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

def test_typecheck_class_accepts_eq():
    d = parse_program("class Eq a where { eq : a -> a -> Bool }; True").decls[0]
    entry = typecheck_class((), d)
    assert entry.cls == "Eq" and entry.method == "eq"


def test_typecheck_class_rejects_unused_class_var():
    d = parse_program("class Bad a where { m : Bool }; True").decls[0]
    with pytest.raises(SrcTypeError) as exc:
        typecheck_class((), d)
    assert exc.value.kind == "ambiguous"


def test_typecheck_class_records_superclasses():
    gc = (_class("Base"),)
    d = parse_program(
        "class Base a => Sub1 a where { sub1 : a -> Bool }; True").decls[0]
    entry = typecheck_class(gc, d)
    assert entry.superclasses == ("Base",)


def test_typecheck_class_unknown_superclass():
    d = parse_program(
        "class Base a => Sub1 a where { sub1 : a -> Bool }; True").decls[0]
    with pytest.raises(SrcTypeError):
        typecheck_class((), d)


def test_duplicate_instance_overlaps():
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(
            "class Eq a where { eq : a -> a -> Bool };\n"
            "instance Eq Bool where { eq = \\x. \\y. True };\n"
            "instance Eq Bool where { eq = \\x. \\y. False };\n"
            "True"))
    assert exc.value.kind == "overlap"


def test_non_unifiable_heads_do_not_overlap():
    r = typecheck_program(parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "instance Eq a => Eq (a -> a) where { eq = \\f. \\g. True };\n"
        "True"))
    assert len(r.P) == 2


def test_variable_head_overlaps_everything():
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(
            "class Eq a where { eq : a -> a -> Bool };\n"
            "instance Eq Bool where { eq = \\x. \\y. True };\n"
            "instance Eq b where { eq = \\x. \\y. True };\n"
            "True"))
    assert exc.value.kind == "overlap"


def test_unsatisfiable_superclass_rejected():
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(
            "class Base a where { base : a -> Bool };\n"
            "class Base a => Sub1 a where { sub1 : a -> Bool };\n"
            "instance Sub1 Bool where { sub1 = \\x. True };\n"
            "True"))
    assert exc.value.kind == "unsatisfiable"


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,count", [("P1", 1), ("P2", 2), ("P3", 2),
                                        ("P4", 1)])
def test_corpus_elaboration_counts(name, count):
    r = corpus_result(name)
    assert len(r.fd_elabs) == count
    assert len(r.tgt_elabs) == count


@pytest.mark.parametrize("name", POSITIVE)
def test_the_typer_runs_once_per_program(name, monkeypatch):
    # Counts top-level calls only: a call made inside an open one is the
    # typer's own recursion.
    calls = {"infer": 0, "check": 0}
    depth = [0]

    def counted(fname):
        fn = getattr(source_typer, fname)

        def wrapper(*args, **kwargs):
            calls[fname] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(source_typer, fname, wrapper)

    counted("infer")
    counted("check")
    r = typecheck_program(corpus_program(name))
    assert calls == {"infer": 1, "check": len(r.P)}


@pytest.mark.parametrize("name", POSITIVE)
def test_every_fd_elaboration_typechecks_at_elaborated_source_type(name):
    r = corpus_result(name)
    expected = elab_type(r.GC, (), r.main_type)
    for sigma, ie in r.fd_elabs:
        ty = fd_core.FdChecker(sigma, r.fd_class_env).check_expr((), ie)
        assert S.alpha_eq(ty, expected)


@pytest.mark.parametrize("name", POSITIVE)
def test_alternatives_pairwise_non_alpha_equivalent(name):
    r = corpus_result(name)
    terms = [ie for _, ie in r.fd_elabs]
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            assert not S.alpha_eq(terms[i], terms[j])


def test_the_typer_imports_neither_translation_of_the_intermediate_language():
    # The decomposition square compares DirectTranslator with the
    # translation in fd_core; it is a cross-check only while they share
    # no code.
    tree = ast.parse(Path(source_typer.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    modules = {part for name in imported for part in name.split(".")}
    assert imported and not modules & {"fd_core", "target_core"}
