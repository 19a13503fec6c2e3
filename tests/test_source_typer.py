from __future__ import annotations

import ast
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dictelab import fd_core, source_typer, syntax as S
from dictelab.cli import main
from dictelab.harness import squares
from dictelab.parser import parse_expr, parse_program
from dictelab.source_typer import (
    ClassEntry, DirectTranslator, MAX_ELABORATIONS, MethodEnv, SrcTypeError,
    check, closure, elab_class_env, elab_type, entail, infer, typecheck_class,
    typecheck_program, unambiguous,
)
from dictelab.syntax import (
    DCon, DVar, DictBind, SArrow, SBool, STyVar, SrcConstraint,
    SrcConstraintScheme, SrcScheme, TyVarBind,
)

from conftest import (EQ, POSITIVE, corpus_program, corpus_result,
                      corpus_text, count_calls, count_rules, flex_source,
                      tower_source, wide_source)
from strategies import src_mono
from test_golden_cli import LE, ORD

def enumerated(forest):
    """A judgment's forest unpacked up to the default cap: the list of
    alternatives, and whether the forest has more, the flag the judgment
    returned before it packed them."""
    n = S.tree_count(forest)
    return S.unpack(forest, n), n > MAX_ELABORATIONS


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
    assert unambiguous(s.binders, s.head)


def test_unambig_scheme_rejects_missing_binder():
    s = SrcScheme(("a",), (SrcConstraint("Eq", STyVar("a")),),
                  SArrow(SBool(), SBool()))
    assert not unambiguous(s.binders, s.head)


def test_unambig_scheme_trivial():
    s = SrcScheme((), (), SBool())
    assert unambiguous(s.binders, s.head)


def test_unambig_constraint():
    ab = SrcConstraintScheme(
        ("a", "b"),
        (SrcConstraint("Eq", STyVar("a")), SrcConstraint("Eq", STyVar("b"))),
        SrcConstraint("Eq", SArrow(STyVar("a"), STyVar("b"))))
    assert unambiguous(ab.binders, ab.head.arg)
    bad = SrcConstraintScheme(("a",), (SrcConstraint("Eq", STyVar("a")),),
                              SrcConstraint("Eq", SBool()))
    assert not unambiguous(bad.binders, bad.head.arg)
    closed = SrcConstraintScheme((), (), SrcConstraint("Eq", SBool()))
    assert unambiguous(closed.binders, closed.head.arg)


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
    TC = elab_class_env(GC_EQ)
    out = DirectTranslator(MethodEnv(TC, (), ()), TC)(
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
    out, truncated = enumerated(entail(P, env, SrcConstraint("Eq", SBool())))
    assert not truncated
    assert out == [DVar("d"), DCon("D1_Eq", (), ())]


def test_entail_recursive_instance():
    P, _ = _eq_instances()
    want = SrcConstraint("Eq", SArrow(SBool(), SBool()))
    out, _ = enumerated(entail(P, (), want))
    assert out == [DCon("D2_Eq", (S.IBool(),), (DCon("D1_Eq", (), ()),))]


def test_entail_unsatisfiable_is_empty():
    P, _ = _eq_instances()
    env = (TyVarBind("b"),)
    out, truncated = enumerated(entail(
        P, env, SrcConstraint("Eq", STyVar("b"))))
    assert out == [] and not truncated


def test_entail_resolves_a_shadowed_dictionary_once():
    # An inner let dictionary shadows an outer one of the same name: both
    # bindings give the same derivation.
    P, _ = _eq_instances()
    bind = DictBind("d", SrcConstraint("Eq", SBool()))
    out, _ = enumerated(entail(P, (bind, bind), SrcConstraint("Eq", SBool())))
    assert out == [DVar("d"), DCon("D1_Eq", (), ())]


def test_direct_translation_translates_each_node_once(monkeypatch):
    calls = count_rules(monkeypatch, DirectTranslator._TRANSLATIONS)
    r = typecheck_program(parse_program(wide_source(3)))
    direct = [sq.direct for sq in squares(r)]
    nodes = [node for _, node in calls]
    assert len(direct) == 256 and nodes
    assert len({id(n) for n in nodes}) == len(nodes)
    # The 256 targets share most of their nodes.
    assert len(nodes) * 10 < sum(map(_size, direct))


def test_direct_targets_are_translated_once_per_result(monkeypatch):
    # tgt_elabs translates at its first read only, and nothing before;
    # squares then reads the same translator.
    nodes = count_rules(monkeypatch, DirectTranslator._TRANSLATIONS)
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
    TC = elab_class_env(GC)
    return DirectTranslator(
        MethodEnv(TC, P, tuple(entry.body_fd[0] for entry in P)), TC)


def test_entail_tgt_local_uses_reserved_prefix():
    P, GC = _eq_instances()
    env = (DictBind("d", SrcConstraint("Eq", SBool())),)
    out, _ = enumerated(entail(P, env, SrcConstraint("Eq", SBool())))
    assert _direct(P, GC)(out[0]) == S.TVar("$d_d")


def test_entail_tgt_zero_arity_instance_is_bare_record():
    P, GC = _eq_instances()
    out, _ = enumerated(entail(P, (), SrcConstraint("Eq", SBool())))
    (d,) = out
    rec = _direct(P, GC)(d)
    assert isinstance(rec, S.TRecord)
    assert rec.fields[0][0] == "eq"


# ---------------------------------------------------------------------------
# Termination of resolution
# ---------------------------------------------------------------------------

EQ_CLASS = "class Eq a where { eq : a -> a -> Bool };\n"

# name -> (source, the dictionary constructor of the rejected instance)
UNDECIDABLE = {
    "self-support": (
        EQ_CLASS + "instance Eq a => Eq a where { eq = \\x. \\y. True };\n"
        "True", "D1_Eq"),
    "larger-context": (
        EQ_CLASS
        + "instance Eq (a -> a) => Eq a where { eq = \\x. \\y. True };\n"
        "True", "D1_Eq"),
    "more-variable-uses": (
        EQ_CLASS + "instance Eq (a -> a) => Eq (a -> b) where "
        "{ eq = \\x. \\y. True };\nTrue", "D1_Eq"),
    "two-class-loop": (
        "class A a where { ma : a -> Bool };\n"
        "class B a where { mb : a -> Bool };\n"
        "instance A Bool => B Bool where { mb = \\x. True };\n"
        "instance B Bool => A Bool where { ma = \\x. True };\nTrue",
        "D2_A"),
    "superclass-loop": (
        "class A a where { ma : a -> Bool };\n"
        "class A a => B a where { mb : a -> Bool };\n"
        "instance B Bool => A Bool where { ma = \\x. True };\nTrue",
        "D1_A"),
}


@pytest.mark.parametrize("name", list(UNDECIDABLE))
def test_an_instance_that_may_not_terminate_is_undecidable(capsys, tmp_path,
                                                          name):
    source, con = UNDECIDABLE[name]
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(source))
    assert exc.value.kind == "undecidable"
    assert repr(con) in str(exc.value)
    path = tmp_path / f"{name}.src"
    path.write_text(source)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


SUPERCLASS_THROUGH_INSTANCE = (
    "class Base a where { base : a -> Bool };\n"
    "class Base a => Sub a where { sub : a -> Bool };\n"
    "instance Base Bool where { base = \\x. True };\n"
    "instance Base a => Base (a -> a) where { base = \\f. True };\n"
    "instance Sub (Bool -> Bool) where { sub = \\f. True };\n"
    "True")
BOTH = ("class Eq a where { eq : a -> a -> Bool };\n"
        "class Ord a where { le : a -> a -> Bool };\n"
        "class Both a where { both : a -> Bool };\n"
        "instance Eq Bool where { eq = \\x. \\y. True };\n"
        "instance Ord Bool where { le = \\x. \\y. False };\n"
        "instance (Eq a, Ord a) => Both (a -> a) where "
        "{ both = \\f. True };\n"
        "(both :: (Bool -> Bool) -> Bool) (\\x. x)")

TERMINATING = {
    **{name: corpus_text(name) for name in POSITIVE},
    **{f"flex{n}": flex_source(n) for n in (1, 2, 3)},
    **{f"wide{k}": wide_source(k) for k in (1, 2, 3)},
    **{f"tower{d}": tower_source(d) for d in (1, 2, 3)},
    "b0": ORD + "True",
    "b1": ORD + f"{LE} True True",
    "b2": ORD + f"{LE} ({LE} True True) True",
    "superclass": SUPERCLASS_THROUGH_INSTANCE,
    "both": BOTH,
}


@pytest.mark.parametrize("name", list(TERMINATING))
def test_an_instance_smaller_than_its_head_is_accepted(name):
    # Context no larger than the head, no variable used more often, and an
    # equal size only towards an earlier class: P4's and the tower's
    # Eq a => Eq (a -> a), Base a => Base (a -> a), the flexible
    # Eq Bool => Ord Bool of b0-b2, and the two constraints of Both.
    program = parse_program(TERMINATING[name])
    assert len(typecheck_program(program).P) == sum(
        isinstance(d, S.InstDecl) for d in program.decls)


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
    # calls when each instance recomputed it, 216 when the method rule
    # re-tested the ambiguity of the method's scheme at each use, and 200
    # when each instance declaration tested an ambiguity that its binders,
    # its head's free variables, rule out.
    calls = count_calls(monkeypatch, source_typer, "free_type_vars")
    for d in range(1, 9):
        for _ in range(2):
            assert typecheck_program(parse_program(tower_source(d))).count == 1
    assert len(calls) == 168


# ---------------------------------------------------------------------------
# Bidirectional typing
# ---------------------------------------------------------------------------

def test_infer_true():
    ty, forest = infer((), (), (), S.STrue())
    alts, truncated = enumerated(forest)
    assert ty == SBool() and alts == [S.ITrue()] and not truncated


def test_check_method_against_local_dict():
    P, GC = _eq_instances()
    env = (TyVarBind("a"), DictBind("d", SrcConstraint("Eq", STyVar("a"))))
    alts, _ = enumerated(check(
        P, GC, env, S.SVar("eq"),
        SArrow(STyVar("a"), SArrow(STyVar("a"), SBool()))))
    assert alts == [S.IMethod(DVar("d"), "eq")]


def test_method_not_inferable():
    P, GC = _eq_instances()
    with pytest.raises(SrcTypeError) as exc:
        infer(P, GC, (), S.SVar("eq"))
    assert exc.value.kind == "not-inferable"


def test_lambda_not_inferable():
    with pytest.raises(SrcTypeError) as exc:
        infer((), (), (), S.SLam("x", S.SVar("x")))
    assert exc.value.kind == "not-inferable"


def test_check_inf_requires_syntactic_equality():
    with pytest.raises(SrcTypeError) as exc:
        check((), (), (), S.STrue(), SArrow(SBool(), SBool()))
    assert exc.value.kind == "mismatch"


def test_unsatisfiable_constraint_at_use_site():
    P, GC = _eq_instances()
    env = (TyVarBind("b"),)
    with pytest.raises(SrcTypeError) as exc:
        check(P, GC, env, S.SVar("eq"),
              SArrow(STyVar("b"), SArrow(STyVar("b"), SBool())))
    assert exc.value.kind == "unsatisfiable"


def test_let_rejects_ambiguous_scheme():
    P, GC = _eq_instances()
    e = parse_expr("let f : forall a. Eq a => Bool -> Bool = \\x. x "
                   "in (f :: Bool -> Bool) True")
    with pytest.raises(SrcTypeError) as exc:
        infer(P, GC, (), e)
    assert exc.value.kind == "ambiguous"


def test_method_name_cannot_be_rebound():
    P, GC = _eq_instances()
    for src in ["(\\eq. True :: Bool -> Bool)",
                "let eq : Bool = True in (eq :: Bool)"]:
        with pytest.raises(SrcTypeError) as exc:
            e = parse_expr(src)
            check(P, GC, (), e, SArrow(SBool(), SBool())) if src.startswith("(\\") \
                else infer(P, GC, (), e)
        assert exc.value.kind == "shadow"


def test_both_backends_infer_same_type():
    for name in POSITIVE:
        r = corpus_result(name)
        assert r.main_type == SBool()


# ---------------------------------------------------------------------------
# Rejected programs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, kind, message", [
    ("(x :: Bool)", "unbound", "unbound variable 'x'"),
    (EQ + "(eq :: Bool)", "mismatch",
     "method 'eq' cannot be used at type Bool"),
    ("let f : Bool -> Bool = \\x. x in (f :: Bool)", "mismatch",
     "'f' cannot be used at type Bool"),
    ("(\\x. x :: Bool)", "mismatch",
     "lambda checked against non-function type Bool"),
    ("class Eq a where { eq : a -> a -> Bool };\n"
     "class Eq a where { ne : a -> a -> Bool };\nTrue", "duplicate",
     "duplicate class 'Eq'"),
    ("class Eq a where { eq : a -> a -> Bool };\n"
     "class Ord a where { eq : a -> a -> Bool };\nTrue", "duplicate",
     "duplicate method 'eq'"),
    ("class C a where { c : forall a. a -> Bool };\nTrue", "duplicate",
     "method scheme rebinds the class variable 'a'"),
    ("class Eq a where { eq : a -> a -> Bool };\n"
     "instance Eq Bool where { ne = \\x. \\y. True };\nTrue",
     "unknown-method",
     "class 'Eq' declares method 'eq', instance defines 'ne'"),
    (EQ + "class Show a where "
     "{ sh : forall b. Eq b => a -> b -> Bool };\n"
     "instance Show Bool where { sh = \\x. \\y. True };\n"
     "(sh :: Bool -> (Bool -> Bool) -> Bool)", "unsatisfiable",
     "cannot satisfy the constraints of method 'sh'"),
    (EQ + "let f : forall a. Eq a => a -> Bool = \\x. True in "
     "(f :: (Bool -> Bool) -> Bool)", "unsatisfiable",
     "cannot satisfy the constraints of 'f' at (Bool -> Bool) -> Bool"),
    # An instance whose own context has no resolution is no alternative.
    ("class Ord a where { le : a -> a -> Bool };\n" + EQ
     + "instance Ord a => Eq (a -> a) where { eq = \\f. \\g. True };\n"
     "(eq :: (Bool -> Bool) -> (Bool -> Bool) -> Bool)", "unsatisfiable",
     "cannot resolve Eq (Bool -> Bool) for method 'eq'"),
], ids=["unbound", "method-type", "variable-type", "lambda-type",
        "duplicate-class", "duplicate-method", "rebound-class-variable",
        "instance-method", "method-context", "variable-context",
        "instance-context"])
def test_an_ill_typed_program_is_rejected(text, kind, message):
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(text))
    assert (exc.value.kind, str(exc.value)) == (kind, message)


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


def test_typecheck_class_rejects_a_method_binder_missing_from_the_head():
    d = parse_program(
        "class Bad a where { m : forall b. a -> Bool }; True").decls[0]
    with pytest.raises(SrcTypeError) as exc:
        typecheck_class((), d)
    assert exc.value.kind == "ambiguous"
    assert str(exc.value).endswith("b not in the head of the type")


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


def test_a_context_variable_missing_from_the_instance_head_is_unbound():
    # The instance's binders are its head's free variables, so a context
    # variable outside the head is out of scope: no instance is ambiguous.
    with pytest.raises(SrcTypeError) as exc:
        typecheck_program(parse_program(
            "class Eq a where { eq : a -> a -> Bool };\n"
            "instance Eq a => Eq Bool where { eq = \\x. \\y. True };\n"
            "True"))
    assert exc.value.kind == "unbound"
    assert str(exc.value) == "unbound type variable 'a'"


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
