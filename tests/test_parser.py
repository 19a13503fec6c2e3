from __future__ import annotations

import pytest
from hypothesis import given, settings

from dictelab import syntax as S
from dictelab.parser import (ParseError, parse_context, parse_expr,
                             parse_program)

from conftest import NEGATIVE, POSITIVE, corpus_program, corpus_text
from strategies import src_expr


def test_bare_true_program():
    p = parse_program("True")
    assert p.decls == ()
    assert p.main == S.STrue()


def test_class_declaration():
    p = parse_program("class Eq a where { eq : a -> a -> Bool }; True")
    (d,) = p.decls
    assert isinstance(d, S.ClassDecl)
    assert (d.name, d.var, d.method) == ("Eq", "a", "eq")
    assert d.superclasses == ()
    assert d.method_scheme == S.SrcScheme(
        (), (), S.SArrow(S.STyVar("a"), S.SArrow(S.STyVar("a"), S.SBool())))


def test_superclass_declaration():
    p = parse_program("class Base a => Sub1 a where { sub1 : a -> Bool }; True")
    (d,) = p.decls
    assert d.superclasses == ("Base",)


def test_multiple_superclasses():
    p = parse_program(
        "class (Base a, Other a) => Sub a where { s : a -> Bool }; True")
    (d,) = p.decls
    assert d.superclasses == ("Base", "Other")


def test_superclass_must_constrain_class_variable():
    with pytest.raises(ParseError):
        parse_program("class Base b => Sub1 a where { sub1 : a -> Bool }; True")


def test_instance_with_context():
    p = parse_program(
        "class Eq a where { eq : a -> a -> Bool };\n"
        "instance Eq a => Eq (a -> a) where { eq = \\f. \\g. True }; True")
    inst = p.decls[1]
    assert isinstance(inst, S.InstDecl)
    assert inst.context == (S.SrcConstraint("Eq", S.STyVar("a")),)
    assert inst.head == S.SArrow(S.STyVar("a"), S.STyVar("a"))


def test_scheme_with_context_list():
    e = parse_expr("let f : forall a. (Sub1 a, Sub2 a) => a -> Bool = x in y")
    assert e.scheme.binders == ("a",)
    assert [q.cls for q in e.scheme.context] == ["Sub1", "Sub2"]


def test_annotation():
    e = parse_expr("(eq :: a -> a -> Bool)")
    assert e == S.SAnn(S.SVar("eq"),
                       S.SArrow(S.STyVar("a"),
                                S.SArrow(S.STyVar("a"), S.SBool())))


def test_application_left_associative():
    e = parse_expr("f x y")
    assert e == S.SApp(S.SApp(S.SVar("f"), S.SVar("x")), S.SVar("y"))


def test_arrow_right_associative():
    e = parse_expr("(x :: Bool -> Bool -> Bool)")
    assert e.ty == S.SArrow(S.SBool(), S.SArrow(S.SBool(), S.SBool()))


def test_lambda_extends_right():
    e = parse_expr("\\x. f x")
    assert e == S.SLam("x", S.SApp(S.SVar("f"), S.SVar("x")))


def test_line_comments_ignored():
    p = parse_program("-- a comment\nTrue -- trailing")
    assert p.main == S.STrue()


def test_duplicate_scheme_binders_rejected():
    with pytest.raises(ParseError):
        parse_expr("let f : forall a a. a -> a = x in y")


def test_hole_rejected_in_programs():
    with pytest.raises(ParseError):
        parse_program("[]")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("class where")
    assert exc.value.line == 1
    assert exc.value.column > 1


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse_program("class Eq a where { eq : a -> Bool } True")


# -- contexts ---------------------------------------------------------------

def test_context_single_hole():
    assert parse_context("[]") == S.SHole()


def test_context_under_lambda():
    ctx = parse_context("(\\x. []) True")
    assert ctx == S.SApp(S.SLam("x", S.SHole()), S.STrue())


def test_context_zero_holes_rejected():
    with pytest.raises(ParseError):
        parse_context("True")


def test_context_two_holes_rejected():
    with pytest.raises(ParseError):
        parse_context("[] []")


# -- corpus -----------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE + NEGATIVE)
def test_corpus_parses(name):
    corpus_program(name)


@pytest.mark.parametrize("name", POSITIVE + NEGATIVE)
def test_corpus_pretty_reparse_identity(name):
    p = corpus_program(name)
    again = parse_program(S.pretty(p))
    assert S.alpha_eq(again, p)


@settings(max_examples=300)
@given(src_expr)
def test_pretty_expression_reparse_identity(e):
    assert parse_expr(S.pretty(e)) == e


def test_grammar_coverage_over_corpus():
    """Every expression/declaration production appears in some corpus file."""
    seen = set()

    def walk(e):
        seen.add(type(e).__name__)
        for f in getattr(e, "__match_args__", ()):
            v = getattr(e, f)
            if isinstance(v, tuple):
                for item in v:
                    if hasattr(item, "__match_args__"):
                        walk(item)
            elif hasattr(v, "__match_args__"):
                walk(v)

    for name in POSITIVE + NEGATIVE:
        walk(corpus_program(name))
    required = {"ClassDecl", "InstDecl", "SLam", "SLet", "SApp", "SAnn",
                "SVar", "STrue", "SArrow", "SBool", "STyVar",
                "SrcConstraint", "SrcScheme"}
    assert required <= seen
