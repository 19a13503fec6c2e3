from __future__ import annotations

import functools
from collections import namedtuple
from pathlib import Path

import pytest

from dictelab import harness, syntax as S
from dictelab.parser import parse_context, parse_program
from dictelab.source_typer import typecheck_program
from dictelab.syntax import FdDict

CORPUS = Path(__file__).parent / "corpus"

POSITIVE = ["P1", "P2", "P3", "P4"]
NEGATIVE = ["N1", "N2"]


def corpus_text(name: str) -> str:
    suffix = ".tgt" if name.startswith("D") else ".src"
    return (CORPUS / f"{name}{suffix}").read_text()


@functools.lru_cache(maxsize=None)
def corpus_program(name: str):
    return parse_program(corpus_text(name))


@functools.lru_cache(maxsize=None)
def corpus_result(name: str):
    return typecheck_program(corpus_program(name))


# Ladder programs, as the benchmark builds them (perfbench/workloads.py)
# with fixed names.

EQ = ("class Eq a where { eq : a -> a -> Bool };\n"
      "instance Eq Bool where { eq = \\x. \\y. True };\n")


def flex_source(n: int) -> str:
    """n nested flexible lets: 2^n elaborations."""
    lets = "".join(f"let f{i} : Eq Bool => Bool -> Bool = "
                   f"\\n. (eq :: Bool -> Bool -> Bool) n n in\n"
                   for i in range(n))
    main_ = "True"
    for i in range(n):
        main_ = f"(f{i} :: Bool -> Bool) ({main_})"
    return EQ + lets + main_


def wide_source(k: int) -> str:
    """A caller with 15 local Eq Bool dictionaries calls g : (Eq Bool x k)."""
    need = ", ".join(["Eq Bool"] * k)
    local = ", ".join(["Eq Bool"] * 15)
    return (EQ
            + f"let f : ({need}) => Bool -> Bool = \\n. n in\n"
            + f"let g : ({local}) => Bool -> Bool = "
              f"\\n. (f :: Bool -> Bool) n in\n"
            + "(g :: Bool -> Bool) True")


def tower_source(d: int) -> str:
    """Eq at a function type nested d deep: one elaboration."""
    t = "Bool"
    for _ in range(d):
        t = f"({t} -> {t})"
    return (EQ
            + "instance Eq a => Eq (a -> a) where { eq = \\n. \\f. True };\n"
            + f"(eq :: {t} -> {t} -> Bool)")


# Programs whose methods are reached through an instance context's
# dictionary variable.

def sigma_source(k: int) -> str:
    """k classes, each with one instance whose body calls eq through its
    context or through the global instance: 2^k method environments."""
    decls = "".join(
        f"class C{i} a where {{ c{i} : a -> Bool }};\n"
        f"instance Eq Bool => C{i} Bool where "
        f"{{ c{i} = \\x. (eq :: Bool -> Bool -> Bool) x x }};\n"
        for i in range(k))
    main_ = "True"
    for i in range(k):
        main_ = f"(c{i} :: Bool -> Bool) ({main_})"
    return EQ + decls + main_


# A choice among the dictionary arguments of a constructor, which its
# implementation's own method call inspects.
PICK = ("class Pick a where { pick : a -> a -> a };\n"
        "instance Pick Bool where { pick = \\x. \\y. x };\n"
        "instance Pick a => Pick (a -> a) where { pick = \\f. \\g. "
        "\\x. (pick :: a -> a -> a) ((f :: a -> a) x) "
        "((g :: a -> a) x) };\n"
        "let k : Pick Bool => Bool -> Bool = \\n. "
        "(pick :: (Bool -> Bool) -> (Bool -> Bool) -> Bool -> Bool) "
        "(\\m. m) (\\m. m) n in\n(k :: Bool -> Bool) True")


# A method type that binds a type variable of its own, so that the term
# generator finds its calls by `alpha_eq` (`harness._Generators`).
PICK_ANY = ("class Pick a where { pick : forall b. b -> a -> a };\n"
            "instance Pick Bool where { pick = \\y. \\x. x };\n"
            "True")


def count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of each call of owner.name, which keeps
    working, until the test ends."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def count_rules(monkeypatch, table) -> list:
    """Record the arguments of each call of a rule of table, a walk's
    rules by node class, which keep working, until the test ends."""
    calls = []
    for cls, real in table.items():
        def counted(*args, _real=real):
            calls.append(args)
            return _real(*args)
        monkeypatch.setitem(table, cls, counted)
    return calls


def type_and_translate(checker, e, env=()):
    """The type of the term or dictionary e in env, by checker's typing
    judgment, and then checker's composed translation of e."""
    check = checker.check_dict if isinstance(e, FdDict) \
        else checker.check_expr
    return check(env, e), checker.translate(e)


Square = namedtuple("Square",
                    "variant sigma checker derivation direct composed")
Square.__doc__ = """Both target translations of one derivation under one
method environment: direct(D, Σ) and composed(fd(D, Σ)). variant indexes
sigma among them; checker is sigma's, which fd_env_wf validated."""


def squares(r):
    """The commuting square of each elaboration of r, lazily and in order:
    per Σ, the derivations and the two translated forests of
    `harness._environments`, the translators the reports use, unpacked
    side by side. Consecutive squares share their sigma object."""
    for variant, sigma, checker, n, direct, composed in \
            harness._environments(r):
        for trees in zip(S.unpack(r.forest, n), S.unpack(direct, n),
                         S.unpack(composed, n)):
            yield Square(variant, sigma, checker, *trees)


def corpus_contexts():
    """The corpus contexts as (file name, context) pairs."""
    return [(p.name, parse_context(p.read_text()))
            for p in sorted((CORPUS / "contexts").glob("*.ctx"))]


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS
