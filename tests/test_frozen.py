"""`syntax.frozen` against `@dataclass(frozen=True)`.

Every class `frozen` builds is compared with a twin made by
`dataclasses.make_dataclass(..., frozen=True)` from the same fields: the
twin runs the code the standard library generates, so equality, `repr`,
construction, copying and immutability must agree with it. Hashing keeps
the twin's contract, that equal nodes hash alike, by two rules: a frozen
node hashes like the tuple of its fields compared, as the twin does, and
an interned node by its identity, since every equal one is that object.
The classes `frozen` builds are no dataclasses: their fields are read
from `__match_args__`, the annotations and the class body.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from collections import namedtuple
from dataclasses import MISSING, FrozenInstanceError, fields
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dictelab.cli  # so that every module of the package is imported
from dictelab import harness, parser, source_typer, syntax as S

import strategies
from conftest import (POSITIVE, corpus_program, corpus_result, corpus_text,
                      wide_source)

SRC = Path(dictelab.__file__).resolve().parent.parent


def _frozen_classes():
    """Every class of the package that `frozen` built: those that name
    their fields in `__match_args__`, less the namedtuples, which do too."""
    out = []
    for module in (S, parser, source_typer, harness):
        for v in vars(module).values():
            if isinstance(v, type) and v.__module__ == module.__name__ \
                    and hasattr(v, "__match_args__") \
                    and not issubclass(v, tuple):
                out.append(v)
    return out


CLASSES = _frozen_classes()

Field = namedtuple("Field", "name type default compare")


def node_fields(cls):
    """What `dataclasses.fields` would list for cls: each field's name,
    annotation, default (MISSING if none) and whether it is compared (and
    shown by `repr`)."""
    return [Field(n, cls.__annotations__[n], vars(cls).get(n, MISSING),
                  n not in vars(cls).get("_derived", ()))
            for n in cls.__match_args__]


def _twin_class(cls):
    spec = [(f.name, f.type) if f.default is MISSING and f.compare
            else (f.name, f.type, dataclasses.field(
                default=f.default, compare=f.compare, repr=f.compare))
            for f in node_fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


TWINS = {cls: _twin_class(cls) for cls in CLASSES}


def assert_hash_contract(x):
    """x hashes by the contract of its class: an interned node by its
    identity, and each way of building an equal node gives x back; a
    frozen node like the tuple of its fields compared."""
    cls = type(x)
    if cls in S._INTERNED:
        assert hash(x) == object.__hash__(x)
        assert cls(*[getattr(x, f) for f in cls.__match_args__]) is x
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    elif cls in TWINS:
        assert hash(x) == hash(tuple(getattr(x, f) for f in x._compared))


def twin(x):
    """x with every node, however deep, replaced by its twin's instance."""
    if type(x) is tuple:
        return tuple(map(twin, x))
    t = TWINS.get(type(x))
    if t is None:
        return x
    return t(*[twin(getattr(x, f)) for f in x.__match_args__])


def test_every_converted_class_is_covered():
    assert set(S._SHAPES) <= set(CLASSES)
    outside = {c.__name__ for c in CLASSES if c.__module__ != S.__name__}
    assert outside == {"ClassEntry", "InstEntry", "Declarations",
                       "ProgramResult", "CoherenceReport", "Mismatch",
                       "DecompositionReport", "MetaReport"}


# Field values: names, small atoms, real terms of the three languages from
# tests/strategies.py, and tuples of them. A dataclass does not check its
# field types, so any class may hold any of them.
TERMS = st.one_of(
    strategies.src_mono, strategies.src_constraint, strategies.src_scheme,
    strategies.src_expr, strategies.fd_type, strategies.fd_q,
    strategies.fd_qual_type, strategies.fd_constraint_scheme,
    strategies.fd_dict, strategies.fd_term, strategies.tgt_type,
    strategies.tgt_let_term)
ATOMS = st.one_of(st.sampled_from(["a", "b"]), st.integers(0, 1),
                  st.booleans(), st.none())
VALUES = st.one_of(ATOMS, TERMS,
                   st.lists(st.one_of(ATOMS, TERMS), max_size=2).map(tuple))


def _field_values(cls):
    return st.tuples(*[VALUES] * len(cls.__match_args__))


def _same_arity(cls):
    n = len(cls.__match_args__)
    return [c for c in CLASSES if c is not cls and len(c.__match_args__) == n]


def _name(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_methods_agree_with_the_twin(cls, data):
    xs = data.draw(_field_values(cls))
    ys = data.draw(st.one_of(st.just(copy.deepcopy(xs)),
                             _field_values(cls)))
    a, b = cls(*xs), cls(*ys)
    ta, tb = twin(a), twin(b)
    assert type(ta) is TWINS[cls]
    assert (a == b) is (ta == tb)
    assert (a != b) is (ta != tb)
    assert (b == a) is (tb == ta)
    assert_hash_contract(a)
    assert repr(a) == repr(ta)
    # An equal copy is equal and hashes alike; a twin is another class.
    c = cls(*copy.deepcopy(xs))
    assert a == c and not a != c and hash(a) == hash(c)
    assert a != ta and not a == ta
    # Keyword construction.
    names = cls.__match_args__
    assert cls(**dict(zip(names, xs))) == a
    # A node of another class never equals it, whatever its fields.
    for other in _same_arity(cls):
        o = other(*xs)
        assert a != o and o != a and not a == o


@pytest.mark.parametrize("cls", [c for c in CLASSES if any(
    f.default is not MISSING for f in node_fields(c))], ids=_name)
def test_defaults_agree_with_the_twin(cls):
    required = [f"v{i}" for i, f in enumerate(node_fields(cls))
                if f.default is MISSING]
    a, ta = cls(*required), TWINS[cls](*required)
    assert repr(a) == repr(ta)
    assert_hash_contract(a)
    for f in cls.__match_args__:
        assert getattr(a, f) == getattr(ta, f)
    names = cls.__match_args__[:len(required)]
    assert cls(**dict(zip(names, required))) == a


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_introspection_agrees_with_the_twin(cls):
    t = TWINS[cls]
    assert not dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(t)
    assert node_fields(cls) == \
        [(f.name, f.type, f.default, f.compare) for f in fields(t)]
    assert cls.__match_args__ == t.__match_args__
    if cls.__doc__.startswith(cls.__name__ + "("):     # no docstring
        assert cls.__doc__ == t.__doc__


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_instances_are_frozen_and_copy(cls, data):
    xs = data.draw(_field_values(cls))
    a, ta = cls(*xs), twin(cls(*xs))
    for name in [*cls.__match_args__, "extra"]:
        for obj in (a, ta):
            with pytest.raises(FrozenInstanceError) as assign:
                setattr(obj, name, 1)
            with pytest.raises(FrozenInstanceError) as delete:
                delattr(obj, name)
            if obj is a:
                messages = str(assign.value), str(delete.value)
        assert (str(assign.value), str(delete.value)) == messages
    assert repr(a) == repr(ta)
    d = copy.deepcopy(a)
    assert d == a and hash(d) == hash(a) and repr(d) == repr(a)
    assert type(d) is cls and copy.copy(a) == a


@settings(max_examples=100, deadline=None)
@given(TERMS, TERMS)
def test_whole_terms_agree_with_their_twins(a, b):
    ta, tb = twin(a), twin(b)
    assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
    assert repr(a) == repr(ta)
    assert_hash_contract(a)
    assert twin(copy.deepcopy(a)) == ta


@pytest.mark.parametrize("name", POSITIVE)
def test_real_results_agree_with_their_twins(name):
    p = corpus_program(name)
    r = corpus_result(name)
    sigma, ie = r.fd_elabs[0]
    values = [p, r, *r.GC, *r.P, *parser.tokenize(corpus_text(name)),
              harness.check_coherence(p), harness.check_decomposition(p),
              harness.check_metatheory(sigma, r.fd_class_env, ie, 1000)]
    for v in values:
        assert repr(v) == repr(twin(v))
        assert_hash_contract(v)
        assert copy.deepcopy(v) == v


def test_a_typed_program_is_compared_and_shown_without_its_forest():
    # The forest is a function of the declarations and main, and a DAG: on
    # wide(8) it stands for 16^8 trees. Walking it as a tree, `==`, hash
    # and repr would take hours. Without it they take the program's size.
    r = source_typer.typecheck_program(
        parser.parse_program(wide_source(8)), 3)
    assert S.tree_count(r.forest) == 16 ** 8
    assert len(repr(r)) == 2400
    other = source_typer.ProgramResult(
        r.main_type, r.main, r.decls, S.ITrue(), r.count, r.fd_truncated)
    assert other == r and hash(other) == hash(r)
    assert repr(other) == repr(r) and "forest" not in repr(r)


def _shape(cls):
    return cls.__match_args__, cls._compared


SHARED_SHAPES = sorted({_shape(c) for c in CLASSES
                        if sum(_shape(d) == _shape(c) for d in CLASSES) > 1})


@pytest.mark.parametrize("shape", SHARED_SHAPES,
                         ids=lambda s: ",".join(s[0]))
def test_classes_of_one_shape_share_no_code_object(shape):
    # Python specializes attribute access per code object, so classes
    # that shared one would share (and keep undoing) one specialization.
    # Interned classes of a shape have the same code as each other, and
    # frozen ones too.
    group = [c for c in CLASSES if _shape(c) == shape]
    assert len(group) > 1
    codes = [own_method(c, m).__code__ for c in group for m in methods(c)]
    assert len({id(code) for code in codes}) == len(codes)
    for kind in (METHODS, INTERNED_METHODS):
        for method in kind:
            codes = [own_method(c, method).__code__ for c in group
                     if methods(c) == kind]
            assert all(code == codes[0] for code in codes), method


def _template(cls):
    names = cls.__match_args__
    return (len(names), tuple(i for i, n in enumerate(names)
                              if n in cls._compared))


def test_shapes_are_compiled_once():
    # Once per template: shapes that differ only in their field names
    # share one. Each template compiles the methods of an interned class
    # in the same exec, so a template that a frozen class made first
    # serves a later interned class without a second compilation.
    assert set(S._FROZEN_CODE) == {_template(c) for c in CLASSES}
    assert all(set(kinds) == {False, True}
               for kinds, _ in S._FROZEN_CODE.values())
    assert _shape(S.SArrow) == _shape(S.IArrow) == _shape(S.TArrow)
    assert _template(S.SArrow) == _template(S.SApp) == _template(S.TProj)


# ---------------------------------------------------------------------------
# The renamed templates against a compilation of each shape's own source
# ---------------------------------------------------------------------------

METHODS = ("__init__", "__eq__", "__hash__")
# An interned class keeps `object`'s `__init__`, `__eq__` and `__hash__`.
INTERNED_METHODS = ("__new__",)


def methods(cls) -> tuple:
    """The methods `frozen` compiled for cls."""
    return INTERNED_METHODS if cls in S._INTERNED else METHODS


def own_method(cls, method):
    """The function cls itself defines as method."""
    fn = vars(cls)[method]
    return fn.__func__ if isinstance(fn, staticmethod) else fn


def _reference_methods(cls) -> dict:
    """The methods `frozen` gave cls when it compiled the source of each
    shape (field names and the fields compared) by itself, those of an
    interned class if cls is one."""
    names, compared = cls.__match_args__, cls._compared
    init = [f"  _setattr(self,{n!r},{n})" for n in names]
    own = "".join(f"self.{n}," for n in compared)
    other = "".join(f"other.{n}," for n in compared)
    if cls not in S._INTERNED:
        source = (f"def __init__({','.join(('self', *names))}):\n"
                  + ("\n".join(init) or "  pass") + "\n"
                  "def __eq__(self, other):\n"
                  "  if other.__class__ is self.__class__:\n"
                  f"    return ({own})==({other})\n"
                  "  return NotImplemented\n"
                  "def __hash__(self):\n"
                  f"  return hash(({own}))\n")
    else:
        key = "(" + "".join(n + "," for n in compared) + ")"
        source = (f"def __new__({','.join(('_cls', *names))}):\n"
                  f"  _ref=_table.get({key})\n"
                  f"  return _ref and _ref() or _intern(_cls,{key})\n")
    ns = {}
    exec(source, S._FROZEN_GLOBALS, ns)
    defaults = tuple(vars(cls)[n] for n in names if n in vars(cls))
    out = {}
    for method, dflt in zip(methods(cls), (defaults or None, None, None)):
        fn = FunctionType(ns[method].__code__, S._FROZEN_GLOBALS, method,
                          dflt)
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        out[method] = fn
    return out


def _facts(fn):
    c = fn.__code__
    return (c.co_code, c.co_varnames, c.co_names, c.co_consts,
            c.co_argcount, fn.__defaults__, fn.__qualname__,
            inspect.signature(fn))


def assert_own_shape_code(cls):
    reference = _reference_methods(cls)
    for method in methods(cls):
        assert _facts(own_method(cls, method)) == \
            _facts(reference[method]), method


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_methods_are_the_code_of_their_own_shape(cls):
    assert_own_shape_code(cls)


# The names the methods of a frozen class use besides its fields, and
# those of an interned class.
RESERVED = ("self", "other", "hash", "_setattr", "NotImplemented",
            "__class__")
INTERNED_RESERVED = ("_cls", "_ref", "_table", "get", "_intern")


def test_a_field_named_like_the_template_is_rejected(monkeypatch):
    # A renamed copy of the template would mean something else for such a
    # field, and no other code is compiled. These classes have the shapes
    # of package classes, so they add no template.
    monkeypatch.setattr(S, "_FROZEN_CODE", dict(S._FROZEN_CODE))
    templates = set(S._FROZEN_CODE)
    for interned, names in ((False, RESERVED), (True, INTERNED_RESERVED)):
        for reserved in names:
            namespace = {"__annotations__": {reserved: object}}
            with pytest.raises(TypeError,
                               match=f"^Clash: .*: {reserved!r}$"):
                S.frozen(type("Clash", (), namespace), interned)
    assert not any(c.__name__ == "Clash" for c in S._INTERNED)

    class Both:
        other: object
        hash: object = None
    with pytest.raises(TypeError, match="^Both: .*: 'other', 'hash'$"):
        S.frozen(Both)
    assert set(S._FROZEN_CODE) == templates


def test_fields_named_like_placeholders_elsewhere_get_the_template(
        monkeypatch):
    # Placeholders are renamed all at once, so fields named like them at
    # other positions keep the template's code.
    monkeypatch.setattr(S, "_FROZEN_CODE", dict(S._FROZEN_CODE))
    templates = set(S._FROZEN_CODE)

    @S.frozen
    class Placeholders:
        _1: object
        _0: object = None

    assert_own_shape_code(Placeholders)
    assert set(S._FROZEN_CODE) == templates
    assert Placeholders(1, 2)._1 == 1 and Placeholders(1)._0 is None
    assert Placeholders(1, 2) == Placeholders(1, 2) != Placeholders(2, 1)


@pytest.mark.parametrize("cls", CLASSES, ids=_name)
def test_each_method_names_its_own_class(cls):
    for method in methods(cls):
        fn = own_method(cls, method)
        assert fn.__qualname__ == f"{cls.__qualname__}.{method}"
        assert fn.__name__ == method
    if cls in S._INTERNED:
        assert "__init__" not in vars(cls) and "__eq__" not in vars(cls)
        assert cls.__init__ is object.__init__
        assert cls.__eq__ is object.__eq__


def test_a_field_without_a_default_after_one_with_a_default_is_rejected():
    # As in a dataclass: the positional order of __init__ would drop it.
    class Order:
        first: object = None
        second: object
    with pytest.raises(TypeError, match="^Order: field without default "
                                        "after one with a default$"):
        S.frozen(Order)


def test_a_default_is_kept():
    assert harness.MetaReport(3, True, True, True) == \
        harness.MetaReport(3, True, True, True, None)
    assert harness.MetaReport(3, True, True, True, failing_term="t") == \
        harness.MetaReport(3, True, True, True, "t")
    assert harness.MetaReport.__init__.__defaults__ == (None,)
    assert S.SApp.__init__.__defaults__ is None
    assert S.SArrow.__new__.__defaults__ is None


# Counts the `exec` calls that compile source text while `dictelab.cli` is
# imported (module bodies are exec'd as code objects), the distinct shapes
# of the classes `frozen` built (field names and the fields compared) and
# their templates (field count and the positions of the fields compared).
# `@dataclass(frozen=True)` compiles six strings per class, `frozen` one
# per template.
COUNT_EXECS = """
import builtins, sys
calls = 0
real = builtins.exec
def counting(source, *args, **kwargs):
    global calls
    calls += isinstance(source, str)
    return real(source, *args, **kwargs)
builtins.exec = counting
import dictelab.cli
builtins.exec = real
classes = {v for name, m in list(sys.modules.items())
           if name.partition(".")[0] == "dictelab"
           for v in vars(m).values()
           if isinstance(v, type) and v.__module__ == name
           and hasattr(v, "__match_args__") and not issubclass(v, tuple)}
shapes = {(c.__match_args__, c._compared) for c in classes}
templates = {(len(names), tuple(i for i, n in enumerate(names)
                                if n in compared))
             for names, compared in shapes}
print(calls, len(classes), len(shapes), len(templates))
"""


def _run_with_src(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_makes_few_exec_calls():
    out = _run_with_src("-c", COUNT_EXECS)
    calls, classes, shapes, templates = map(int, out.split())
    assert classes >= len(CLASSES)
    assert shapes < classes
    assert templates < shapes
    assert calls == templates, (calls, templates, shapes)


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # Each costs start-up time in every dictelab process; `-S` keeps
    # site-packages from importing them first.
    out = _run_with_src("-S", "-c", "import sys, dictelab.cli; print(sorted("
                        "{'dataclasses', 'inspect', 'string', 'typing'} & set("
                        "sys.modules)))")
    assert out == "[]\n"
