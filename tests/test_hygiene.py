"""Source hygiene: no module of the package or its tests imports a name
it never reads, no function of the package takes a parameter it never
reads, nothing the package defines at top level goes unread or is read by
the tests alone, no attribute the package stores goes unread by the
program, no nested function of the package outlives its call in a
reference cycle, no loop of the package iterates a set, no `match` of
the package has a class pattern, no frozen class of the package
defines a `__post_init__`, which `frozen` never calls, and no function
but `fd_env_wf` builds an `FdChecker`.
The scans are syntactic (`ast`): a name counts as read if the module, or
the function's body, loads it anywhere, and a name listed in the module's
`__all__` counts as read."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests")
                 for path in (ROOT / folder).rglob("*.py"))
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
# Where a definition of the package may be read: the benchmark too.
READERS = sorted(path for folder in ("src", "tests", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))
# The readers that make a definition worth keeping: a definition that
# only the tests read checks nothing the program does.
PROGRAM_READERS = [path for path in READERS
                   if path.relative_to(ROOT).parts[0] != "tests"]
# A definition read from outside the sources: the package's version.
UNREAD_DEFINITIONS = {"__version__"}
# A parameter that a protocol fixes, by module, function and name:
# `object.__setattr__` passes the value a frozen class refuses to set.
PROTOCOL_PARAMETERS = {("syntax.py", "_frozen_setattr", "value")}
# An attribute that the package stores and no program reader loads, by
# module and name, with what reads it or why it is kept.
UNREAD_ATTRIBUTES = {
    ("harness.py", "kept"): "keeps the latest term's types interned while "
                            "its trace is checked and the next term drawn",
    ("syntax.py", "__repr__"): "`frozen` installs it; repr() reads it",
    ("syntax.py", "__delattr__"): "`frozen` installs it; `del` reads it",
    ("syntax.py", "__reduce__"): "copy and pickle read it",
}


def unused_imports(source: str) -> list[str]:
    """"line: name" for each name source imports and never reads."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items()
            if name not in read and name != "*"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\nfrom a.b import c, d as e\n"
              "import x.y\nprint(c, system)\n")
    assert unused_imports(source) == ["2: os", "3: e", "4: x"]


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each function, class and name that source defines
    at top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return out


def reads(source: str) -> set[str]:
    """The names source reads: each name it loads, unless only to store
    into it (`x.doc = ...`, `x[k] = ...`); each attribute it loads; and
    each part of a string that is a dotted name, as `getattr`,
    `monkeypatch.setattr` and `__all__` name what they read."""
    tree = ast.parse(source)
    stored_into = {id(n.value) for n in ast.walk(tree)
                   if isinstance(n, (ast.Attribute, ast.Subscript))
                   and not isinstance(n.ctx, ast.Load)}
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                and id(n) not in stored_into:
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and all(p.isidentifier() for p in n.value.split(".")):
            out.update(n.value.split("."))
    return out


def unread_definitions(package: dict[str, str], readers) -> list[str]:
    """"module:line: name" for each top-level definition of the package,
    sources by module name, that no source of readers reads."""
    read = set().union(*map(reads, readers))
    return [f"{module}:{line}: {name}" for module, source in package.items()
            for line, name in definitions(source)
            if name not in read and name not in UNREAD_DEFINITIONS]


def test_no_definition_of_the_package_goes_unread():
    assert unread_definitions({p.name: p.read_text() for p in PACKAGE},
                              [p.read_text() for p in READERS]) == []


def test_the_scan_sees_an_unread_definition():
    package = {"m.py": ("def f(): return g\ndef g(): pass\nclass C: pass\n"
                        "T, U = {}, 1\nT[0] = 1\nC.__doc__ = 'x'\n"
                        "V: int = 2\nW = 3\n__version__ = '0'\n")}
    readers = [*package.values(), "import m\nm.U\ngetattr(m, 'W')\n"]
    assert unread_definitions(package, readers) == [
        "m.py:1: f", "m.py:3: C", "m.py:4: T", "m.py:7: V"]


def test_no_definition_of_the_package_is_read_by_the_tests_alone():
    assert unread_definitions({p.name: p.read_text() for p in PACKAGE},
                              [p.read_text() for p in PROGRAM_READERS]) == []


def test_the_scan_sees_a_definition_only_the_tests_read():
    package = {"m.py": "def f(): pass\ndef g(): pass\n"}
    program = [*package.values(), "import m\nm.g()\n"]
    tests = "import m\nm.f()\n"
    assert unread_definitions(package, [*program, tests]) == []
    assert unread_definitions(package, program) == ["m.py:1: f"]


def _setattr_names(tree) -> list:
    """The string that names the attribute in each call of a `setattr`
    in tree, as `object.__setattr__(x, "name", value)`."""
    return [n.args[1] for n in ast.walk(tree) if isinstance(n, ast.Call)
            and ast.unparse(n.func).strip("_").endswith("setattr")
            and len(n.args) > 1
            and isinstance(n.args[1], ast.Constant)
            and isinstance(n.args[1].value, str)]


def stored_attributes(source: str) -> list[tuple[int, str]]:
    """(line, name) for each attribute source stores, in line order:
    `x.name = ...`, and a call of a `setattr` that names it by a string."""
    tree = ast.parse(source)
    out = [(n.lineno, n.value) for n in _setattr_names(tree)]
    out += [(n.lineno, n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)]
    return sorted(out)


def attribute_reads(source: str) -> set[str]:
    """The attribute names source loads (`x.name`), and each part of a
    string that is a dotted name, as `getattr` names what it reads, but
    not the name a `setattr` stores. A plain name loaded reads none."""
    tree = ast.parse(source)
    stored = set(map(id, _setattr_names(tree)))
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and id(n) not in stored \
                and all(p.isidentifier() for p in n.value.split(".")):
            out.update(n.value.split("."))
    return out


def unread_attributes(package: dict[str, str], readers) -> list[str]:
    """"module:line: name" for each attribute the package, sources by
    module name, stores and no source of readers loads: state that costs
    a store and pays nothing, unless `UNREAD_ATTRIBUTES` gives a reason."""
    read = set().union(*map(attribute_reads, readers))
    return [f"{module}:{line}: {name}" for module, source in package.items()
            for line, name in stored_attributes(source)
            if name not in read and (module, name) not in UNREAD_ATTRIBUTES]


def test_no_attribute_of_the_package_goes_unread():
    assert unread_attributes({p.name: p.read_text() for p in PACKAGE},
                             [p.read_text() for p in PROGRAM_READERS]) == []


def test_the_scan_sees_an_unread_attribute():
    package = {"m.py": ("class C:\n"
                        "    def __init__(self):\n"
                        "        self.a, self.b = 1, 2\n"
                        "        self.c = 3\n"
                        "        object.__setattr__(self, 'd', 4)\n"
                        "        setattr(self, 'e', 5)\n"
                        "    def f(self): return self.a\n")}
    readers = [*package.values(), "import m\nc = 1\nprint(c)\n"
                                  "getattr(m.C(), 'e')\n"]
    assert unread_attributes(package, readers) == [
        "m.py:3: b", "m.py:4: c", "m.py:5: d"]


def unused_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a function or lambda of
    source that its body never reads. A name that starts with "_", and a
    method's self or cls, need not be read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(getattr(node, "name", "<lambda>"), p.arg) for p in params
                if p.arg not in read and not p.arg.startswith("_")
                and p.arg not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_function_takes_a_parameter_it_never_reads(path):
    assert [(f, p) for f, p in unused_parameters(path.read_text())
            if (path.name, f, p) not in PROTOCOL_PARAMETERS] == []


def test_the_scan_sees_an_unused_parameter():
    source = ("def f(a, b, *c, d, _e, **g):\n"
              "    def h(self): return a\n"
              "    return lambda x, y: (x, d)\n"
              "class C:\n"
              "    def m(self, z): return 1\n")
    assert unused_parameters(source) == [
        ("f", "b"), ("f", "c"), ("f", "g"), ("m", "z"), ("<lambda>", "y")]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scope(function):
    """The nodes of function's body, each function or lambda it defines
    included, but none of theirs."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def closure_cycles(source: str) -> list[str]:
    """"line: name" for each function defined in another that reaches its
    own name, loaded in its body or in the body of a function defined
    beside it that it loads: a reference cycle through their closures,
    which only a garbage collection frees. The enclosing function breaks
    it by deleting the name (`del`) before it returns."""
    out = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        own = list(_scope(outer))
        defs = {n.name: n for n in own if isinstance(n, FUNCTIONS)}
        deleted = {t.id for n in own if isinstance(n, ast.Delete)
                   for t in n.targets if isinstance(t, ast.Name)}
        loads = {name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load) and n.id in defs}
                 for name, f in defs.items()}
        for name, f in defs.items():
            reached, todo = set(), [name]
            while todo:
                new = loads[todo.pop()] - reached
                reached |= new
                todo += new
            if name in reached and name not in deleted:
                out.append((f.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(out)]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_closure_reaches_itself_past_its_call(path):
    assert closure_cycles(path.read_text()) == []


def test_the_scan_sees_a_closure_cycle():
    source = ("def f():\n"
              "    def go(x): return go(x - 1) if x else 0\n"
              "    def a(): return b()\n"
              "    def b(): return a()\n"
              "    def h(): return go(0)\n"
              "    return go(1) + h()\n"
              "def g():\n"
              "    def go(x): return go(x) if x else lambda: go\n"
              "    out = go(1)\n"
              "    del go\n"
              "    return out\n"
              "class C:\n"
              "    def m(self):\n"
              "        def up(x): return up(x)\n"
              "        return up\n")
    assert closure_cycles(source) == ["2: go", "3: a", "4: b", "14: up"]


# Set algebra: the operators, and the methods that return a new set.
SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
SET_METHODS = {"union", "intersection", "difference", "symmetric_difference",
               "copy"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def is_set(node) -> bool:
    """Whether node is a set by its syntax: a set display or comprehension,
    a call of `set` or `frozenset`, or set algebra over one of these."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, SET_OPERATORS) \
            and (is_set(node.left) or is_set(node.right))
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id in ("set", "frozenset")
    return isinstance(f, ast.Attribute) and f.attr in SET_METHODS \
        and is_set(f.value)


def set_iterations(source: str) -> list[str]:
    """"line: iterable" for each `for` loop or comprehension of source that
    iterates a set (`is_set`), except a comprehension inside a call of
    `sorted`. Types and dictionaries hash by their identity, so the order
    of a set of them is that of memory addresses: output that followed it
    would change from run to run."""
    tree = ast.parse(source)
    in_sorted = {id(n) for call in ast.walk(tree)
                 if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Name)
                 and call.func.id == "sorted"
                 for arg in call.args for n in ast.walk(arg)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, COMPREHENSIONS) and id(node) not in in_sorted:
            iters = [g.iter for g in node.generators]
        else:
            continue
        out += [(it.lineno, ast.unparse(it)) for it in iters if is_set(it)]
    return [f"{line}: {text}" for line, text in sorted(out)]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_loop_iterates_a_set(path):
    assert set_iterations(path.read_text()) == []


def test_the_scan_sees_a_loop_over_a_set():
    source = ("for x in {1, 2}: pass\n"
              "ys = [y for y in set(a) - b]\n"
              "zs = {k: v for k, v in d.items() for z in frozenset(e)}\n"
              "ws = (w for w in {v for v in a}.union(b))\n"
              "ok = sorted(x for x in set(a) | set(b))\n"
              "for x in sorted({1, 2}): pass\n"
              "for x in a - b: pass\n"
              "for x in b.union(set(a)): pass\n")
    assert set_iterations(source) == [
        "1: {1, 2}", "2: set(a) - b", "3: frozenset(e)",
        "4: {v for v in a}.union(b)"]


def class_patterns(source: str) -> list[str]:
    """"line: pattern" for each class pattern (`case C(...)`) of source,
    nested ones too. A per-node walk finds its rule by the node's exact
    class, in a table or a chain of `type(x) is C` tests: a class pattern
    is an `isinstance` test, and a match tries its cases one by one."""
    return [f"{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.MatchClass)]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_match_has_a_class_pattern(path):
    assert class_patterns(path.read_text()) == []


def test_the_scan_sees_a_class_pattern():
    source = ("match t:\n"
              "    case A():\n"
              "        pass\n"
              "    case B(C(x), y) | D(y=y):\n"
              "        pass\n"
              "match n:\n"
              "    case 0 | 1:\n"
              "        pass\n"
              "    case [a, *_]:\n"
              "        pass\n")
    assert sorted(class_patterns(source)) == [
        "2: A()", "4: B(C(x), y)", "4: C(x)", "4: D(y=y)"]


# The decorators that build a frozen class (`syntax.frozen`).
FROZEN_DECORATORS = {"frozen", "interned"}


def frozen_post_inits(source: str) -> list[str]:
    """"line: class" for each class of source that a `frozen` or
    `interned` decorator builds and that defines `__post_init__`: the
    methods `frozen` compiles never call it, so it would never run."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        names = {d.id if isinstance(d, ast.Name) else d.attr
                 for d in node.decorator_list
                 if isinstance(d, (ast.Name, ast.Attribute))}
        if names & FROZEN_DECORATORS and any(
                isinstance(item, ast.FunctionDef)
                and item.name == "__post_init__" for item in node.body):
            out.append(f"{node.lineno}: {node.name}")
    return out


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_no_frozen_class_defines_a_post_init(path):
    assert frozen_post_inits(path.read_text()) == []


def test_the_scan_sees_a_frozen_post_init():
    source = ("@frozen\n"
              "class A:\n"
              "    x: int\n"
              "    def __post_init__(self): pass\n"
              "@S.interned\n"
              "class B:\n"
              "    def __post_init__(self): pass\n"
              "@dataclass\n"
              "class C:\n"
              "    def __post_init__(self): pass\n"
              "@frozen\n"
              "class D:\n"
              "    def post(self): pass\n")
    assert frozen_post_inits(source) == ["2: A", "6: B"]


def checker_constructions(source: str) -> list[str]:
    """"line: callee" for each call of `FdChecker` in source outside the
    top-level function `fd_env_wf`. A checker types under the Σ it was
    built for, and checks none of Σ's implementations: only the one that
    `fd_env_wf` builds, after it has validated Σ, types a well-formed
    Σ's terms."""
    tree = ast.parse(source)
    allowed = {id(n) for f in tree.body
               if isinstance(f, FUNCTIONS) and f.name == "fd_env_wf"
               for n in ast.walk(f)}
    calls = sorted((n.lineno, ast.unparse(n.func)) for n in ast.walk(tree)
                   if isinstance(n, ast.Call) and id(n) not in allowed)
    return [f"{line}: {callee}" for line, callee in calls
            if callee.rpartition(".")[2] == "FdChecker"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_only_fd_env_wf_builds_a_checker(path):
    assert checker_constructions(path.read_text()) == []


def test_the_scan_sees_a_checker_built_outside_fd_env_wf():
    source = ("def fd_env_wf(sigma, TC):\n"
              "    return FdChecker(sigma, TC)\n"
              "def other(sigma):\n"
              "    return fd_core.FdChecker(sigma, ())\n"
              "class C:\n"
              "    def fd_env_wf(self):\n"
              "        return FdChecker((), ())\n"
              "CHECKER = FdChecker((), ())\n"
              "KIND = FdChecker\n"
              "other(MyFdChecker((), ()))\n")
    assert checker_constructions(source) == [
        "4: fd_core.FdChecker", "7: FdChecker", "8: FdChecker"]
