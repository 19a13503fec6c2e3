"""Source hygiene: no module of the package, its tests or its scripts
imports a name it never reads, and no function of the package takes a
parameter it never reads. The scans are syntactic (`ast`): a name counts
as read if the module, or the function's body, loads it anywhere, and a
name listed in the module's `__all__` counts as read."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))
PACKAGE = sorted((ROOT / "src").rglob("*.py"))
# A parameter that a protocol fixes, by module, function and name:
# `object.__setattr__` passes the value a frozen class refuses to set.
PROTOCOL_PARAMETERS = {("syntax.py", "_frozen_setattr", "value")}


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
