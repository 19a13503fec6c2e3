"""Source hygiene: no module of the package, its tests or its scripts
imports a name it never reads. The scan is syntactic (`ast`): a name counts
as read if the module loads it anywhere, and a name listed in the module's
`__all__` counts as read."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src", "tests", "scripts")
                 for path in (ROOT / folder).rglob("*.py"))


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
