"""The lines of the dictelab package that no test runs.

Runs the test suite in this process under a line tracer (`sys.settrace`)
limited to the frames of src/dictelab, then prints each executable line of
the package (from its code objects' `co_lines`) that no test ran, as
path:line, and a count per module. It exits 1 if a line no test ran is
one a test process could run, that is any but the lines in `CHILD_ONLY`,
and 0 otherwise. From the repository root:

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The arguments default to the whole suite, which takes several minutes
under the tracer. Tracing slows every test and changes what a test that
measures its own work sees, so the script reports lines, not test
results. Commands run in a child process are not traced, nor is the rest
of a test once Python drops the tracer, which it does when the recursion
limit is reached in the tracer's own call. The report reads the modules
as they are when the run ends: edit none during it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dictelab"

# The lines run, by module path, or None for a file outside the package.
ran: dict[str, set[int] | None] = {}

# The lines that only a child process runs, by module path relative to the
# repository root and line, each with its text: `cli.entry`'s body, which
# `python -m dictelab.cli` and the `dictelab` script run, and the
# `__main__` guard's call of it. A line whose text differs is not excused.
CHILD_ONLY = {
    "src/dictelab/cli.py": {309: "gc.freeze()", 310: "return main()",
                            314: "sys.exit(entry())"},
}


def _module_lines(filename: str):
    out = ran.get(filename, False)
    if out is False:
        path = os.path.realpath(filename)
        out = ran[filename] = ran.setdefault(path, set()) \
            if os.path.dirname(path) == str(PACKAGE) else None
    return out


def _lines(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    """The global tracer: a frame of the package is traced line by line,
    any other not at all."""
    code = frame.f_code
    lines = _module_lines(code.co_filename)
    if lines is None:
        return None
    lines.add(code.co_firstlineno)
    return _lines


class _Retrace:
    """Installs the tracer again before each test runs: a tool a test uses
    may replace or clear it."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_calls)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_calls)


def executable_lines(path: Path) -> set[int]:
    """The lines of path's code objects, nested ones included."""
    out, todo = set(), [compile(path.read_text(encoding="utf-8"),
                                str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines()
                   if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def main(argv: list[str]) -> int:
    sys.settrace(_calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *argv],
                    plugins=[_Retrace()])
    finally:
        sys.settrace(None)
    root = PACKAGE.parent.parent
    total = unexcused = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - (ran.get(str(path)) or set()))
        total += len(missed)
        name = path.relative_to(root)
        text = path.read_text(encoding="utf-8").splitlines()
        child = CHILD_ONLY.get(name.as_posix(), {})
        for line in missed:
            print(f"{name}:{line}")
            unexcused += child.get(line) != text[line - 1].strip()
        print(f"-- {name}: {len(missed)} line(s) not run")
    print(f"-- {total} line(s) not run in all, {unexcused} of them "
          f"outside CHILD_ONLY")
    return 1 if unexcused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
