"""The command-line scripts run end to end on the corpus, and the
benchmark's self-test passes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("script,args,last_line", [
    ("run_corpus.py", [], "all accepted programs coherent; pipelines agree"),
    ("fuzz_safety.py", ["--count", "20"],
     "no preservation, progress or fuel violations"),
])
def test_script_succeeds(script, args, last_line):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_benchmark_self_test_passes():
    # Fails when a refactor renames an entry point the benchmark hooks,
    # such as `FdChecker.check_expr`.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test ok"
