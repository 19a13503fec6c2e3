"""The command-line scripts run end to end on the corpus, and the
benchmark's self-test passes."""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dictelab import source_typer
from dictelab.parser import ParseError, parse_program

from conftest import CORPUS, count_calls

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(script, *args, env=None):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300,
                          env=env)


@pytest.mark.parametrize("script,args,last_line", [
    ("run_corpus.py", [], "all accepted programs coherent; pipelines agree"),
    ("fuzz_safety.py", ["--count", "20"],
     "no preservation, progress or fuel violations"),
])
def test_script_succeeds(script, args, last_line):
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_run_corpus_reports_exhausted_fuel_as_a_failure():
    proc = run_script("run_corpus.py", "--fuel", "0")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    exhausted = [line for line in proc.stdout.splitlines()
                 if line.startswith("fuel exhausted")]
    assert len(exhausted) == 4        # P1-P4; N1 and N2 are rejected
    assert proc.stdout.splitlines()[-1].startswith("4 program(s) ")


@pytest.mark.parametrize("script,flag", [
    ("run_corpus.py", "--fuel"), ("fuzz_safety.py", "--count"),
    ("fuzz_safety.py", "--fuel"),
])
def test_scripts_reject_negative_counts(script, flag):
    proc = run_script(script, flag, "-3")
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"argument {flag}: must be at least 0" in proc.stderr


def test_run_corpus_reads_utf8_whatever_the_locale(tmp_path):
    # A comment in each file is not ASCII; the locale's encoding is.
    shutil.copytree(CORPUS, tmp_path / "corpus")
    for path in [tmp_path / "corpus" / "P1.src",
                 *(tmp_path / "corpus" / "contexts").glob("*.ctx")]:
        path.write_text("-- δ λ\n" + path.read_text(), encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
               PYTHONIOENCODING="utf-8")
    proc = run_script("run_corpus.py", "--corpus", str(tmp_path / "corpus"),
                      env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        "all accepted programs coherent; pipelines agree"


def test_run_corpus_types_each_program_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, source_typer, "typecheck_instance")
    for path in sorted(CORPUS.glob("*.src")):
        try:
            source_typer.typecheck_program(parse_program(path.read_text()))
        except (ParseError, source_typer.SrcTypeError):
            pass
    once, calls[:] = len(calls), []
    spec = importlib.util.spec_from_file_location(
        "run_corpus", SCRIPTS / "run_corpus.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script adds src/
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["run_corpus.py"])
    assert module.main() == 0
    assert once > 0 and len(calls) == once


def test_benchmark_self_test_passes():
    # Fails when a refactor renames an entry point the benchmark hooks,
    # such as `FdChecker.check_expr`.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test ok"
