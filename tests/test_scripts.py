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

from dictelab import harness, source_typer
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


def test_fuzz_safety_checks_a_pinned_number_of_steps():
    # The trace steps of these 50 terms, recorded before each method
    # environment kept its state across terms: a speed-up must not come
    # from checking fewer steps.
    proc = run_script("fuzz_safety.py", "--count", "50", "--size", "6")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0] == "50 terms, 226 trace steps checked"


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("script,args", [
    ("fuzz_safety.py", ["--count", "3"]), ("run_corpus.py", []),
])
def test_scripts_exit_141_when_stdout_is_closed(script, args, unbuffered):
    # The reader leaves before the first line: every write, or the flush
    # of buffered output at the end, meets a closed pipe.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, str(SCRIPTS / script), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


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
    ("fuzz_safety.py", "--fuel"), ("fuzz_safety.py", "--size"),
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
    sigmas = 0
    for path in sorted(CORPUS.glob("*.src")):
        try:
            r = source_typer.typecheck_program(parse_program(path.read_text()))
            sigmas += len(r.decls.variants)
        except (ParseError, source_typer.SrcTypeError):
            pass
    once, calls[:] = len(calls), []
    validated = count_calls(monkeypatch, harness, "fd_env_wf")
    spec = importlib.util.spec_from_file_location(
        "run_corpus", SCRIPTS / "run_corpus.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script adds src/
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["run_corpus.py"])
    assert module.main() == 0
    assert once > 0 and len(calls) == once
    assert sigmas > 0 and len(validated) == sigmas


BAD_INPUTS = {      # what is wrong -> file contents
    "malformed": b"(\\x. x :: ",
    "no_hole": b"True",
    "not_utf8": "-- \xe9\n[]".encode("latin-1"),
}


def _one_error_line(proc, path):
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: {path}: ")


@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
def test_run_corpus_names_a_bad_context(tmp_path, bad):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    path = tmp_path / "corpus" / "contexts" / f"{bad}.ctx"
    path.write_bytes(BAD_INPUTS[bad])
    proc = run_script("run_corpus.py", "--corpus", str(tmp_path / "corpus"))
    _one_error_line(proc, path)


def test_run_corpus_rejects_a_program_that_is_not_utf8(tmp_path):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    (tmp_path / "corpus" / "Z.src").write_bytes(BAD_INPUTS["not_utf8"])
    proc = run_script("run_corpus.py", "--corpus", str(tmp_path / "corpus"))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    at = lines.index("== Z.src ==")
    assert lines[at + 1].startswith("rejected: ")
    assert "utf-8" in lines[at + 1]


@pytest.mark.parametrize("bad", ["ill_typed", "malformed", "not_utf8"])
def test_fuzz_safety_names_a_program_it_cannot_use(tmp_path, bad):
    if bad == "ill_typed":      # N1 has overlapping instances
        path = CORPUS / "N1.src"
    else:
        path = tmp_path / f"{bad}.src"
        path.write_bytes(BAD_INPUTS[bad])
    proc = run_script("fuzz_safety.py", "--program", str(path))
    _one_error_line(proc, path)


DEEP = "(" * 3000 + "True" + ")" * 3000    # deeper than the recursion limit


def test_fuzz_safety_names_a_program_nested_too_deeply(tmp_path):
    path = tmp_path / "D.src"
    path.write_text(DEEP)
    proc = run_script("fuzz_safety.py", "--program", str(path))
    assert proc.returncode == 3 and proc.stdout == "", proc.stderr
    assert proc.stderr == \
        f"error: {path}: input nested too deeply to process\n"


def test_run_corpus_counts_a_program_nested_too_deeply_as_a_failure(tmp_path):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    (tmp_path / "corpus" / "D.src").write_text(DEEP)
    proc = run_script("run_corpus.py", "--corpus", str(tmp_path / "corpus"))
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    at = lines.index("== D.src ==")
    assert lines[at + 1:at + 3] == ["input nested too deeply to process", ""]
    assert lines[at + 3] == "== N1.src =="      # the sweep carries on
    assert lines[-1].startswith("1 program(s) ")


def test_fuzz_safety_names_a_missing_program_once(tmp_path):
    path = tmp_path / "no-such-file.src"
    proc = run_script("fuzz_safety.py", "--program", str(path))
    assert proc.returncode == 1 and proc.stdout == "", proc.stderr
    assert proc.stderr == f"error: {path}: No such file or directory\n"


@pytest.mark.parametrize("case", ["missing", "file", "empty", "no_src"])
def test_run_corpus_refuses_an_empty_sweep(tmp_path, case):
    # A sweep over no program must not pass.
    corpus = tmp_path / "corpus"
    if case == "file":
        corpus.write_text("")
    elif case != "missing":
        corpus.mkdir()
    if case == "no_src":
        shutil.copytree(CORPUS / "contexts", corpus / "contexts")
        (corpus / "P1.txt").write_text((CORPUS / "P1.src").read_text())
    proc = run_script("run_corpus.py", "--corpus", str(corpus))
    _one_error_line(proc, corpus)


def test_run_corpus_counts_an_unreadable_program_as_a_failure(tmp_path):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    path = tmp_path / "corpus" / "A.src"
    path.mkdir()
    proc = run_script("run_corpus.py", "--corpus", str(tmp_path / "corpus"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr == f"error: {path}: Is a directory\n"
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["== A.src ==", "", "== N1.src =="]  # carries on
    assert [line for line in lines if line.startswith("== ")] == [
        f"== {name}.src ==" for name in ("A", "N1", "N2", "P1", "P2", "P3",
                                         "P4")]
    assert lines[-1].startswith("1 program(s) ")


def test_run_corpus_names_a_context_it_cannot_read(tmp_path):
    shutil.copytree(CORPUS, tmp_path / "corpus")
    path = tmp_path / "corpus" / "contexts" / "x.ctx"
    path.mkdir()
    proc = run_script("run_corpus.py", "--corpus", str(tmp_path / "corpus"))
    _one_error_line(proc, path)
    assert proc.stderr == f"error: {path}: Is a directory\n"


def test_benchmark_self_test_passes():
    # Fails when a refactor renames an entry point the benchmark hooks,
    # such as `FdChecker.check_expr`.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test ok"
