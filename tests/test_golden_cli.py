"""Golden snapshot of the command-line front end.

`golden_cli.json` records the stdout and exit code of `dictelab.cli.main`
for every subcommand over the corpus, small rungs of the benchmark
ladders and three programs (b0-b2) whose instance body has two
elaborations, so each method environment must fix one of them for the
whole program in both translations. The corpus programs and b0-b2 are
also checked for coherence under the corpus contexts. Every program, and
the contexts directory, is written to a scratch directory under a fixed
relative name, so the recorded output does not depend on where the
repository lives. Types hash by their identity, so a set of them iterates
in the order of memory addresses: the whole snapshot is also replayed in
fresh interpreters under two hash seeds, and must come out the same.

Re-record (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from dictelab.cli import main

from conftest import CORPUS, corpus_text, flex_source, tower_source, wide_source

GOLDEN = Path(__file__).with_name("golden_cli.json")

ORD = ("class Eq a where { eq : a -> a -> Bool }; "
       "class Ord a where { le : a -> a -> Bool }; "
       "instance Eq Bool where { eq = \\x. \\y. True }; "
       "instance Eq Bool => Ord Bool where "
       "{ le = \\x. \\y. (eq :: Bool -> Bool -> Bool) x y };\n")
LE = "(le :: Bool -> Bool -> Bool)"


def programs() -> dict[str, tuple[str, list[str]]]:
    """File name -> (source text, extra command-line flags)."""
    out = {f"{name}.src": (corpus_text(name), [])
           for name in ("P1", "P2", "P3", "P4", "N1", "N2")}
    for i in (1, 2, 3):
        out[f"flex{i}.src"] = (flex_source(i), [])
        out[f"tower{i}.src"] = (tower_source(i), [])
        out[f"wide{i}.src"] = (wide_source(i), ["--max-elaborations", "2"])
    out["b0.src"] = (ORD + "True", [])
    out["b1.src"] = (ORD + f"{LE} True True", [])
    out["b2.src"] = (ORD + f"{LE} ({LE} True True) True", [])
    return out


COMMANDS = [
    ["check"],
    ["elaborate", "--all", "--stage", "fd"],
    ["elaborate", "--all", "--mode", "direct"],
    ["elaborate", "--all", "--mode", "composed"],
    ["run", "--stage", "fd"],
    ["run", "--mode", "direct"],
    ["run", "--mode", "composed"],
    ["coherence"],
    ["coherence", "--format", "json"],
    ["decompose"],
    ["decompose", "--format", "json"],
    ["meta"],
    ["meta", "--generate", "20", "--seed", "7"],
]


CONTEXT_PROGRAMS = ("P1", "P2", "P3", "P4", "N1", "N2", "b0", "b1", "b2")
CONTEXT_COMMANDS = [
    ["coherence", "--contexts-dir", "contexts"],
    ["coherence", "--contexts-dir", "contexts", "--format", "json"],
]


def argvs() -> list[list[str]]:
    return ([[cmd[0], name, *cmd[1:], *flags]
             for name, (_, flags) in programs().items() for cmd in COMMANDS]
            + [[cmd[0], f"{name}.src", *cmd[1:]]
               for name in CONTEXT_PROGRAMS for cmd in CONTEXT_COMMANDS])


def write_programs(directory: Path):
    for name, (text, _) in programs().items():
        (directory / name).write_text(text)
    shutil.copytree(CORPUS / "contexts", directory / "contexts")


def record() -> list[dict]:
    """Run every command in a scratch directory, capturing stdout."""
    entries = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_programs(Path(tmp))
        os.chdir(tmp)
        try:
            for argv in argvs():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                entries.append({"argv": argv, "exit": code,
                                "stdout": buf.getvalue()})
        finally:
            os.chdir(cwd)
    return entries


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command():
    assert [e["argv"] for e in _golden()] == argvs()


@pytest.fixture(scope="module")
def program_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_programs(directory)
    return directory


@pytest.mark.parametrize("entry", _golden(),
                         ids=lambda e: " ".join(e["argv"]))
def test_golden_cli(entry, program_dir, monkeypatch, capsys):
    monkeypatch.setenv("TCC_COLOR", "0")
    monkeypatch.chdir(program_dir)
    code = main(list(entry["argv"]))
    assert capsys.readouterr().out == entry["stdout"]
    assert code == entry["exit"]


REPLAY = """
import json, sys
from test_golden_cli import record
sys.stdout.buffer.write(
    (json.dumps(record(), indent=1, ensure_ascii=False) + "\\n").encode())
"""


def test_fresh_interpreters_under_two_hash_seeds_replay_the_file():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    runs = []
    for seed in (0, 1):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), TCC_COLOR="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(here), *filter(None, [env.get("PYTHONPATH")])])
        runs.append(subprocess.Popen([sys.executable, "-c", REPLAY], env=env,
                                     stdout=subprocess.PIPE))
    outputs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs == [GOLDEN.read_bytes()] * 2


if __name__ == "__main__":
    os.environ["TCC_COLOR"] = "0"
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False)
                      + "\n")
