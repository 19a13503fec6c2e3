"""The four benchmark workloads, their inputs and their known answers.

Every input is built from the benchmark seed or read from `tests/corpus/`,
and every known answer follows from how the input was built or from the
README (exit codes); none is taken from dictelab's own output. The seed
changes names, literals and the order of fuzz batches and CLI runs, never
the amount of work an item does.

Known answers:
  flex(n)   2^n elaborations per pipeline, not truncated, coherent with
            witness True, decomposition equal
  wide(k)   min(16^k, 256) elaborations per pipeline, truncated iff
            16^k > 256, decomposition equal; the value is main's literal
  tower(d)  1 elaboration, decomposition equal
  corpus    P1 1, P2 2, P3 2, P4 1 elaborations, every value True; N1 and
            N2 exit 1
  fuzz      every generated term is type safe: preservation, progress
            and fuel all hold
  a truncated enumeration exits 3 (README, "Exit codes")
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dictelab import harness, parser, source_typer

from traced_cli import MARK

CAP = 256           # default --max-elaborations
LOCAL_DICTS = 15    # local Eq Bool dictionaries in the wide caller
CLI_TIMEOUT_S = 120

# Items whose verdict differs from the known answer at the time the
# benchmark was written, with the wrong observation they give. They are
# counted in verdict_mismatch and named in every report; a run is still
# correct while the observation stays exactly this. A fix makes the item
# match its known answer, which is also correct.
KNOWN_DEFECTS = {
    f"wide k=3 {cmd}": ({"exit": 0}, "the command ignores the truncated "
                                  "enumeration and exits 0, not 3")
    for cmd in ("check", "elaborate", "run", "meta")
}


@dataclass
class Item:
    label: str                  # unique within a pass
    group: str                  # rung of the scaling curve
    expected: dict
    run: Callable               # tracer or None -> (observed, elabs, steps)
    terms: int = 0              # fuzz terms the item checks


@dataclass
class Workload:
    name: str
    imports: str                # modules the workload uses, for setup_s
    nominal_pass_s: float       # about one pass on a 2-core x86-64 host
    pass_items: Callable[[int], list]
    close: Callable[[], None] = field(default=lambda: None)
    # Collect garbage before each item, so that no item pays for the
    # garbage of the one before. Off for fuzz, whose items are small, and
    # for cli, whose items run in their own processes.
    fresh_heap: bool = True
    # Items run in this process, not in children: the host's speed is
    # also measured while they run (see HostSpeed in run.py).
    in_process: bool = True


# ---------------------------------------------------------------------------
# Source programs
# ---------------------------------------------------------------------------

EQ = ("class Eq a where { eq : a -> a -> Bool };\n"
      "instance Eq Bool where { eq = \\x. \\y. True };\n")


class Names:
    """Seed-chosen identifiers and literal; the work does not depend on them."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.fn, self.caller = rng.sample(["f", "g", "h", "k", "p", "q"], 2)
        self.var = rng.choice(["n", "m", "z", "v", "w", "u"])
        self.lit = rng.choice(["True", "False"])


def flex_source(n: int, nm: Names) -> str:
    v = nm.var
    lets = "".join(
        f"let {nm.fn}{i} : Eq Bool => Bool -> Bool = "
        f"\\{v}. (eq :: Bool -> Bool -> Bool) {v} {v} in\n" for i in range(n))
    main = nm.lit
    for i in range(n):
        main = f"({nm.fn}{i} :: Bool -> Bool) ({main})"
    return EQ + lets + main


def wide_source(k: int, nm: Names) -> str:
    g, h, v = nm.fn, nm.caller, nm.var
    need = ", ".join(["Eq Bool"] * k)
    local = ", ".join(["Eq Bool"] * LOCAL_DICTS)
    return (EQ
            + f"let {g} : ({need}) => Bool -> Bool = \\{v}. {v} in\n"
            + f"let {h} : ({local}) => Bool -> Bool = "
              f"\\{v}. ({g} :: Bool -> Bool) {v} in\n"
            + f"({h} :: Bool -> Bool) {nm.lit}")


def tower_source(d: int, nm: Names) -> str:
    t = "Bool"
    for _ in range(d):
        t = f"({t} -> {t})"
    return (EQ + f"instance Eq a => Eq (a -> a) where "
                 f"{{ eq = \\{nm.var}. \\{nm.fn}. True }};\n"
            + f"(eq :: {t} -> {t} -> Bool)")


def wide_count(k: int, cap: int = CAP) -> tuple[int, bool]:
    return min(16 ** k, cap), 16 ** k > cap


# ---------------------------------------------------------------------------
# In-process items
# ---------------------------------------------------------------------------

def coherence(program):
    rep = harness.check_coherence(program)
    return ({"elabs_fd": rep.elab_count_fd, "elabs_tgt": rep.elab_count_tgt,
             "truncated": rep.truncated, "coherent": rep.all_kleene_equal,
             "witness": rep.witness_value},
            rep.elab_count_fd + rep.elab_count_tgt)


def decompose(program):
    rep = harness.check_decomposition(program)
    return ({"elabs_fd": rep.count_composed, "elabs_tgt": rep.count_direct,
             "truncated": rep.truncated, "equal": rep.equal},
            rep.count_composed + rep.count_direct)


def typecheck(program):
    r = source_typer.typecheck_program(program)
    return ({"elabs_fd": len(r.fd_elabs), "elabs_tgt": len(r.tgt_elabs),
             "truncated_fd": r.fd_truncated, "truncated_tgt": r.tgt_truncated},
            len(r.fd_elabs) + len(r.tgt_elabs))


def rung_item(label: str, rungs: list) -> Item:
    """One item made of ladder rungs: parse each, then run its checks.

    `rungs` holds (name, source, checks) triples and `checks` holds
    (check, expected observation) pairs; the item's verdict covers all of
    them. The time of each rung is returned under "_rung_s" for the
    scaling curve.
    """
    expected = {f"{name}.{check.__name__}.{k}": v
                for name, _, checks in rungs
                for check, exp in checks for k, v in exp.items()}

    def run(_tracer):
        observed, elabs, rung_s = {}, 0, {}
        for name, src, checks in rungs:
            start = time.perf_counter()
            program = parser.parse_program(src)
            for check, _ in checks:
                obs, n = check(program)
                observed.update({f"{name}.{check.__name__}.{k}": v
                                 for k, v in obs.items()})
                elabs += n
            rung_s[name] = time.perf_counter() - start
        observed["_rung_s"] = rung_s
        return observed, elabs, 0
    return Item(label, label, expected, run)


def flex_workload(seed: int, root: Path) -> Workload:
    nm = Names(seed)
    items = []
    for n in range(1, 6):
        count = 2 ** n
        items.append(rung_item(f"flex n={n}", [(f"n={n}", flex_source(n, nm), [
            (coherence, {"elabs_fd": count, "elabs_tgt": count,
                         "truncated": False, "coherent": True,
                         "witness": "True"}),
            (decompose, {"elabs_fd": count, "elabs_tgt": count,
                         "truncated": False, "equal": True})])]))
    return Workload("flex", "import dictelab.parser, dictelab.harness", 1.5,
                    lambda p: items)


def wide_workload(seed: int, root: Path) -> Workload:
    nm = Names(seed)
    items = []
    for k in (1, 2, 3, 5):
        count, truncated = wide_count(k)
        checks = [(typecheck, {"elabs_fd": count, "elabs_tgt": count,
                               "truncated_fd": truncated,
                               "truncated_tgt": truncated})]
        # At k=5 only typing runs: the cap bounds the output, not the work
        # or the memory, and decomposition would take seconds more.
        if k < 5:
            checks.append((decompose, {"elabs_fd": count, "elabs_tgt": count,
                                       "truncated": truncated,
                                       "equal": True}))
        items.append(rung_item(f"wide k={k}",
                               [(f"k={k}", wide_source(k, nm), checks)]))
    # The tower is one item: its rungs take milliseconds each, too short
    # to time one by one on a shared host.
    items.append(rung_item("tower d=1..8", [
        (f"tower d={d}", tower_source(d, nm), [
            (typecheck, {"elabs_fd": 1, "elabs_tgt": 1,
                         "truncated_fd": False, "truncated_tgt": False}),
            (decompose, {"elabs_fd": 1, "elabs_tgt": 1, "truncated": False,
                         "equal": True})])
        for d in range(1, 9)]))
    return Workload("wide", "import dictelab.parser, dictelab.harness", 4.5,
                    lambda p: items)


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

FUZZ_ENVS = {"P2": 2, "P4": 1}      # corpus program -> elaborations
FUZZ_SIZES = (4, 6)
FUZZ_TERMS = 100                    # per environment and size, per pass
FUZZ_BATCH = 20                     # terms per item


def fuzz_workload(seed: int, root: Path) -> Workload:
    texts = {name: (root / "tests" / "corpus" / f"{name}.src").read_text()
             for name in FUZZ_ENVS}

    def pass_items(p: int) -> list:
        envs = {}
        items = []
        for name, count in FUZZ_ENVS.items():
            def run_env(_tracer, name=name):
                r = source_typer.typecheck_program(
                    parser.parse_program(texts[name]))
                envs[name] = (r.fd_elabs[0][0], r.fd_class_env)
                return ({"elabs_fd": len(r.fd_elabs),
                         "elabs_tgt": len(r.tgt_elabs)},
                        len(r.fd_elabs) + len(r.tgt_elabs), 0)
            items.append(Item(f"{name} environment", f"environment {name}",
                              {"elabs_fd": count, "elabs_tgt": count},
                              run_env))
        # A fixed range of generator seeds: pass p checks the terms of
        # seeds p*FUZZ_TERMS and up, whatever the benchmark seed, so two
        # runs check the same terms and every pass checks new ones.
        base = p * FUZZ_TERMS
        batches = []
        for name in FUZZ_ENVS:
            for size in FUZZ_SIZES:
                for first in range(base, base + FUZZ_TERMS, FUZZ_BATCH):
                    seeds = range(first, first + FUZZ_BATCH)

                    def run_batch(_tracer, name=name, size=size, seeds=seeds):
                        sigma, tc = envs[name]
                        steps = 0
                        unsafe = []
                        for gseed in seeds:
                            e = harness.generate_fd_term(gseed, size, sigma, tc)
                            m = harness.check_metatheory(sigma, tc, e)
                            steps += m.steps_checked
                            if not (m.preservation_ok and m.progress_ok
                                    and m.fuel_ok):
                                unsafe.append(gseed)
                        return ({"meta_ok": not unsafe, "unsafe_seeds": unsafe},
                                0, steps)
                    batches.append(Item(
                        f"{name}/{size} terms {first}-{first + FUZZ_BATCH - 1}",
                        f"terms {name} size={size}", {"meta_ok": True},
                        run_batch, FUZZ_BATCH))
        random.Random(seed * 1_000_003 + p).shuffle(batches)
        return items + batches

    return Workload("fuzz", "import dictelab.parser, dictelab.harness", 1.45,
                    pass_items, fresh_heap=False)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m dictelab.cli` process per item
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    """Environment of child interpreters: dictelab from src/, fixed hashing.

    Children may write bytecode, as an installed package has it, so that a
    run measures importing rather than compiling.
    """
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


CORPUS = {"P1": 1, "P2": 2, "P3": 2, "P4": 1}
WIDE_CLI_K = 3
# A small cap: the rung is here for truncation and exit code 3, and its
# checks should cost about what the corpus checks cost, so that cli stays
# a measure of start-up, import, parsing and output. With a cap of 16,
# `coherence` on it took 1.9 s and its runs alone made the cli tail.
WIDE_CLI_CAP = 2


def _cli_observe(cmd: str, code: int, stdout: str) -> dict:
    obs = {"exit": code}
    if cmd == "check":
        for line in stdout.splitlines():
            if line.startswith("main : "):
                obs["type"] = line[len("main : "):]
            elif line.endswith(" elaboration(s)"):
                obs["elabs_fd"] = int(line.split(", ")[-1].split()[0])
        return obs
    try:
        doc = json.loads(stdout)
    except ValueError:
        return obs
    obs["elaborations"] = len(doc["elaborations"])
    obs["results"] = doc["results"]
    obs["coherent"] = doc["coherent"]
    obs["truncated"] = doc["truncated"]
    return obs


def cli_item(root: Path, env: dict, label: str, group: str, args: list,
             expected: dict, elabs: int) -> Item:
    cmd = args[0]

    def run(tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "dictelab.cli", *args]
        else:
            argv = [sys.executable, str(Path(__file__).with_name(
                "traced_cli.py")), *args]
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr
        if "Traceback (most recent call last)" in stderr:
            raise RuntimeError(f"uncaught exception in {' '.join(args)}:\n"
                               + stderr[-2000:])
        if tracer is not None:
            _, _, data = stderr.rpartition(MARK)
            trace = json.loads(data)
            if trace["leftover"]:
                raise RuntimeError(f"wrappers left: {trace['leftover']}")
            tracer.absorb(trace["self_s"], trace["counts"])
        return _cli_observe(cmd, proc.returncode, proc.stdout), elabs, 0
    return Item(label, group, expected, run)


def _cli_expected(cmd: str, count: int, exit_code: int, truncated: bool,
                  value: str = "True"):
    values = [value] * count
    return {
        "check": {"exit": exit_code, "type": "Bool", "elabs_fd": count},
        "elaborate": {"exit": exit_code, "elaborations": count,
                      "truncated": truncated},
        "run": {"exit": exit_code, "results": [value],
                "truncated": truncated},
        "coherence": {"exit": exit_code, "elaborations": count,
                      "results": values, "coherent": True,
                      "truncated": truncated},
        "decompose": {"exit": exit_code, "elaborations": count,
                      "coherent": True, "truncated": truncated},
        "meta": {"exit": exit_code, "coherent": True},
    }[cmd]


CLI_FLAGS = {"check": [], "elaborate": ["--all", "--format", "json"],
             "run": ["--format", "json"], "coherence": ["--format", "json"],
             "decompose": ["--format", "json"], "meta": ["--format", "json"]}


def cli_workload(seed: int, root: Path) -> Workload:
    work = tempfile.TemporaryDirectory(prefix=".work-",
                                       dir=Path(__file__).parent)
    wide_path = Path(work.name) / f"wide{WIDE_CLI_K}.src"
    names = Names(seed)
    wide_path.write_text(wide_source(WIDE_CLI_K, names))
    wide_rel = str(wide_path.relative_to(root))
    env = child_env(root)
    corpus = "tests/corpus"
    contexts = ["--contexts-dir", f"{corpus}/contexts"]
    items = []

    def add(label, group, args, expected, elabs):
        items.append(cli_item(root, env, label, group, args, expected, elabs))

    for name, count in CORPUS.items():
        path = f"{corpus}/{name}.src"
        for cmd, flags in CLI_FLAGS.items():
            add(f"{name} {cmd}", cmd, [cmd, path, *flags],
                _cli_expected(cmd, count, 0, False), 2 * count)
        add(f"{name} coherence+contexts", "coherence+contexts",
            ["coherence", path, *contexts, "--format", "json"],
            _cli_expected("coherence", count, 0, False), 2 * count)
    add("P1 meta+generate", "meta+generate",
        ["meta", f"{corpus}/P1.src", "--generate", "20", "--seed", str(seed),
         "--format", "json"], {"exit": 0, "coherent": True}, 2)
    for name in ("N1", "N2"):
        for cmd, flags in CLI_FLAGS.items():
            add(f"{name} {cmd}", f"rejected {cmd}",
                [cmd, f"{corpus}/{name}.src", *flags], {"exit": 1}, 0)
    count, truncated = wide_count(WIDE_CLI_K, WIDE_CLI_CAP)
    for cmd, flags in CLI_FLAGS.items():
        add(f"wide k={WIDE_CLI_K} {cmd}", f"truncated {cmd}",
            [cmd, wide_rel, "--max-elaborations", str(WIDE_CLI_CAP), *flags],
            _cli_expected(cmd, count, 3, truncated, names.lit), 2 * count)
    random.Random(seed).shuffle(items)
    return Workload("cli", "import dictelab.cli", 7.0, lambda p: items,
                    work.cleanup, fresh_heap=False, in_process=False)


WORKLOADS = {"flex": flex_workload, "wide": wide_workload,
             "fuzz": fuzz_workload, "cli": cli_workload}


def verdict(item: Item, observed: dict) -> str:
    """'ok', 'known' (a listed defect, unchanged) or 'mismatch'."""
    got = {k: observed.get(k) for k in item.expected}
    if got == item.expected:
        return "ok"
    defect = KNOWN_DEFECTS.get(item.label)
    if defect is not None and got == {**item.expected, **defect[0]}:
        return "known"
    return "mismatch"
