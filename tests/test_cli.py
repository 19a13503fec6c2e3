from __future__ import annotations

import contextlib
import gc
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dictelab import (cli, fd_core, harness, source_typer, syntax as S,
                      target_core)
from dictelab.cli import EXIT_PIPE, main
from dictelab.fd_core import fd_step, is_fd_value
from dictelab.parser import parse_context, parse_program

from conftest import (CORPUS, EQ, NEGATIVE, POSITIVE, count_calls,
                      count_rules, corpus_result, squares, wide_source)
from test_harness import FOUR_SIGMAS, NEVER, P3_LOCAL
from reference_eval import is_tgt_value, run_small_step, tgt_step


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("TCC_COLOR", "0")


def src(name: str) -> str:
    return str(CORPUS / f"{name}.src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parent.parent / "src"


def process_env(*path, **variables):
    """The environment of a `python -m dictelab.cli` process: dictelab from
    src/, after the directories in path; no styling; UTF-8 output."""
    env = {**os.environ, "TCC_COLOR": "0", "PYTHONIOENCODING": "utf-8",
           **variables}
    env["PYTHONPATH"] = os.pathsep.join(
        map(str, [*path, SRC, *filter(None, [env.get("PYTHONPATH")])]))
    return env


def run_process(*argv, env=None):
    return subprocess.run([sys.executable, "-m", "dictelab.cli", *argv],
                          env=env or process_env(), capture_output=True,
                          timeout=120)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE)
def test_check_accepts_positive_corpus(capsys, name):
    code, out, err = run_cli(capsys, "check", src(name))
    assert code == 0 and err == ""
    assert out.startswith("main : Bool\n")


@pytest.mark.parametrize("name", NEGATIVE)
def test_check_rejects_negative_corpus(capsys, name):
    code, out, err = run_cli(capsys, "check", src(name))
    assert code == 1
    assert out == "" and err.startswith("error:")


def test_check_counts(capsys):
    _, out, _ = run_cli(capsys, "check", src("P2"))
    assert "3 class(es), 3 instance(s), 2 elaboration(s)" in out


def test_missing_file_is_an_error(capsys):
    code, _, err = run_cli(capsys, "check", "no-such-file.src")
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("case", ["missing", "directory", "context"])
def test_unreadable_input_names_the_path_once(capsys, tmp_path, case):
    # error: <path>: <strerror>, the wording of the other input errors.
    program, extra = src("P2"), []
    if case == "missing":
        program = path = str(tmp_path / "no-such-file.src")
        reason = "No such file or directory"
    elif case == "directory":
        program = path = str(tmp_path)
        reason = "Is a directory"
    else:
        (tmp_path / "x.ctx").mkdir()
        path, reason = str(tmp_path / "x.ctx"), "Is a directory"
        extra = ["--contexts-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, "coherence", program, *extra)
    assert code == 1 and out == ""
    assert err == f"error: {path}: {reason}\n"


def test_parse_error_reports_position(capsys):
    bad = CORPUS / ".." / "bad_tmp.src"
    bad.write_text("class where")
    try:
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert "1:" in err  # line:column in the message
    finally:
        bad.unlink()


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_program_that_is_not_utf8_is_an_error(capsys, tmp_path):
    bad = tmp_path / "f.src"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte " \
                  f"at byte 0)\n"


def test_context_file_that_is_not_utf8_is_an_error(capsys, tmp_path):
    bad = tmp_path / "bad.ctx"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "coherence", src("P2"),
                             "--contexts-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert len(err.splitlines()) == 1


def test_coherence_reads_utf8_whatever_the_locale(tmp_path):
    # A comment in the program and in each context is not ASCII; the
    # locale's encoding is.
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    for path in [corpus / "P1.src", *(corpus / "contexts").glob("*.ctx")]:
        path.write_text("-- δ λ\n" + path.read_text(encoding="utf-8"),
                        encoding="utf-8")
    proc = run_process("coherence", str(corpus / "P1.src"),
                       "--contexts-dir", str(corpus / "contexts"),
                       env=process_env(LC_ALL="C", PYTHONUTF8="0"))
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# elaborate / run
# ---------------------------------------------------------------------------

def test_elaborate_prints_first_by_default(capsys):
    _, out, _ = run_cli(capsys, "elaborate", src("P2"))
    assert len(out.strip().splitlines()) == 1


def test_elaborate_all_prints_each(capsys):
    _, out, _ = run_cli(capsys, "elaborate", src("P2"), "--all")
    assert len(out.strip().splitlines()) == 2


def test_elaborate_fd_stage_mentions_dictionaries(capsys):
    _, out, _ = run_cli(capsys, "elaborate", src("P1"), "--stage", "fd")
    assert "D1_Eq" in out


def test_elaborate_modes_agree_on_corpus(capsys):
    _, direct, _ = run_cli(capsys, "elaborate", src("P1"), "--mode", "direct")
    _, composed, _ = run_cli(capsys, "elaborate", src("P1"),
                             "--mode", "composed")
    assert direct == composed  # alpha-equal and printed deterministically


@pytest.mark.parametrize("name", POSITIVE)
def test_run_evaluates_to_true(capsys, name):
    for extra in ([], ["--stage", "fd"], ["--mode", "direct"]):
        code, out, _ = run_cli(capsys, "run", src(name), *extra)
        assert code == 0 and out == "True\n"


def test_run_fuel_limit(capsys):
    code, _, err = run_cli(capsys, "run", src("P2"), "--fuel", "1")
    assert code == 3 and "fuel" in err


def _reference_steps(stage: list[str]) -> int:
    """Small-step count of the elaboration `run` evaluates on P2."""
    r = corpus_result("P2")
    if stage == ["--stage", "fd"]:
        sigma, ie = r.fd_elabs[0]
        n, value, _ = run_small_step(lambda e: fd_step(sigma, e),
                                     is_fd_value, ie, 100_000)
    else:
        if stage == ["--mode", "direct"]:
            te = r.tgt_elabs[0]
        else:
            te = next(squares(r)).composed
        n, value, _ = run_small_step(tgt_step, is_tgt_value, te, 100_000)
    assert S.pretty(value) == "True"
    return n


@pytest.mark.parametrize("stage", [["--stage", "fd"], ["--mode", "direct"],
                                   ["--mode", "composed"]])
def test_run_fuel_counts_reduction_steps(capsys, stage):
    n = _reference_steps(stage)
    code, out, err = run_cli(capsys, "run", src("P2"), *stage,
                             "--fuel", str(n))
    assert (code, out, err) == (0, "True\n", "")
    code, out, err = run_cli(capsys, "run", src("P2"), *stage,
                             "--fuel", str(n - 1))
    assert (code, out, err) == (3, "", "error: fuel exhausted\n")


# ---------------------------------------------------------------------------
# Resource limits
# ---------------------------------------------------------------------------

COMMANDS = ["check", "elaborate", "run", "coherence", "decompose", "meta"]


@pytest.mark.parametrize(
    "cmd,fmt",
    [pytest.param(c, "text", id=c) for c in ["check", "elaborate", "run",
                                             "meta"]]
    + [pytest.param(c, "json", id=f"{c}-json") for c in COMMANDS])
def test_truncated_enumeration_prints_then_exits_3(capsys, cmd, fmt):
    code, out, _ = run_cli(capsys, cmd, src("P3"), "--max-elaborations", "1",
                           "--format", fmt)
    _, full, _ = run_cli(capsys, cmd, src("P3"), "--format", fmt)
    assert code == 3
    if fmt == "json":
        assert json.loads(out)["truncated"] is True
    elif cmd == "check":
        assert out == "main : Bool\n1 class(es), 1 instance(s), " \
                      "1 elaboration(s)\n"
    else:  # the kept elaborations print as without the cap
        assert out and full.startswith(out)


def _arrows(n: int) -> str:
    """Eq at a type of n arrows, resolved through the instance for arrows
    once per arrow."""
    t = "Bool -> " * n + "Bool"
    return ("class Eq a where { eq : a -> a -> Bool };\n"
            "instance Eq Bool where { eq = \\x. \\y. True };\n"
            "instance (Eq a, Eq b) => Eq (a -> b) where "
            "{ eq = \\f. \\g. True };\n"
            f"(eq :: ({t}) -> ({t}) -> Bool)\n")


@pytest.mark.parametrize("n,code", [(40, 0), (250, 0), (400, 3)])
def test_resolution_goes_as_deep_as_the_type(capsys, tmp_path, n, code):
    # No depth caps resolution: 40 arrows resolve, and so do 250, whose
    # derivation is 250 dictionaries deep, which the count of its trees
    # walks on a stack of its own; 400 are too deep to process at all,
    # and say so without a traceback.
    path = tmp_path / "arrows.src"
    path.write_text(_arrows(n))
    got, out, err = run_cli(capsys, "check", str(path))
    assert got == code
    if code:
        assert (out, err) == ("", "error: input nested too deeply to "
                                  "process\n")
    else:
        assert out.endswith("1 class(es), 2 instance(s), "
                            "1 elaboration(s)\n") and err == ""


def test_every_cap_default_is_max_elaborations():
    # One default cap: the typer's entry points, the checks that type a
    # program and every command read source_typer.MAX_ELABORATIONS.
    for fn in (source_typer.typecheck_program,
               source_typer.typecheck_declarations,
               harness.check_coherence, harness.check_decomposition):
        cap = inspect.signature(fn).parameters["cap"]
        assert cap.default == source_typer.MAX_ELABORATIONS, fn.__name__
    for cmd in COMMANDS:
        ns = cli._build_parser().parse_args([cmd, src("P1")])
        assert ns.max_elaborations == source_typer.MAX_ELABORATIONS, cmd


def test_the_cap_can_end_between_method_environments(capsys, tmp_path):
    # Two method environments of two elaborations each: a cap of 2 reads
    # the first environment's and none of the second's.
    path = tmp_path / "two.src"
    path.write_text(
        EQ + "class C a where { c : a -> Bool };\n"
        "instance Eq Bool => C Bool where "
        "{ c = \\x. (eq :: Bool -> Bool -> Bool) x x };\n"
        "let f : Eq Bool => Bool -> Bool = "
        "\\n. (eq :: Bool -> Bool -> Bool) n n in\n"
        "(f :: Bool -> Bool) ((c :: Bool -> Bool) True)")
    r = source_typer.typecheck_program(parse_program(path.read_text()), 2)
    assert (r.count, len(r.decls.variants), len(r.variants_read)) == (2, 2, 1)
    code, out, _ = run_cli(capsys, "check", str(path),
                           "--max-elaborations", "2")
    assert code == 3 and out.endswith(", 2 elaboration(s)\n")


def test_every_fuel_default_is_fuel():
    # One default fuel: the checks that evaluate and every command that
    # takes --fuel read fd_core.FUEL.
    for fn in (harness.coherence_report, harness.check_coherence,
               harness.check_metatheory):
        fuel = inspect.signature(fn).parameters["fuel"]
        assert fuel.default == fd_core.FUEL, fn.__name__
    for cmd in ("run", "coherence", "meta"):
        ns = cli._build_parser().parse_args([cmd, src("P1")])
        assert ns.fuel == fd_core.FUEL, cmd


@pytest.mark.parametrize("flag,value", [("--max-elaborations", "0"),
                                        ("--max-elaborations", "-1"),
                                        ("--fuel", "-1"),
                                        ("--fuel", "x")])
def test_out_of_range_limits_are_rejected(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", src("P1"), flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "elaborate", "decompose"])
def test_fuel_is_an_option_only_of_the_commands_that_evaluate(capsys,
                                                              command):
    with pytest.raises(SystemExit) as exc:
        main([command, src("P1"), "--fuel", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fuel 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "x"])
def test_out_of_range_generate_count_is_rejected(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["meta", src("P1"), "--generate", value])
    assert exc.value.code == 2
    assert "--generate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# coherence / decompose / meta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", POSITIVE)
def test_coherence_exit_ok(capsys, name):
    code, out, _ = run_cli(capsys, "coherence", src(name))
    assert code == 0
    assert "all results Kleene-equal: True" in out


@pytest.mark.parametrize("name", POSITIVE)
def test_coherence_out_of_fuel_is_a_resource_error(capsys, name):
    assert run_cli(capsys, "coherence", src(name), "--fuel", "0") == \
        (3, "", "error: fuel exhausted\n")


def test_coherence_with_contexts(capsys):
    code, out, _ = run_cli(capsys, "coherence", src("P2"),
                           "--contexts-dir", str(CORPUS / "contexts"))
    assert code == 0 and "Kleene-equal" in out


@pytest.mark.parametrize("where", ["contxts", "P2.src"])
def test_coherence_rejects_contexts_path_that_is_no_directory(capsys, where):
    # A misspelt path, or a file, must not probe zero contexts and pass.
    code, out, err = run_cli(capsys, "coherence", src("P2"),
                             "--contexts-dir", str(CORPUS / where))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "not a directory" in err


def test_context_parse_error_names_the_context_file(capsys, tmp_path):
    bad = tmp_path / "bad.ctx"
    bad.write_text("let f : Bool = [] in (")
    code, out, err = run_cli(capsys, "coherence", src("P2"),
                             "--contexts-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}:1:")


def test_program_parse_error_names_the_program_file(capsys, tmp_path):
    bad = tmp_path / "bad.src"
    bad.write_text("(True")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}:1:")


def test_ill_typed_context_names_the_context_file(capsys, tmp_path):
    bad = tmp_path / "bad.ctx"
    bad.write_text("let w : Bool -> Bool = [] in True")
    code, out, err = run_cli(capsys, "coherence", src("P2"),
                             "--contexts-dir", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: {bad}: inferred Bool but expected Bool -> Bool\n"


def test_ill_typed_program_keeps_its_unprefixed_message(capsys, tmp_path):
    bad = tmp_path / "bad.src"
    bad.write_text("(True :: Bool -> Bool)")
    code, out, err = run_cli(capsys, "coherence", str(bad),
                             "--contexts-dir", str(CORPUS / "contexts"))
    assert code == 1 and out == ""
    assert err == "error: inferred Bool but expected Bool -> Bool\n"


# ---------------------------------------------------------------------------
# One analysis per invocation: counted calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("copies", [None, 0, 1, 5])
def test_coherence_types_each_instance_once_whatever_the_contexts(
        capsys, monkeypatch, tmp_path, copies):
    # None: the corpus contexts; else that many copies of one context.
    contexts = CORPUS / "contexts"
    if copies is not None:
        for i in range(copies):
            (tmp_path / f"c{i}.ctx").write_text(
                (contexts / "apply_id.ctx").read_text())
        contexts = tmp_path
    calls = count_calls(monkeypatch, source_typer, "typecheck_instance")
    code, out, _ = run_cli(capsys, "coherence", src("P2"),
                           "--contexts-dir", str(contexts))
    assert code == 0 and "Kleene-equal" in out
    assert len(calls) == len(corpus_result("P2").P) == 3


@pytest.mark.parametrize("argv", [
    ["check"], ["meta"], ["meta", "--generate", "3"],
    ["elaborate", "--stage", "fd", "--all"], ["run", "--stage", "fd"],
])
def test_commands_that_read_no_target_translate_nothing_directly(
        capsys, monkeypatch, argv):
    calls = count_rules(monkeypatch,
                        source_typer.DirectTranslator._TRANSLATIONS)
    validated = count_calls(monkeypatch, harness, "fd_env_wf")
    code, _, _ = run_cli(capsys, argv[0], src("P2"), *argv[1:])
    assert code == 0 and calls == [] and validated == []


@pytest.mark.parametrize("argv", [
    ["run"], ["run", "--mode", "direct"], ["elaborate"],
    ["elaborate", "--mode", "direct"],
])
def test_commands_that_read_the_first_square_validate_only_its_sigma(
        capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "four.src"
    path.write_text(FOUR_SIGMAS)
    validated = count_calls(monkeypatch, harness, "fd_env_wf")
    code, _, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
    r = source_typer.typecheck_program(parse_program(FOUR_SIGMAS))
    assert code == 0 and len(r.decls.variants) == 4
    assert [sigma for sigma, _ in validated] == [r.decls.variants[0]]


@pytest.mark.parametrize("argv,read", [
    (["elaborate", "--all"], "composed"),
    (["elaborate", "--all", "--mode", "direct"], "direct"),
    (["elaborate"], "composed"), (["run", "--mode", "direct"], "direct"),
])
def test_commands_that_print_one_corner_unpack_that_forest_alone(
        capsys, monkeypatch, tmp_path, argv, read):
    # Neither the derivations nor the other corner's forest is unpacked,
    # and the first elaboration is unpacked alone.
    path = tmp_path / "four.src"
    path.write_text(FOUR_SIGMAS)
    unpacked = count_calls(monkeypatch, S, "unpack")
    typecheck = cli.typecheck_program

    def typed(*args):       # the unpacking after typing is the reader's
        out = typecheck(*args)
        unpacked.clear()
        return out
    monkeypatch.setattr(cli, "typecheck_program", typed)
    code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 0 and out
    unpacked = list(unpacked)
    r = source_typer.typecheck_program(parse_program(FOUR_SIGMAS))
    envs = list(harness._environments(r))
    forests = [env[4 if read == "direct" else 5] for env in envs]
    if "--all" in argv:
        assert unpacked == [(f, env[3]) for f, env in zip(forests, envs)]
    else:
        assert unpacked == [(forests[0], 1)]


def _nested_applications(depth: int) -> str:
    e = "True"
    for _ in range(depth):
        e = f"((\\x. x :: Bool -> Bool) {e})"
    return e


DEEP_INPUTS = {
    "parentheses": "(" * 3000 + "True" + ")" * 3000,
    "applications": _nested_applications(600),
}


@pytest.mark.parametrize("cmd", ["check", "coherence"])
@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
def test_deep_input_is_a_resource_error(capsys, tmp_path, cmd, shape):
    path = tmp_path / "deep.src"
    path.write_text(DEEP_INPUTS[shape])
    code, _, err = run_cli(capsys, cmd, str(path))
    assert code == 3
    assert err.startswith("error:") and "nested too deeply" in err
    assert len(err.splitlines()) == 1


def _too_deep(*_):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("raised", [False, True])
def test_input_too_deep_for_the_interpreter_exits_3_in_process(
        capsys, monkeypatch, tmp_path, raised):
    # main's own handler, past the interpreter's recursion limit: one line,
    # no traceback. Python drops a line tracer (tests/line_trace.py) when
    # the limit is reached in the tracer's own call, so deep input runs the
    # handler unseen by one; raised at once, the handler is seen.
    path = tmp_path / "deep.src"
    if raised:
        path.write_text("True")
        monkeypatch.setattr(cli, "typecheck_program", _too_deep)
    else:
        path.write_text("(" * 1000 + "True" + ")" * 1000)
    assert run_cli(capsys, "check", str(path)) == (
        3, "", "error: input nested too deeply to process\n")


def test_a_deeply_parenthesized_type_gets_its_verdict(capsys, tmp_path):
    # Types parse in a loop, so 3000 parentheses around a type are no
    # deeper than one: the annotation is Bool -> Bool -> Bool.
    path = tmp_path / "deep.src"
    path.write_text("class Eq a where { eq : a -> a -> Bool };\n"
                    "instance Eq Bool where { eq = \\x. \\y. True };\n"
                    "(eq :: " + "(" * 3000 + "Bool" + ")" * 3000
                    + " -> Bool -> Bool)\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert out == ("main : Bool -> Bool -> Bool\n"
                   "1 class(es), 1 instance(s), 1 elaboration(s)\n")


FLAT_HEADS = {
    "unannotated": "head 'g' not inferable - annotate its use",
    "annotated": "applied a non-function of type Bool",
}


def _flat_application(head: str, n: int) -> str:
    g = "(g :: Bool -> Bool)" if head == "annotated" else "g"
    return "let g : Bool -> Bool = \\x. x in " + g + " True" * n


@pytest.mark.parametrize("head", sorted(FLAT_HEADS))
def test_a_flat_application_gets_its_verdict_at_any_length(capsys, tmp_path,
                                                           head):
    # The parser reads an application spine in a loop, and the typer
    # walks it in a loop: a long one is no deeper than a short one.
    path = tmp_path / "flat.src"
    outcomes = []
    for n in (300, 1500):
        path.write_text(_flat_application(head, n))
        outcomes.append(run_cli(capsys, "check", str(path)))
    assert outcomes[0] == outcomes[1] == (
        1, "", f"error: {FLAT_HEADS[head]}\n")


def test_a_flat_application_after_a_class_gets_its_verdict(capsys,
                                                          tmp_path):
    # A method name is typed where it is used: no pass over the main
    # expression resolves names first, so a class does not make a long
    # spine deeper.
    path = tmp_path / "flat.src"
    outcomes = []
    for n in (300, 1500):
        path.write_text("class Eq a where { eq : a -> a -> Bool };\n"
                        + _flat_application("annotated", n))
        outcomes.append(run_cli(capsys, "check", str(path)))
    assert outcomes[0] == outcomes[1] == (
        1, "", f"error: {FLAT_HEADS['annotated']}\n")


def test_a_flat_context_counts_its_hole():
    ctx = parse_context(_flat_application("annotated", 2000)
                        .replace("True", "[]", 1))
    assert S.count_holes(ctx) == 1
    # plug rebuilds the spine in a loop, argument by argument.
    plugged, args = S.plug(ctx, S.SFalse()).body, []
    while type(plugged) is S.SApp:
        args.append(plugged.arg)
        plugged = plugged.fun
    assert type(plugged) is S.SAnn
    assert args[::-1] == [S.SFalse()] + [S.STrue()] * 1999


def test_a_flat_context_gets_its_verdict_at_any_length(capsys, tmp_path):
    # plug rebuilds an application spine in a loop.
    outcomes = []
    for n in (300, 1500):
        contexts = tmp_path / str(n)
        contexts.mkdir()
        (contexts / "flat.ctx").write_text(
            "(\\x. x :: Bool -> Bool) []" + " True" * n)
        code, out, err = run_cli(capsys, "coherence", src("P2"),
                                 "--contexts-dir", str(contexts))
        outcomes.append((code, out, err.replace(str(contexts), "D")))
    assert outcomes[0] == outcomes[1] == (
        1, "", f"error: D/flat.ctx: {FLAT_HEADS['annotated']}\n")


@pytest.mark.parametrize("stage", ["fd", "target"])
def test_deep_input_within_the_limits_is_printed(capsys, tmp_path, stage):
    path = tmp_path / "deep.src"
    path.write_text(_nested_applications(250))
    code, out, err = run_cli(capsys, "elaborate", str(path), "--stage", stage)
    assert code == 0 and err == ""
    assert out.count("(\\x : Bool. x) ") == 250


@pytest.mark.parametrize("cmd", ["check", "elaborate", "run", "coherence",
                                 "decompose", "meta"])
def test_every_subcommand_takes_deep_input_within_the_limits(capsys, tmp_path,
                                                             cmd):
    # Every walk of a nesting level costs the same frames in each
    # subcommand; one frame more per level in any walk would fail here.
    path = tmp_path / "deep.src"
    path.write_text(_nested_applications(280))
    code, _, err = run_cli(capsys, cmd, str(path))
    assert code == 0 and err == ""


@pytest.mark.parametrize("name", POSITIVE)
def test_decompose_exit_ok(capsys, name):
    code, out, _ = run_cli(capsys, "decompose", src(name))
    assert code == 0
    assert "equal modulo alpha: true" in out


def test_meta_reports_every_elaboration(capsys):
    code, out, _ = run_cli(capsys, "meta", src("P2"))
    assert code == 0
    assert out.count("-- elaboration") == 2
    assert "preservation: ok" in out


def test_meta_with_generated_terms(capsys):
    code, out, _ = run_cli(capsys, "meta", src("P1"), "--generate", "5",
                           "--seed", "7")
    assert code == 0
    assert out.count("-- elaboration") == 6


def test_meta_exits_2_on_an_ill_typed_start_term(capsys, monkeypatch):
    # A violation before the first step spends no fuel: exit 2, not 3.
    monkeypatch.setattr(harness, "generate_fd_term",
                        lambda *_: S.IApp(S.ITrue(), S.ITrue()))
    code, out, _ = run_cli(capsys, "meta", src("P1"), "--generate", "1")
    assert code == 2
    assert "preservation: FAILED" in out
    assert "EXHAUSTED" not in out


def _stuck_step(sigma, e):
    raise fd_core.FdTypeError(fd_core.STUCK, "stuck")


def _retyping_step(sigma, e):
    return S.ILam("x", S.IBool(), S.IVar("x"))


def _ill_typed_step(sigma, e):
    return S.IApp(S.ITrue(), S.ITrue())


@pytest.mark.parametrize("step,verdicts,failing", [
    # Progress: the small step raises on a term that is not a value.
    (_stuck_step, ["preservation: ok", "progress: FAILED"], None),
    # Preservation: the term a step gives is well typed, at another type,
    # or ill typed.
    (_retyping_step, ["preservation: FAILED", "progress: ok"],
     "\\x : Bool. x"),
    (_ill_typed_step, ["preservation: FAILED", "progress: ok"],
     "True True : Mismatch: applied a non-function of type Bool"),
])
def test_meta_exits_2_on_a_failed_step(capsys, monkeypatch, step, verdicts,
                                       failing):
    monkeypatch.setattr(harness, "fd_step", step)
    code, out, err = run_cli(capsys, "meta", src("P1"))
    (_, ie), = corpus_result("P1").fd_elabs
    assert code == 2 and err == ""
    assert out.splitlines() == [
        "-- elaboration 0", "steps checked: 0", *verdicts, "fuel: ok",
        f"failing term: {failing or S.pretty(ie)}"]
    code, out, _ = run_cli(capsys, "meta", src("P1"), "--format", "json")
    assert code == 2 and json.loads(out)["coherent"] is False


def _break_composed_dictionary_variables(monkeypatch):
    """A composed translation that takes each dictionary variable to a
    record whose method is always False."""
    monkeypatch.setitem(fd_core.FdChecker._TRANSLATIONS, S.DVar,
                        lambda self, node: NEVER)


def test_coherence_exits_2_on_a_violation(capsys, monkeypatch):
    _break_composed_dictionary_variables(monkeypatch)
    code, out, err = run_cli(capsys, "coherence", src("P3"))
    assert code == 2 and err == ""
    assert out.splitlines()[3:] == [
        "truncated: false", "COHERENCE VIOLATION",
        f"  first:  fd value of {P3_LOCAL}",
        f"  differs: composed target of {P3_LOCAL}"]


def test_coherence_exits_1_when_an_intermediate_value_fails_in_the_target(
        capsys, monkeypatch):
    # A composed translation that takes True to a stuck target term: the
    # target evaluation of P1's intermediate value, True, raises, the
    # intermediate pipeline records the error as its outcome, and it is
    # the least-ranked error, which coherence raises.
    monkeypatch.setitem(fd_core.FdChecker._TRANSLATIONS, S.ITrue,
                        lambda self, node: S.TApp(S.TTrue(), S.TTrue()))
    # Typed afresh: a checker shared with earlier tests has translated
    # P1's nodes already.
    r = source_typer.typecheck_program(parse_program(
        (CORPUS / "P1.src").read_text()))
    variant, sigma, checker, n, _, _ = next(harness._environments(r))
    (outcome,) = harness._fd_outcomes(r, variant, sigma, checker, n,
                                      fd_core.FUEL)
    assert outcome.leaf.value is None
    assert str(outcome.leaf.error) == "stuck application True True"
    with pytest.raises(target_core.TgtTypeError,
                       match="^stuck application True True$"):
        harness.coherence_report(r)
    assert run_cli(capsys, "coherence", src("P1")) == \
        (1, "", "error: stuck application True True\n")


def test_decompose_exits_2_on_a_mismatch(capsys, monkeypatch):
    _break_composed_dictionary_variables(monkeypatch)
    code, out, err = run_cli(capsys, "decompose", src("P3"))
    assert code == 2 and err == ""
    lines = out.splitlines()
    assert lines[3:6] == [
        "truncated: false", "equal modulo alpha: false",
        f"  derivation: {P3_LOCAL} (method environment 0)"]
    direct, composed = lines[6:]
    assert direct.startswith("    direct:   let isz ")
    assert composed.startswith("    composed: let isz ")
    assert "False" in composed and "False" not in direct


@pytest.mark.parametrize("cmd", ["coherence", "decompose"])
def test_a_violation_is_not_coherent_in_json(capsys, monkeypatch, cmd):
    _break_composed_dictionary_variables(monkeypatch)
    code, out, _ = run_cli(capsys, cmd, src("P3"), "--format", "json")
    doc = json.loads(out)
    assert code == 2
    assert doc["coherent"] is False and doc["results"] == []


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

SCHEMA_KEYS = {"program", "type", "elaborations", "results", "coherent",
               "truncated"}


@pytest.mark.parametrize("cmd", COMMANDS)
def test_json_schema(capsys, cmd):
    code, out, _ = run_cli(capsys, cmd, src("P1"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == SCHEMA_KEYS
    assert doc["type"] == "Bool"
    assert doc["coherent"] is True
    assert doc["truncated"] is False


def test_coherence_json_results_populated(capsys):
    _, out, _ = run_cli(capsys, "coherence", src("P3"), "--format", "json")
    doc = json.loads(out)
    assert len(doc["elaborations"]) == 2
    assert doc["results"] == ["True", "True"]


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cmd", ["check", "elaborate", "coherence",
                                 "decompose", "meta"])
def test_stdout_byte_identical_across_runs(capsys, cmd):
    outs = {run_cli(capsys, cmd, src("P2"), "--format", "json")[1]
            for _ in range(3)}
    assert len(outs) == 1


# ---------------------------------------------------------------------------
# Output encoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ascii_stdout_escapes_what_it_cannot_encode(fmt):
    # Generated dictionary variables are named with a non-ASCII letter.
    proc = run_process("elaborate", src("P3"), "--stage", "fd",
                       "--format", fmt,
                       env=process_env(PYTHONIOENCODING="ascii"))
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert b"\\u03b4" in proc.stdout


# ---------------------------------------------------------------------------
# A closed standard output
# ---------------------------------------------------------------------------

class _ClosedOnWrite(io.StringIO):
    """A standard output whose reader has left (`| head`), unbuffered."""
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class _ClosedOnFlush(io.StringIO):
    """The same, found only when the buffered output is flushed."""
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stdout", [_ClosedOnWrite, _ClosedOnFlush])
@pytest.mark.parametrize("argv", [
    ["elaborate", "--all", src("P2"), "--stage", "fd"],
    ["coherence", src("P2")],
    ["meta", src("P1"), "--format", "json"],
])
def test_a_closed_stdout_exits_141_with_no_message(capsys, stdout, argv):
    with contextlib.redirect_stdout(stdout()):
        code = main(argv)
    assert code == EXIT_PIPE == 141
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_on_stdout_is_pointed_at_the_null_device():
    # Python flushes standard output once more at exit; after the closed
    # pipe, its descriptor writes to the null device, and no error follows.
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out, contextlib.redirect_stdout(out):
        assert cli.guard_stdout(print, "lost") == EXIT_PIPE
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
        print("also lost", flush=True)


class _Terminal(io.StringIO):
    """A standard output that is a terminal."""
    def isatty(self):
        return True


@pytest.mark.parametrize("color,styled", [
    (None, "\x1b[31mCOHERENCE VIOLATION\x1b[0m"),
    ("0", "COHERENCE VIOLATION"),
])
def test_a_terminal_is_styled_unless_tcc_color_is_0(monkeypatch, color,
                                                    styled):
    if color is None:
        monkeypatch.delenv("TCC_COLOR")
    monkeypatch.setattr(sys, "stdout", _Terminal())
    assert cli._style("COHERENCE VIOLATION", "31") == styled


# ---------------------------------------------------------------------------
# The process entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("program,flags,code", [
    ("P2", [], 0),
    ("N1", [], 1),
    ("wide3", ["--max-elaborations", "2"], 3),
])
def test_a_process_prints_and_exits_as_main_does(capsys, tmp_path, program,
                                                 flags, code):
    if program.startswith("wide"):
        path = tmp_path / f"{program}.src"
        path.write_text(wide_source(int(program[len("wide"):])))
        program = str(path)
    else:
        program = src(program)
    argv = ["check", program, *flags]
    proc = run_process(*argv)
    assert run_cli(capsys, *argv) == \
        (code, proc.stdout.decode(), proc.stderr.decode())
    assert proc.returncode == code


FREEZE_PROBE = """import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(),
                              file=sys.stderr))
"""


def test_a_process_freezes_what_importing_made(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(FREEZE_PROBE)
    proc = run_process("check", src("P2"), env=process_env(tmp_path))
    assert proc.returncode == 0
    word, count = proc.stderr.decode().split()
    assert word == "frozen" and int(count) > 0


def test_main_freezes_nothing(capsys):
    # Tests and the benchmark's traced runs call `main` in a process that
    # goes on: frozen objects would never be collected there.
    before = gc.get_freeze_count()
    assert run_cli(capsys, "check", src("P2"))[0] == 0
    assert gc.get_freeze_count() == before


PIPED = ["elaborate", "--all", src("P2"), "--stage", "fd"]


def _spawn_into(pipe_write, **variables):
    proc = subprocess.Popen([sys.executable, "-m", "dictelab.cli", *PIPED],
                            stdout=pipe_write, stderr=subprocess.PIPE,
                            env=process_env(**variables))
    os.close(pipe_write)
    return proc


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_pipe_closed_before_the_output_exits_141(unbuffered):
    # Buffered, the output meets the closed pipe when it is flushed, in one
    # write; unbuffered, at its first line.
    read, write = os.pipe()
    os.close(read)
    proc = _spawn_into(write, PYTHONUNBUFFERED=unbuffered)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141 and err == b""


def test_a_pipe_closed_after_the_first_line_exits_141(capsys):
    # Unbuffered, each line is written as it is printed. The pipe is filled
    # so that it has room for the first line and its newline only; once it
    # holds them, the second line cannot be written until the pipe is
    # closed, and is then written to no reader.
    fcntl = pytest.importorskip("fcntl")
    termios = pytest.importorskip("termios")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        pytest.skip("the pipe's capacity cannot be read here")
    out = run_cli(capsys, *PIPED)[1].encode()
    room = out.index(b"\n") + 1
    assert room < len(out)
    read, write = os.pipe()
    size = fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
    os.write(write, b"." * (size - room))

    def unread():
        return int.from_bytes(fcntl.ioctl(read, termios.FIONREAD, bytes(4)),
                              sys.byteorder)
    proc = _spawn_into(write, PYTHONUNBUFFERED="1")
    deadline = time.monotonic() + 120
    while unread() < size and proc.poll() is None \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert unread() == size
    os.close(read)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141 and err == b""
