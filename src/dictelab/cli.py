"""Command-line front end.

Subcommands: check (typecheck a program), elaborate (print elaborations at
either stage), run (evaluate the first elaboration), coherence (enumerate
and compare all elaborations), decompose (compare direct vs composed
target elaborations), meta (trace-check type safety, optionally fuzzing).

Exit codes: 0 success, 1 parse/type error or unreadable input, 2 coherence
or decomposition violation, 3 resource limit reached (fuel, enumeration
truncation, input nested too deeply, or a constraint left unresolved only
because a cap cut its resolution).
Setting the environment variable TCC_COLOR=0 disables styling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import fd_core, harness, syntax as S, target_core
from .fd_core import FuelExhausted
from .parser import ParseError, parse_context, parse_program
from .source_typer import Limits, SrcTypeError, typecheck_program

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3


@dataclass
class CliConfig:
    command: str
    input_path: str
    stage: str = "target"           # fd | target
    mode: str = "composed"          # direct | composed
    all: bool = False
    max_depth: int = 32
    max_elaborations: int = 256
    fuel: int = 100_000
    format: str = "text"            # text | json
    contexts_dir: str | None = None
    seed: int = 0
    generate: int = 0

    @property
    def limits(self) -> Limits:
        return Limits(self.max_depth, self.max_elaborations)


def _style(text: str, code: str) -> str:
    if os.environ.get("TCC_COLOR") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dictelab",
        description="Typecheck, elaborate and coherence-check programs "
                    "in a small language with type classes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("file", help="source program")
        p.add_argument("--max-depth", type=_at_least(1), default=32,
                       help="constraint resolution depth limit")
        p.add_argument("--max-elaborations", type=_at_least(1), default=256,
                       help="cap on enumerated elaborations")
        p.add_argument("--fuel", type=_at_least(0), default=100_000,
                       help="evaluation step budget")
        p.add_argument("--format", choices=["text", "json"], default="text")
        return p

    p = add("check", "typecheck and report the program type")
    p = add("elaborate", "print elaborations")
    p.add_argument("--stage", choices=["fd", "target"], default="target")
    p.add_argument("--mode", choices=["direct", "composed"],
                   default="composed")
    p.add_argument("--all", action="store_true",
                   help="print every elaboration, not just the first")
    p = add("run", "evaluate the first elaboration")
    p.add_argument("--stage", choices=["fd", "target"], default="target")
    p.add_argument("--mode", choices=["direct", "composed"],
                   default="composed")
    p = add("coherence", "evaluate all elaborations and compare results")
    p.add_argument("--contexts-dir",
                   help="directory of *.ctx files with one-hole contexts")
    p = add("decompose", "compare direct and composed target elaborations")
    p = add("meta", "trace-check type safety of every elaboration")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for generated terms")
    p.add_argument("--generate", type=int, default=0,
                   help="additionally check this many generated terms")
    return ap


def parse_args(argv) -> CliConfig:
    ns = _build_parser().parse_args(argv)
    return CliConfig(
        command=ns.command, input_path=ns.file,
        stage=getattr(ns, "stage", "target"),
        mode=getattr(ns, "mode", "composed"),
        all=getattr(ns, "all", False),
        max_depth=ns.max_depth, max_elaborations=ns.max_elaborations,
        fuel=ns.fuel, format=ns.format,
        contexts_dir=getattr(ns, "contexts_dir", None),
        seed=getattr(ns, "seed", 0),
        generate=getattr(ns, "generate", 0))


class _FileParseError(Exception):
    """A parse error, prefixed with the path of the file it is in."""


def _parse_file(path, parse):
    try:
        return parse(Path(path).read_text())
    except ParseError as err:
        raise _FileParseError(f"{path}:{err}") from err


def _load_program(cfg: CliConfig):
    return _parse_file(cfg.input_path, parse_program)


def _elaborations(cfg: CliConfig, result):
    """Pretty-printed elaborations at the configured stage/mode."""
    if cfg.stage == "fd":
        return [S.pretty(ie) for _, ie in result.fd_elabs]
    if cfg.mode == "direct":
        return [S.pretty(te) for te in result.tgt_elabs]
    return [S.pretty(checker.check_expr((), ie)[1])
            for _, checker, ie in harness.composed_checkers(result)]


def _resource_exit(truncated: bool) -> int:
    return EXIT_RESOURCE if truncated else EXIT_OK


def _emit_json(cfg: CliConfig, main_type, elaborations, results,
               coherent: bool, truncated: bool):
    print(json.dumps({
        "program": cfg.input_path,
        "type": S.pretty(main_type),
        "elaborations": elaborations,
        "results": results,
        "coherent": coherent,
        "truncated": truncated,
    }, ensure_ascii=False, indent=2))


def cmd_check(cfg: CliConfig) -> int:
    p = _load_program(cfg)
    r = typecheck_program(p, cfg.limits)
    classes = sum(1 for e in r.GC)
    instances = sum(1 for e in r.P)
    if cfg.format == "json":
        _emit_json(cfg, r.main_type, [], [], True, r.fd_truncated)
    else:
        print(f"main : {S.pretty(r.main_type)}")
        print(f"{classes} class(es), {instances} instance(s), "
              f"{len(r.fd_elabs)} elaboration(s)")
    return _resource_exit(r.fd_truncated)


def cmd_elaborate(cfg: CliConfig) -> int:
    p = _load_program(cfg)
    r = typecheck_program(p, cfg.limits)
    elabs = _elaborations(cfg, r)
    shown = elabs if cfg.all else elabs[:1]
    if cfg.format == "json":
        _emit_json(cfg, r.main_type, shown, [], True, r.fd_truncated)
    else:
        for t in shown:
            print(t)
    return _resource_exit(r.fd_truncated)


def cmd_run(cfg: CliConfig) -> int:
    p = _load_program(cfg)
    r = typecheck_program(p, cfg.limits)
    if cfg.stage == "fd":
        sigma, ie = r.fd_elabs[0]
        value = S.pretty(fd_core.fd_eval(sigma, ie, cfg.fuel))
    elif cfg.mode == "direct":
        value = S.pretty(target_core.tgt_eval(r.tgt_elabs[0], cfg.fuel))
    else:
        _, checker, ie = next(harness.composed_checkers(r))
        _, te = checker.check_expr((), ie)
        value = S.pretty(target_core.tgt_eval(te, cfg.fuel))
    if cfg.format == "json":
        _emit_json(cfg, r.main_type, [], [value], True, r.fd_truncated)
    else:
        print(value)
    return _resource_exit(r.fd_truncated)


def _load_contexts(cfg: CliConfig):
    if not cfg.contexts_dir:
        return None
    directory = Path(cfg.contexts_dir)
    if not directory.is_dir():
        raise NotADirectoryError(
            f"contexts directory {cfg.contexts_dir!r} is not a directory")
    ctxs = []
    for path in sorted(directory.glob("*.ctx")):
        ctxs.append(_parse_file(path, parse_context))
    return ctxs


def cmd_coherence(cfg: CliConfig) -> int:
    p = _load_program(cfg)
    rep = harness.check_coherence(
        p, cfg.limits, cfg.fuel, contexts=_load_contexts(cfg),
        program_name=cfg.input_path)
    if cfg.format == "json":
        elabs = [S.pretty(te) for te in rep.composed]
        results = [rep.witness_value] * len(elabs) if rep.all_kleene_equal \
            else []
        _emit_json(cfg, rep.main_type, elabs, results, rep.all_kleene_equal,
                   rep.truncated)
    else:
        for line in harness.coherence_lines(rep):
            print(_style(line, "31") if "VIOLATION" in line else line)
    if not rep.all_kleene_equal:
        return EXIT_VIOLATION
    return _resource_exit(rep.truncated)


def cmd_decompose(cfg: CliConfig) -> int:
    p = _load_program(cfg)
    rep = harness.check_decomposition(p, cfg.limits,
                                      program_name=cfg.input_path)
    if cfg.format == "json":
        _emit_json(cfg, rep.main_type, [S.pretty(te) for te in rep.composed],
                   [], rep.equal, rep.truncated)
    else:
        for line in harness.decomposition_lines(rep):
            print(line)
    if not rep.equal:
        return EXIT_VIOLATION
    return _resource_exit(rep.truncated)


def cmd_meta(cfg: CliConfig) -> int:
    p = _load_program(cfg)
    r = typecheck_program(p, cfg.limits)
    reports = []
    for sigma, ie in r.fd_elabs:
        reports.append(harness.check_metatheory(
            sigma, r.fd_class_env, ie, cfg.fuel))
    if r.fd_elabs:
        sigma, _ = r.fd_elabs[0]
        for i in range(cfg.generate):
            e = harness.generate_fd_term(cfg.seed + i, 4, sigma,
                                         r.fd_class_env)
            reports.append(harness.check_metatheory(
                sigma, r.fd_class_env, e, cfg.fuel))
    all_ok = all(m.preservation_ok and m.progress_ok and m.fuel_ok
                 for m in reports)
    if cfg.format == "json":
        _emit_json(cfg, r.main_type, [], [], all_ok,
                   any(not m.fuel_ok for m in reports))
    else:
        for i, m in enumerate(reports):
            print(f"-- elaboration {i}")
            for line in harness.meta_lines(m):
                print(line)
    if not all_ok:
        if any(not m.fuel_ok for m in reports):
            return EXIT_RESOURCE
        return EXIT_VIOLATION
    return _resource_exit(r.fd_truncated)


_COMMANDS = {
    "check": cmd_check,
    "elaborate": cmd_elaborate,
    "run": cmd_run,
    "coherence": cmd_coherence,
    "decompose": cmd_decompose,
    "meta": cmd_meta,
}


def main(argv=None) -> int:
    cfg = parse_args(argv)
    try:
        return _COMMANDS[cfg.command](cfg)
    except _FileParseError as err:
        print(err, file=sys.stderr)
        return EXIT_TYPE_ERROR
    except SrcTypeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE if err.kind == "resource" else EXIT_TYPE_ERROR
    except fd_core.FdTypeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except target_core.TgtTypeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except FuelExhausted:
        print("error: fuel exhausted", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
