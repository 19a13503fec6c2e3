"""Command-line front end.

Subcommands: check (typecheck a program), elaborate (print elaborations at
either stage), run (evaluate the first elaboration), coherence (evaluate
each translated forest of every method environment once and compare the
results of all elaborations), decompose (compare direct vs composed
target elaborations), meta (trace-check type safety, optionally fuzzing).
The three that evaluate, run, coherence and meta, take --fuel. The reports
of coherence and decompose are verdicts: each command prints its file name,
the program's type and, as JSON, the composed targets (`harness.corners`)
beside them.

Exit codes: 0 success, 1 parse/type error (an instance whose resolution
might not terminate included) or unreadable input, 2 coherence,
decomposition or type-safety violation, 3 resource limit reached (fuel,
enumeration truncation, input nested too deeply), 141 (128 + SIGPIPE)
standard output closed before all of it was written, with no message.
Setting the environment variable TCC_COLOR=0 disables styling.

`python -m dictelab.cli` and the `dictelab` script both run `entry`, which
freezes the objects importing made (`gc.freeze`) before it calls `main`:
they live until the process exits, so no collection, the one at exit
included, need walk them. `main` itself freezes nothing, since tests call
it in a process that goes on.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from pathlib import Path

from . import fd_core, harness, syntax as S, target_core
from .fd_core import FuelExhausted
from .parser import ParseError, parse_context, parse_program
from .source_typer import MAX_ELABORATIONS, SrcTypeError, typecheck_program

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_VIOLATION = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 128 + 13    # SIGPIPE: standard output was closed early


def _style(text: str, code: str) -> str:
    if os.environ.get("TCC_COLOR") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def at_least(low: int):
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


def guard_stdout(run, *args) -> int:
    """The exit code of run(*args), its output flushed; EXIT_PIPE, with no
    message, when standard output is closed before all of it is written
    (`| head`)."""
    try:
        try:
            return run(*args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes standard output once more at exit: point it at the
        # null device, so that flush meets no closed pipe either.
        try:
            fd = sys.stdout.fileno()
        except OSError:             # not a file, as under a test's capture
            return EXIT_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_PIPE


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dictelab",
        description="Typecheck, elaborate and coherence-check programs "
                    "in a small language with type classes.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, func):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("file", help="source program")
        p.add_argument("--max-elaborations", type=at_least(1),
                       default=MAX_ELABORATIONS,
                       help="cap on enumerated elaborations")
        p.add_argument("--format", choices=["text", "json"], default="text")
        return p

    p = add("check", "typecheck and report the program type", cmd_check)
    p = add("elaborate", "print elaborations", cmd_elaborate)
    p.add_argument("--stage", choices=["fd", "target"], default="target")
    p.add_argument("--mode", choices=["direct", "composed"],
                   default="composed")
    p.add_argument("--all", action="store_true",
                   help="print every elaboration, not just the first")
    p = add("run", "evaluate the first elaboration", cmd_run)
    p.add_argument("--stage", choices=["fd", "target"], default="target")
    p.add_argument("--mode", choices=["direct", "composed"],
                   default="composed")
    p = add("coherence", "evaluate all elaborations and compare results",
            cmd_coherence)
    p.add_argument("--contexts-dir",
                   help="directory of *.ctx files with one-hole contexts")
    p = add("decompose", "compare direct and composed target elaborations",
            cmd_decompose)
    p = add("meta", "trace-check type safety of every elaboration",
            cmd_meta)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for generated terms")
    p.add_argument("--generate", type=at_least(0), default=0,
                   help="additionally check this many generated terms")
    for name in ("run", "coherence", "meta"):   # the commands that evaluate
        sub.choices[name].add_argument("--fuel", type=at_least(0),
                                       default=100_000,
                                       help="evaluation step budget")
    return ap


class _InputError(Exception):
    """An input file that cannot be read, is not UTF-8 text or does not
    parse; the message names the file."""


def _parse_file(path, parse):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _InputError(f"error: {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise _InputError(f"error: {path}: not UTF-8 text ({err.reason} "
                          f"at byte {err.start})") from err
    try:
        return parse(text)
    except ParseError as err:
        raise _InputError(f"error: {path}:{err}") from err


def _elaborations(ns, result):
    """Pretty-printed elaborations at the chosen stage and mode: all of
    them with --all, else the first."""
    limit = None if ns.all else 1
    if ns.stage == "fd":
        terms = itertools.islice((ie for _, ie in result.fd_elabs), limit)
    else:
        terms = harness.corners(result, ns.mode, limit)
    return [S.pretty(t) for t in terms]


def _resource_exit(truncated: bool) -> int:
    return EXIT_RESOURCE if truncated else EXIT_OK


def _emit_json(ns, main_type, elaborations, results,
               coherent: bool, truncated: bool):
    print(json.dumps({
        "program": ns.file,
        "type": S.pretty(main_type),
        "elaborations": elaborations,
        "results": results,
        "coherent": coherent,
        "truncated": truncated,
    }, ensure_ascii=False, indent=2))


def cmd_check(ns, r) -> int:
    if ns.format == "json":
        _emit_json(ns, r.main_type, [], [], True, r.fd_truncated)
    else:
        print(f"main : {S.pretty(r.main_type)}")
        print(f"{len(r.GC)} class(es), {len(r.P)} instance(s), "
              f"{len(r.fd_elabs)} elaboration(s)")
    return _resource_exit(r.fd_truncated)


def cmd_elaborate(ns, r) -> int:
    shown = _elaborations(ns, r)
    if ns.format == "json":
        _emit_json(ns, r.main_type, shown, [], True, r.fd_truncated)
    else:
        for t in shown:
            print(t)
    return _resource_exit(r.fd_truncated)


def cmd_run(ns, r) -> int:
    if ns.stage == "fd":
        sigma, ie = r.fd_elabs[0]
        value = S.pretty(fd_core.fd_eval(sigma, ie, ns.fuel))
    else:
        te = next(harness.corners(r, ns.mode, 1))
        value = S.pretty(target_core.tgt_eval(te, ns.fuel))
    if ns.format == "json":
        _emit_json(ns, r.main_type, [], [value], True, r.fd_truncated)
    else:
        print(value)
    return _resource_exit(r.fd_truncated)


def _load_contexts(ns):
    """The (path, context) pairs of the contexts directory, if any."""
    if not getattr(ns, "contexts_dir", None):
        return []
    directory = Path(ns.contexts_dir)
    if not directory.is_dir():
        raise _InputError(f"error: {ns.contexts_dir}: not a directory")
    return [(path, _parse_file(path, parse_context))
            for path in sorted(directory.glob("*.ctx"))]


def cmd_coherence(ns, r) -> int:
    rep = harness.coherence_report(r, ns.fuel, ns.contexts)
    if ns.format == "json":
        results = [rep.witness_value] * rep.count if rep.all_kleene_equal \
            else []
        elabs = [S.pretty(te) for te in harness.corners(r, "composed")]
        _emit_json(ns, r.main_type, elabs, results, rep.all_kleene_equal,
                   rep.truncated)
    else:
        for line in harness.coherence_lines(rep, ns.file):
            print(_style(line, "31") if "VIOLATION" in line else line)
    if not rep.all_kleene_equal:
        return EXIT_VIOLATION
    return _resource_exit(rep.truncated)


def cmd_decompose(ns, r) -> int:
    rep = harness.decomposition_report(r)
    if ns.format == "json":
        elabs = [S.pretty(te) for te in harness.corners(r, "composed")]
        _emit_json(ns, r.main_type, elabs, [], rep.equal, rep.truncated)
    else:
        for line in harness.decomposition_lines(rep, ns.file):
            print(line)
    if not rep.equal:
        return EXIT_VIOLATION
    return _resource_exit(rep.truncated)


def cmd_meta(ns, r) -> int:
    reports = [harness.check_metatheory(sigma, r.fd_class_env, ie, ns.fuel)
               for sigma, ie in r.fd_elabs]
    if r.fd_elabs:
        sigma, _ = r.fd_elabs[0]
        for i in range(ns.generate):
            e = harness.generate_fd_term(ns.seed + i, 4, sigma,
                                         r.fd_class_env)
            reports.append(harness.check_metatheory(
                sigma, r.fd_class_env, e, ns.fuel))
    all_ok = all(m.preservation_ok and m.progress_ok and m.fuel_ok
                 for m in reports)
    if ns.format == "json":
        _emit_json(ns, r.main_type, [], [], all_ok, r.fd_truncated)
    else:
        for i, m in enumerate(reports):
            print(f"-- elaboration {i}")
            for line in harness.meta_lines(m):
                print(line)
    if not all_ok:
        return EXIT_RESOURCE if any(not m.fuel_ok for m in reports) \
            else EXIT_VIOLATION
    return _resource_exit(r.fd_truncated)


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        # Dictionary names are not ASCII; print them escaped, not fail.
        sys.stdout.reconfigure(errors="backslashreplace")
    ns = _build_parser().parse_args(argv)
    try:
        p = _parse_file(ns.file, parse_program)
        ns.contexts = _load_contexts(ns)    # read before the program is typed
        return guard_stdout(ns.func, ns, typecheck_program(
            p, ns.max_elaborations))
    except _InputError as err:
        print(err, file=sys.stderr)
        return EXIT_TYPE_ERROR
    except (SrcTypeError, fd_core.FdTypeError, target_core.TgtTypeError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except FuelExhausted:
        print("error: fuel exhausted", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return EXIT_RESOURCE


def entry() -> int:
    """The process entry: `main` on the command line, after the objects
    importing made are frozen out of garbage collection."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
