#!/usr/bin/env python3
"""Fuzz type safety: trace-check generated intermediate-language terms.

Generates closed well-typed terms over a corpus program's method
environment and walks each evaluation trace, re-typechecking after every
step. A program that cannot be read, does not parse or does not type ends
in one `error: <path>: ...` line on stderr and exit 1; one nested too
deeply to process, as in the CLI, in such a line and exit 3. A standard
output closed early (`| head`) ends in exit 141 with no message.

Usage: python3 scripts/fuzz_safety.py [--count N] [--seed N] [--size N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dictelab.cli import at_least, guard_stdout
from dictelab.harness import check_metatheory, generate_fd_term
from dictelab.parser import ParseError, parse_program
from dictelab.source_typer import SrcTypeError, typecheck_program

DEFAULT_PROGRAM = (Path(__file__).resolve().parent.parent
                   / "tests" / "corpus" / "P2.src")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--program", type=Path, default=DEFAULT_PROGRAM,
                    help="source program supplying classes and instances")
    ap.add_argument("--count", type=at_least(0), default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", type=at_least(0), default=6)
    ap.add_argument("--fuel", type=at_least(0), default=100_000)
    args = ap.parse_args()

    try:
        r = typecheck_program(
            parse_program(args.program.read_text(encoding="utf-8")))
    except OSError as err:
        print(f"error: {args.program}: {err.strerror}", file=sys.stderr)
        return 1
    except (UnicodeDecodeError, ParseError, SrcTypeError) as err:
        print(f"error: {args.program}: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print(f"error: {args.program}: input nested too deeply to process",
              file=sys.stderr)
        return 3
    sigma, _ = r.fd_elabs[0]
    steps = 0
    failures = []
    for i in range(args.count):
        e = generate_fd_term(args.seed + i, args.size, sigma, r.fd_class_env)
        rep = check_metatheory(sigma, r.fd_class_env, e, args.fuel)
        steps += rep.steps_checked
        if not (rep.preservation_ok and rep.progress_ok and rep.fuel_ok):
            failures.append((args.seed + i, rep))
    print(f"{args.count} terms, {steps} trace steps checked")
    if failures:
        for seed, rep in failures:
            print(f"seed {seed}: {rep}")
        return 1
    print("no preservation, progress or fuel violations")
    return 0


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
