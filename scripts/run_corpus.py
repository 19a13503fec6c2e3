#!/usr/bin/env python3
"""Sweep the corpus: coherence + decomposition report for every program.

Each program is typed once, and both reports read that typing; each corpus
context is typed around the main against the program's declarations.
A program that is not UTF-8, does not parse or does not type is reported
as rejected. Exit 1 when a program violates coherence or decomposition,
runs out of fuel, is nested too deeply to process or cannot be read (one
`error: <path>: ...` line on stderr; the sweep goes on), and with one
such line when the corpus is no directory, holds no `*.src` program, or
a context cannot be read, is not UTF-8 or does not parse. A standard
output closed early (`| head`) ends in exit 141 with no message.

Usage: python3 scripts/run_corpus.py [--corpus DIR] [--fuel N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dictelab.cli import at_least, guard_stdout
from dictelab.fd_core import FuelExhausted
from dictelab.harness import (coherence_lines, coherence_report,
                              decomposition_lines, decomposition_report)
from dictelab.parser import ParseError, parse_context, parse_program
from dictelab.source_typer import SrcTypeError, typecheck_program

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", type=Path, default=DEFAULT_CORPUS)
    ap.add_argument("--fuel", type=at_least(0), default=100_000)
    args = ap.parse_args()

    programs = sorted(args.corpus.glob("*.src"))
    if not programs:
        reason = "no *.src program in it" if args.corpus.is_dir() \
            else "not a directory"
        print(f"error: {args.corpus}: {reason}", file=sys.stderr)
        return 1
    contexts = []
    for path in sorted((args.corpus / "contexts").glob("*.ctx")):
        try:
            contexts.append(
                (path.name, parse_context(path.read_text(encoding="utf-8"))))
        except OSError as err:
            print(f"error: {path}: {err.strerror}", file=sys.stderr)
            return 1
        except (UnicodeDecodeError, ParseError) as err:
            print(f"error: {path}: {err}", file=sys.stderr)
            return 1
    failures = 0
    for path in programs:
        print(f"== {path.name} ==")
        try:
            r = typecheck_program(
                parse_program(path.read_text(encoding="utf-8")))
            coh = coherence_report(r, args.fuel, contexts, path.stem)
            dec = decomposition_report(r, path.stem)
            lines = [*coherence_lines(coh), *decomposition_lines(dec)]
        except OSError as err:
            print(f"error: {path}: {err.strerror}", file=sys.stderr)
            failures += 1
            print()
            continue
        except (UnicodeDecodeError, ParseError, SrcTypeError) as err:
            print(f"rejected: {err}")
            print()
            continue
        except FuelExhausted:
            print(f"fuel exhausted: coherence needs more than {args.fuel} "
                  f"steps")
            failures += 1
            print()
            continue
        except RecursionError:
            print("input nested too deeply to process")
            failures += 1
            print()
            continue
        for line in lines:
            print(line)
        if not coh.all_kleene_equal or not dec.equal:
            failures += 1
        print()
    if failures:
        print(f"{failures} program(s) violated coherence or decomposition, "
              f"ran out of fuel, were nested too deeply or could not be read")
        return 1
    print("all accepted programs coherent; pipelines agree")
    return 0


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
