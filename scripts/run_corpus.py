#!/usr/bin/env python3
"""Sweep the corpus: coherence + decomposition report for every program.

Usage: python3 scripts/run_corpus.py [--corpus DIR] [--fuel N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dictelab.harness import (check_coherence, check_decomposition,
                              coherence_lines, decomposition_lines)
from dictelab.parser import ParseError, parse_context, parse_program
from dictelab.source_typer import SrcTypeError

DEFAULT_CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", type=Path, default=DEFAULT_CORPUS)
    ap.add_argument("--fuel", type=int, default=100_000)
    args = ap.parse_args()

    contexts = [parse_context(p.read_text())
                for p in sorted((args.corpus / "contexts").glob("*.ctx"))]
    failures = 0
    for path in sorted(args.corpus.glob("*.src")):
        print(f"== {path.name} ==")
        try:
            program = parse_program(path.read_text())
            coh = check_coherence(program, fuel=args.fuel, contexts=contexts,
                                  program_name=path.stem)
        except (ParseError, SrcTypeError) as err:
            print(f"rejected: {err}")
            print()
            continue
        for line in coherence_lines(coh):
            print(line)
        dec = check_decomposition(program, program_name=path.stem)
        for line in decomposition_lines(dec):
            print(line)
        if not coh.all_kleene_equal or not dec.equal:
            failures += 1
        print()
    if failures:
        print(f"{failures} program(s) violated coherence or decomposition")
        return 1
    print("all accepted programs coherent; pipelines agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
