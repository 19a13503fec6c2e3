"""The enumeration of elaborations, pinned.

Recorded before the typer packed its alternatives into a forest, and run
unchanged against both: whatever represents the alternatives, every
program must elaborate to the same terms, in the same order, with the
same truncation flags and errors.
"""

from __future__ import annotations

import hashlib

from dictelab import syntax as S
from dictelab.parser import parse_program
from dictelab.source_typer import Limits, SrcTypeError, typecheck_program

from conftest import (NEGATIVE, POSITIVE, corpus_text, flex_source,
                      tower_source, wide_source)

SELF_SUPPORT = ("class Eq a where { eq : a -> a -> Bool };\n"
                "instance Eq a => Eq a where { eq = \\x. \\y. True };\n")
SELF_SUPPORT_TWICE = SELF_SUPPORT.replace("Eq a =>", "(Eq a, Eq a) =>")
# A local dictionary and the self-supporting instance resolve Eq Bool in
# as many ways as the depth cap allows.
LOCAL_EQ = ("let f : Eq Bool => Bool -> Bool = "
            "\\n. (eq :: Bool -> Bool -> Bool) n n in True")
SUPERCLASS_AT_DEPTH = (
    "class Base a where { base : a -> Bool };\n"
    "class Base a => Sub a where { sub : a -> Bool };\n"
    "instance Base Bool where { base = \\x. True };\n"
    "instance Base a => Base (a -> a) where { base = \\f. True };\n"
    "instance Sub (Bool -> Bool) where { sub = \\f. True };\n"
    "True")


def pinned_programs():
    """(name, source, limits) of every program the enumeration pin covers."""
    out = [(name, corpus_text(name), Limits()) for name in POSITIVE + NEGATIVE]
    out += [(f"flex{n}", flex_source(n), Limits()) for n in range(1, 9)]
    out += [(f"wide{k}@{cap}", wide_source(k), Limits(max_elaborations=cap))
            for k in (1, 2, 3) for cap in (1, 2, 16, 256)]
    out.append(("wide5", wide_source(5), Limits()))
    out += [(f"tower{d}", tower_source(d), Limits()) for d in range(1, 9)]
    # The depth-capped programs of test_source_typer.py, and the
    # self-supporting instances resolving a local constraint to the cap.
    out.append(("self-support@8", SELF_SUPPORT + "True", Limits(max_depth=8)))
    for depth in (8, 32):
        out.append((f"self-support-let@{depth}", SELF_SUPPORT + LOCAL_EQ,
                     Limits(max_depth=depth)))
    out.append(("self-support-use@8",
                SELF_SUPPORT + "(eq :: Bool -> Bool -> Bool) True True",
                Limits(max_depth=8)))
    out.append(("self-support-twice@8", SELF_SUPPORT_TWICE + LOCAL_EQ,
                 Limits(max_depth=8)))
    out.append(("P4@1", corpus_text("P4"), Limits(max_depth=1)))
    out.append(("superclass@1", SUPERCLASS_AT_DEPTH, Limits(max_depth=1)))
    return out


def test_enumeration_is_pinned():
    # The printed elaborations, their method environments, the truncation
    # flag and the error kind of each rejected program, recorded before the
    # typer packed its alternatives into a forest: truncated prefixes
    # included, unpacking must reproduce the capped products exactly.
    h = hashlib.sha256()
    elaborations = 0
    for name, src, limits in pinned_programs():
        h.update(f"== {name}\n".encode())
        try:
            r = typecheck_program(parse_program(src), limits)
        except SrcTypeError as err:
            h.update(f"error {err.kind}\n".encode())
            continue
        sigmas = r.decls.variants
        for sigma, ie in r.fd_elabs:
            index = next(i for i, s in enumerate(sigmas) if s is sigma)
            h.update(f"{index} {S.pretty(ie)}\n".encode())
        elaborations += len(r.fd_elabs)
        h.update(f"truncated {r.fd_truncated}\n".encode())
    assert elaborations == 1662
    assert h.hexdigest() == ("83a4740e51791030888b37bc4ec7a063"
                             "6aa8d485d441efb4eab72072c268e548")
