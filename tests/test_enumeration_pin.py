"""The enumeration of elaborations, pinned.

Recorded before the typer packed its alternatives into a forest, and run
unchanged against both: whatever represents the alternatives, every
program must elaborate to the same terms, in the same order, with the
same truncation flags and errors. The self-supporting instances were
re-recorded when resolution became total: they are rejected as
undecidable, where a depth cap once cut their search; every other entry
hashes as it did under the cap.
"""

from __future__ import annotations

import hashlib

from dictelab import syntax as S
from dictelab.parser import parse_program
from dictelab.source_typer import (MAX_ELABORATIONS, SrcTypeError,
                                   typecheck_program)

from conftest import (NEGATIVE, POSITIVE, corpus_text, flex_source,
                      tower_source, wide_source)

SELF_SUPPORT = ("class Eq a where { eq : a -> a -> Bool };\n"
                "instance Eq a => Eq a where { eq = \\x. \\y. True };\n")
SELF_SUPPORT_TWICE = SELF_SUPPORT.replace("Eq a =>", "(Eq a, Eq a) =>")
# A local dictionary beside the self-supporting instance.
LOCAL_EQ = ("let f : Eq Bool => Bool -> Bool = "
            "\\n. (eq :: Bool -> Bool -> Bool) n n in True")


def pinned_programs():
    """(name, source, cap) of every program the enumeration pin covers."""
    out = [(name, corpus_text(name), MAX_ELABORATIONS)
           for name in POSITIVE + NEGATIVE]
    out += [(f"flex{n}", flex_source(n), MAX_ELABORATIONS)
            for n in range(1, 9)]
    out += [(f"wide{k}@{cap}", wide_source(k), cap)
            for k in (1, 2, 3) for cap in (1, 2, 16, 256)]
    out.append(("wide5", wide_source(5), MAX_ELABORATIONS))
    out += [(f"tower{d}", tower_source(d), MAX_ELABORATIONS)
            for d in range(1, 9)]
    return out


def undecidable_programs():
    """(name, source, cap) of the self-supporting instances: unused,
    used by a let's local constraint and by main, and twice in a
    context."""
    return [
        ("self-support", SELF_SUPPORT + "True", MAX_ELABORATIONS),
        ("self-support-let", SELF_SUPPORT + LOCAL_EQ, MAX_ELABORATIONS),
        ("self-support-use",
         SELF_SUPPORT + "(eq :: Bool -> Bool -> Bool) True True",
         MAX_ELABORATIONS),
        ("self-support-twice", SELF_SUPPORT_TWICE + LOCAL_EQ,
         MAX_ELABORATIONS)]


def pin(programs):
    """The number of elaborations of programs, and the hex digest of their
    printed elaborations, their method environments, the truncation flag
    and the error kind of each rejected program."""
    h = hashlib.sha256()
    elaborations = 0
    for name, src, cap in programs:
        h.update(f"== {name}\n".encode())
        try:
            r = typecheck_program(parse_program(src), cap)
        except SrcTypeError as err:
            h.update(f"error {err.kind}\n".encode())
            continue
        sigmas = r.decls.variants
        for sigma, ie in r.fd_elabs:
            index = next(i for i, s in enumerate(sigmas) if s is sigma)
            h.update(f"{index} {S.pretty(ie)}\n".encode())
        elaborations += len(r.fd_elabs)
        h.update(f"truncated {r.fd_truncated}\n".encode())
    return elaborations, h.hexdigest()


def test_enumeration_is_pinned():
    # Recorded before the typer packed its alternatives into a forest:
    # truncated prefixes included, unpacking must reproduce the capped
    # products exactly. The entries that never relied on a depth cap hash
    # as they did under one; the self-supporting instances, whose search
    # the cap cut, are rejected as undecidable.
    assert pin(pinned_programs()) == (
        1365, "d0b5d786c42e79635ed07791489fcc66"
              "c3a910d780416bd43a1d4d5288a14a0b")
    assert pin(pinned_programs() + undecidable_programs()) == (
        1365, "1d607947c77efef3c20f4f7cee6f30a4"
              "a48756bdba5395125a65bd5702bb1987")
