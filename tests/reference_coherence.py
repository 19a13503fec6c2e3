"""Coherence by enumeration, the reference for `harness.coherence_report`.

`harness.coherence_report` evaluates each translated forest once per method
environment, and its machines fork only where evaluation inspects a
choice. `coherence_report` here is the check that replaced: every square
of the program unpacked (`conftest.squares`, over the translators the
reports use, so that a broken translator shows in both), and each tree run
through the machines alone, four runs per square. Both must give equal reports, and where this one
raises, the same error.
"""

from __future__ import annotations

from dictelab import syntax as S, target_core
from dictelab.fd_core import fd_eval
from dictelab.harness import CoherenceReport
from dictelab.source_typer import SrcTypeError, typecheck_main

from conftest import squares


def program_values(r, fuel: int):
    """All observable values of r: the intermediate-pipeline values
    (elaborated into the target for comparability) interleaved with the
    composed target values, then the direct target values. Each value comes
    as (origin, elaboration, value). Also returns the composed target
    elaborations."""
    sqs = []
    values = []
    for sq in squares(r):
        sqs.append(sq)
        v_fd = fd_eval(sq.sigma, sq.derivation, fuel)
        sq.checker.check_expr((), v_fd)
        values.append(("fd value of", sq.derivation, target_core.tgt_eval(
            sq.checker.translate(v_fd), fuel)))
        values.append(("composed target of", sq.derivation,
                       target_core.tgt_eval(sq.composed, fuel)))
    for sq in sqs:
        values.append(("direct target", sq.direct,
                       target_core.tgt_eval(sq.direct, fuel)))
    return values, tuple(sq.composed for sq in sqs)


def first_difference(values):
    """The origins and elaborations, printed, of the first value and of the
    first value that differs from it, or None. All-against-first suffices:
    equality at a shared witness value."""
    first = values[0]
    for other in values[1:]:
        if not S.alpha_eq(other[2], first[2]):
            return tuple(f"{origin} {S.pretty(elab)}"
                         for origin, elab, _ in (first, other))
    return None


def coherence_report(r, fuel: int = 100_000, contexts=()) -> CoherenceReport:
    def programs():
        yield r
        for name, ctx in contexts:
            try:
                plugged = typecheck_main(r.decls, S.plug(ctx, r.main))
            except SrcTypeError as err:
                raise SrcTypeError(err.kind, f"{name}: {err}") from err
            yield plugged

    truncated = False
    for i, variant in enumerate(programs()):
        truncated |= variant.fd_truncated
        values, composed = program_values(variant, fuel)
        if i == 0:
            base_composed, witness = composed, values[0][2]
        counterexample = first_difference(values)
        if counterexample:
            witness = values[0][2]
            break
    return CoherenceReport(
        truncated=truncated,
        all_kleene_equal=counterexample is None,
        witness_value=S.pretty(witness),
        count=len(base_composed),
        counterexample=counterexample)
