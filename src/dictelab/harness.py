"""Executable checks over whole programs.

Coherence: evaluate every elaboration along both pipelines and require
Kleene-equal results. Decomposition: one commuting square per derivation D
and method environment Σ, direct(D, Σ) ≡α composed(fd(D, Σ)), pair by pair.
Metatheory: walk evaluation traces re-typechecking every step, and fuzz the
intermediate typechecker/evaluator with seeded type-directed term
generation.

Contextual equivalence is probed, never decided: whole-program boolean
observations plus user-supplied finite context sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import fd_core, syntax as S, target_core
from .fd_core import FdChecker, fd_env_wf, fd_eval, fd_step, is_fd_value
from .source_typer import Limits, typecheck_program
from .syntax import (
    DCon, FdExpr, FdQ, IApp, IArrow, IBool, IDApp, IDLam, IFalse, IForall,
    ILam, ILet, IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar,
    SrcMono, SrcProgram, TermBind, TgtExpr, alpha_eq, plug, subst_type,
)


@dataclass(frozen=True)
class CoherenceReport:
    program_name: str
    elab_count_fd: int
    elab_count_tgt: int
    truncated: bool
    all_kleene_equal: bool
    witness_value: str
    main_type: SrcMono
    composed: tuple[TgtExpr, ...]   # composed target elaborations of p
    counterexample: tuple[str, str] | None = None


@dataclass(frozen=True)
class Mismatch:
    """A derivation whose two target translations differ, pretty-printed."""
    derivation: str
    variant: int        # index of its method environment among the variants
    direct: str
    composed: str


@dataclass(frozen=True)
class DecompositionReport:
    program_name: str
    equal: bool
    count_direct: int
    count_composed: int
    truncated: bool
    main_type: SrcMono
    composed: tuple[TgtExpr, ...]
    mismatches: tuple[Mismatch, ...] = ()


@dataclass(frozen=True)
class MetaReport:
    steps_checked: int
    preservation_ok: bool
    progress_ok: bool
    fuel_ok: bool
    failing_term: str | None = None


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

def composed_checkers(r, make=FdChecker):
    """Each intermediate elaboration of r as (sigma, checker, ie), with one
    checker per method environment, made by make(sigma, TC). Consecutive
    elaborations share their sigma object."""
    sigma = checker = None
    for s, ie in r.fd_elabs:
        if s is not sigma:
            sigma, checker = s, make(s, r.fd_class_env)
        yield sigma, checker, ie


def _program_results(p: SrcProgram, limits: Limits, fuel: int):
    """All observable values of p: the intermediate-pipeline values
    (elaborated into the target for comparability) interleaved with the
    composed target values, then the direct target values. Each value comes
    as (origin, elaboration, value); `_label` prints the first two. Also
    returns the composed target elaborations."""
    r = typecheck_program(p, limits)
    values = []
    composed = []
    for sigma, checker, ie in composed_checkers(r, fd_env_wf):
        _, te = checker.check_expr((), ie)
        composed.append(te)
        v_fd = fd_eval(sigma, ie, fuel)
        _, te_of_value = checker.check_expr((), v_fd)
        values.append(("fd value of", ie,
                       target_core.tgt_eval(te_of_value, fuel)))
        values.append(("composed target of", ie,
                       target_core.tgt_eval(te, fuel)))
    for te in r.tgt_elabs:
        values.append(("direct target", te, target_core.tgt_eval(te, fuel)))
    return r, values, tuple(composed), r.fd_truncated


def _label(origin: str, elaboration) -> str:
    return f"{origin} {S.pretty(elaboration)}"


def check_coherence(p: SrcProgram, limits: Limits = Limits(),
                    fuel: int = 100_000, contexts=None,
                    program_name: str = "") -> CoherenceReport:
    programs = [p]
    for ctx in contexts or ():
        programs.append(SrcProgram(p.decls, plug(ctx, p.main)))
    base_r = base_values = base_composed = None
    any_truncated = False
    for i, variant in enumerate(programs):
        r, values, composed, truncated = _program_results(variant, limits,
                                                          fuel)
        any_truncated |= truncated
        if i == 0:
            base_r, base_values, base_composed = r, values, composed
        first_origin, first_elab, first_value = values[0]
        # All-against-first suffices: equality at a shared witness value.
        for origin, elab, value in values[1:]:
            if not alpha_eq(value, first_value):
                return CoherenceReport(
                    program_name=program_name,
                    elab_count_fd=len(base_r.fd_elabs),
                    elab_count_tgt=len(base_r.tgt_elabs),
                    truncated=any_truncated,
                    all_kleene_equal=False,
                    witness_value=S.pretty(first_value),
                    main_type=base_r.main_type,
                    composed=base_composed,
                    counterexample=(_label(first_origin, first_elab),
                                    _label(origin, elab)))
    return CoherenceReport(
        program_name=program_name,
        elab_count_fd=len(base_r.fd_elabs),
        elab_count_tgt=len(base_r.tgt_elabs),
        truncated=any_truncated,
        all_kleene_equal=True,
        witness_value=S.pretty(base_values[0][2]),
        main_type=base_r.main_type,
        composed=base_composed)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def check_decomposition(p: SrcProgram, limits: Limits = Limits(),
                        program_name: str = "") -> DecompositionReport:
    r = typecheck_program(p, limits)
    composed = []
    mismatches = []
    variant, sigma = -1, None
    for (s, checker, ie), direct in zip(composed_checkers(r), r.tgt_elabs):
        if s is not sigma:
            variant, sigma = variant + 1, s
        te = checker.check_expr((), ie)[1]
        composed.append(te)
        if not alpha_eq(direct, te):
            mismatches.append(Mismatch(S.pretty(ie), variant,
                                       S.pretty(direct), S.pretty(te)))
    return DecompositionReport(
        program_name=program_name,
        equal=not mismatches,
        count_direct=len(r.tgt_elabs),
        count_composed=len(composed),
        truncated=r.fd_truncated,
        main_type=r.main_type,
        composed=tuple(composed),
        mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# Metatheory: trace walking
# ---------------------------------------------------------------------------

def check_metatheory(sigma, TC, e: FdExpr, fuel: int = 100_000) -> MetaReport:
    checker = FdChecker(sigma, TC)
    try:
        ty0, _ = checker.check_expr((), e)
    except fd_core.FdTypeError as err:
        return MetaReport(0, False, False, False,
                          f"{S.pretty(e)} : {err}")
    steps = 0
    current = e
    while not is_fd_value(current):
        if steps >= fuel:
            return MetaReport(steps, True, True, False, S.pretty(current))
        try:
            nxt = fd_step(sigma, current)
        except fd_core.FdTypeError:
            return MetaReport(steps, True, False, True, S.pretty(current))
        if nxt is None:
            return MetaReport(steps, True, False, True, S.pretty(current))
        checker.collect()
        try:
            ty, _ = checker.check_expr((), nxt)
        except fd_core.FdTypeError as err:
            return MetaReport(steps, False, True, True,
                              f"{S.pretty(nxt)} : {err}")
        if not alpha_eq(ty, ty0):
            return MetaReport(steps, False, True, True, S.pretty(nxt))
        current = nxt
        steps += 1
    return MetaReport(steps, True, True, True, None)


# ---------------------------------------------------------------------------
# Type-directed term generation
# ---------------------------------------------------------------------------

def closed_dicts(sigma, TC, max_rounds: int = 3):
    """Closed dictionary values derivable from the method environment.

    Polymorphic instance binders are instantiated at Bool; contexts are
    resolved against dictionaries found in earlier rounds.
    """
    found: list[tuple[FdQ, DCon]] = []
    for _ in range(max_rounds):
        new = []
        for entry in sigma:
            sc = entry.scheme
            type_args = tuple(IBool() for _ in sc.binders)
            inst = dict(zip(sc.binders, type_args))
            args = []
            ok = True
            for q in sc.context:
                want = subst_type(q, inst)
                for have_q, have_d in found:
                    if alpha_eq(have_q, want):
                        args.append(have_d)
                        break
                else:
                    ok = False
                    break
            if not ok:
                continue
            head = subst_type(sc.head, inst)
            if any(alpha_eq(head, q) for q, _ in found + new):
                continue
            new.append((head, DCon(entry.con, type_args, tuple(args))))
        if not new:
            break
        found.extend(new)
    return found


def generate_fd_term(seed: int, size_bound: int, sigma, TC) -> FdExpr:
    """A closed well-typed term, deterministic per seed."""
    rng = random.Random(seed)
    dicts = closed_dicts(sigma, TC)
    # The method call of each closed dictionary, with its type.
    calls = []
    for q, d in dicts:
        entry = fd_core.lookup_class_by_name(TC, q.cls)
        calls.append((IMethod(d, entry.method),
                      subst_type(entry.method_type, {entry.var: q.arg})))

    def gen_type(depth: int):
        if depth <= 0:
            return IBool()
        match rng.randrange(4):
            case 0:
                return IBool()
            case 1:
                return IArrow(gen_type(depth - 1), gen_type(depth - 1))
            case 2:
                a = f"g{rng.randrange(3)}"
                return IForall(a, IArrow(ITyVar(a), gen_type(depth - 1)))
            case _:
                if dicts:
                    q, _ = rng.choice(dicts)
                    return IQArrow(q, gen_type(depth - 1))
                return IBool()

    fresh = [0]

    def fresh_name(prefix: str) -> str:
        fresh[0] += 1
        return f"{prefix}{fresh[0]}"

    def gen(env, ty, size) -> FdExpr:
        atoms = []
        for bind in env:
            if isinstance(bind, TermBind) and alpha_eq(bind.ty, ty):
                atoms.append(IVar(bind.name))
        if isinstance(ty, IBool):
            atoms.append(ITrue())
            atoms.append(IFalse())
        for call, call_ty in calls:
            if alpha_eq(call_ty, ty):
                atoms.append(call)
        intro = None
        match ty:
            case IArrow(l, r):
                x = fresh_name("x")
                intro = lambda s: ILam(x, l, gen(env + (TermBind(x, l),), r, s))
            case IForall(a, body):
                intro = lambda s: ITyLam(a, gen(env, body, s))
            case IQArrow(q, r):
                dv = fresh_name("dd")
                intro = lambda s: IDLam(
                    dv, q, gen(env + (S.DictBind(dv, q),), r, s))
        if size <= 0:
            if intro is not None:
                return intro(0)
            if atoms:
                return rng.choice(atoms)
            # Unreachable for the types gen_type produces, but stay total.
            return ITrue()
        options = []
        if intro is not None:
            options.append(lambda: intro(size - 1))
        if atoms:
            options.append(lambda: rng.choice(atoms))

        def elim_app():
            t1 = gen_type(1)
            f = gen(env, IArrow(t1, ty), size - 1)
            a = gen(env, t1, size - 1)
            return IApp(f, a)

        def elim_tyapp():
            a = fresh_name("b")
            f = gen(env, IForall(a, ty), size - 1)
            return ITyApp(f, gen_type(1))

        def elim_let():
            t1 = gen_type(1)
            x = fresh_name("v")
            bound = gen(env, t1, size - 1)
            body = gen(env + (TermBind(x, t1),), ty, size - 1)
            return ILet(x, t1, bound, body)

        options.append(elim_app)
        options.append(elim_let)
        options.append(elim_tyapp)
        if dicts:
            def elim_dapp():
                q, d = rng.choice(dicts)
                f = gen(env, IQArrow(q, ty), size - 1)
                return IDApp(f, d)
            options.append(elim_dapp)
        return rng.choice(options)()

    return gen((), gen_type(2), size_bound)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def coherence_lines(rep: CoherenceReport) -> list[str]:
    lines = [
        f"program: {rep.program_name}" if rep.program_name else "program: <stdin>",
        f"elaborations (intermediate): {rep.elab_count_fd}",
        f"elaborations (direct target): {rep.elab_count_tgt}",
        f"truncated: {str(rep.truncated).lower()}",
    ]
    if rep.all_kleene_equal:
        lines.append(f"all results Kleene-equal: {rep.witness_value}")
    else:
        lines.append("COHERENCE VIOLATION")
        lines.append(f"  first:  {rep.counterexample[0]}")
        lines.append(f"  differs: {rep.counterexample[1]}")
    return lines


def decomposition_lines(rep: DecompositionReport) -> list[str]:
    lines = [
        f"program: {rep.program_name}" if rep.program_name else "program: <stdin>",
        f"direct elaborations: {rep.count_direct}",
        f"composed elaborations: {rep.count_composed}",
        f"truncated: {str(rep.truncated).lower()}",
        f"equal modulo alpha: {str(rep.equal).lower()}",
    ]
    for m in rep.mismatches:
        lines.append(f"  derivation: {m.derivation} "
                     f"(method environment {m.variant})")
        lines.append(f"    direct:   {m.direct}")
        lines.append(f"    composed: {m.composed}")
    return lines


def meta_lines(rep: MetaReport) -> list[str]:
    lines = [
        f"steps checked: {rep.steps_checked}",
        f"preservation: {'ok' if rep.preservation_ok else 'FAILED'}",
        f"progress: {'ok' if rep.progress_ok else 'FAILED'}",
        f"fuel: {'ok' if rep.fuel_ok else 'EXHAUSTED'}",
    ]
    if rep.failing_term is not None:
        lines.append(f"failing term: {rep.failing_term}")
    return lines
