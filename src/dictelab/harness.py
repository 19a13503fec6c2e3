"""Executable checks over whole programs.

`squares` yields one commuting square per derivation D and method
environment Σ, direct(D, Σ) and composed(fd(D, Σ)); every check reads
both translations from it, and a command that prints one corner reads
that corner alone (`corners`). Both translations are
homomorphisms over derivations, so each Σ translates the program's packed
forest of derivations once per side, and the squares unpack the two
translated forests beside the derivations. That is the only path: no
derivation is translated alone, and a forest that fails to type or
translate raises, even where the failing alternative is used only by
derivations past the cap, which no square reads. The composed side
types the forest (`FdChecker.check_expr`, the typing judgment alone),
then translates it (`FdChecker.translate`, a structural walk over the typed
forest); coherence does the same for each intermediate value. Each Σ's
direct translator and `fd_env_wf`-validated checker are built once and
kept by Σ itself (`source_typer.MethodEnv`), which both reports and every
coherence context share: the reports take a typed program.
Coherence: evaluate every elaboration along both pipelines and require
Kleene-equal results. Decomposition: direct ≡α composed for every square.
Equal translated forests unpack to equal squares, so decomposition
compares the two forests of each Σ; only when they differ does it compare
square by square, to name the derivations whose squares differ. Counts
are read off the forests, never by enumeration: a typed program's
elaborations and the composed targets of a decomposition report are
built at the first read of one (see `syntax.Unpacked`), so a report read
for its verdict and counts unpacks no tree.
Metatheory: walk evaluation traces re-typing every step, by typing alone,
and fuzz the intermediate typechecker/evaluator with seeded type-directed
term generation. A stream of terms over one Σ shares that Σ's state: the
generator's closed dictionaries, and the per-Σ memos of one base checker
(see `FdChecker`): the implementations checked, the type of each closed
dictionary, which the stream's terms type once per Σ, and the type of
each method projection by method and dictionary type. Like the type
translations, these are bounded by the closed dictionaries and the
types the Σ is used with. A typed Σ keeps that state for as long as it
lives; any other Σ, or a typed one given a class environment not its
own, gets new state for each call. Each term gets its own checker, whose
per-term memos (typed nodes and type instantiations) start empty; a
trace walk bounds them (`collect`).

Contextual equivalence is probed, never decided: whole-program boolean
observations plus user-supplied finite context sets.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import fd_core, syntax as S, target_core
from .fd_core import FdChecker, fd_env_wf, fd_eval, fd_step, is_fd_value
from .source_typer import (Limits, MethodEnv, SrcTypeError, typecheck_main,
                           typecheck_program)
from .syntax import (
    DCon, FdExpr, FdQ, IApp, IArrow, IBool, IDApp, IDLam, IFalse, IForall,
    ILam, ILet, IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar,
    SrcMono, SrcProgram, TermBind, TgtExpr, alpha_eq, frozen, plug,
    subst_type,
)


@frozen
class CoherenceReport:
    """Whether every elaboration read gives one value along every
    pipeline. The pipelines read the same squares, so each count is the
    number of composed targets."""
    program_name: str
    truncated: bool
    all_kleene_equal: bool
    witness_value: str
    main_type: SrcMono
    composed: tuple[TgtExpr, ...]   # composed target elaborations of p
    counterexample: tuple[str, str] | None = None

    elab_count_fd = elab_count_tgt = property(lambda self: len(self.composed))


@frozen
class Mismatch:
    """A derivation whose two target translations differ, pretty-printed."""
    derivation: str
    variant: int        # index of its method environment among the variants
    direct: str
    composed: str


@frozen
class DecompositionReport:
    """Whether the two target translations agree on every square read.
    composed holds the composed targets, as a tuple whose trees are
    unpacked from the forests at the first read of one (see
    `syntax.Unpacked`); each side's count is its length, read off the
    translated forests."""
    program_name: str
    equal: bool
    truncated: bool
    main_type: SrcMono
    composed: tuple[TgtExpr, ...]
    mismatches: tuple[Mismatch, ...] = ()

    count_direct = count_composed = property(lambda self: len(self.composed))


@frozen
class MetaReport:
    steps_checked: int
    preservation_ok: bool
    progress_ok: bool
    fuel_ok: bool
    failing_term: str | None = None


# ---------------------------------------------------------------------------
# The commuting square
# ---------------------------------------------------------------------------

Square = namedtuple("Square",
                    "variant sigma checker derivation direct composed")
Square.__doc__ = """Both target translations of one derivation under one
method environment: direct(D, Σ) and composed(fd(D, Σ)). variant indexes
sigma among them; checker is sigma's, which fd_env_wf validated."""


def _environments(r):
    """For each method environment Σ that r.fd_elabs reaches, in order:
    its index, Σ, its checker, the number n of derivations read under it,
    and the direct and composed translations of r's forest. The checker
    and the direct translator are Σ's own, built when any result typed
    against r.decls first reads Σ."""
    for variant, (sigma, n) in enumerate(r.variants_read):
        checker = sigma.derived(fd_env_wf)
        yield (variant, sigma, checker, n, sigma.direct(r.forest),
               _composed(checker, r.forest))


def _squares(r, env):
    """The squares of the first n derivations of r under the Σ of env, one
    of _environments(r): the derivations and the corners unpacked from
    the two translated forests, side by side."""
    variant, sigma, checker, n, direct, composed = env
    for ie, d, c in zip(r.elaborations[:n], S.unpack(direct, n),
                        S.unpack(composed, n)):
        yield Square(variant, sigma, checker, ie, d, c)


def _composed(checker, e) -> TgtExpr:
    """The composed translation of the closed term e: typed, then
    translated, by checker."""
    checker.check_expr((), e)
    return checker.translate(e)


def squares(r):
    """The square of each elaboration of r, lazily and in order;
    consecutive elaborations share their sigma object."""
    for env in _environments(r):
        yield from _squares(r, env)


def corners(r, mode: str, limit: int | None = None):
    """One corner of each square of r, lazily and in order: its direct or
    its composed target (mode), unpacked from that translated forest
    alone; the first limit of them if limit is given."""
    for _, _, _, n, direct, composed in _environments(r):
        if limit is not None:
            n = min(n, limit)
            limit -= n
        yield from S.unpack(direct if mode == "direct" else composed, n)
        if limit == 0:      # read no further Σ
            return


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

def _program_values(r, fuel: int):
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
        values.append(("fd value of", sq.derivation, target_core.tgt_eval(
            _composed(sq.checker, v_fd), fuel)))
        values.append(("composed target of", sq.derivation,
                       target_core.tgt_eval(sq.composed, fuel)))
    for sq in sqs:
        values.append(("direct target", sq.direct,
                       target_core.tgt_eval(sq.direct, fuel)))
    return values, tuple(sq.composed for sq in sqs)


def _first_difference(values):
    """The origins and elaborations, printed, of the first value and of the
    first value that differs from it, or None. All-against-first suffices:
    equality at a shared witness value."""
    first = values[0]
    for other in values[1:]:
        if not alpha_eq(other[2], first[2]):
            return tuple(f"{origin} {S.pretty(elab)}"
                         for origin, elab, _ in (first, other))
    return None


def coherence_report(r, fuel: int = 100_000, contexts=(),
                     program_name: str = "") -> CoherenceReport:
    """Coherence of the typed program r and of its main plugged into each
    of contexts, (name, context) pairs typed against r's declarations one
    at a time until a counterexample."""
    def programs():
        yield r
        for name, ctx in contexts:
            try:
                plugged = typecheck_main(r.decls, plug(ctx, r.main))
            except SrcTypeError as err:     # blame the context, not r.main
                raise SrcTypeError(err.kind, f"{name}: {err}") from err
            yield plugged

    truncated = False
    for i, variant in enumerate(programs()):
        truncated |= variant.fd_truncated
        values, composed = _program_values(variant, fuel)
        if i == 0:
            base_composed, witness = composed, values[0][2]
        counterexample = _first_difference(values)
        if counterexample:
            witness = values[0][2]
            break
    return CoherenceReport(
        program_name=program_name,
        truncated=truncated,
        all_kleene_equal=counterexample is None,
        witness_value=S.pretty(witness),
        main_type=r.main_type,
        composed=base_composed,
        counterexample=counterexample)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decomposition_report(r, program_name: str = "") -> DecompositionReport:
    """Decomposition of the typed program r: per Σ, the two translated
    forests, and square by square only where they differ. The counts are
    read off the forests; the composed targets are unpacked from the
    composed forests at the first read of one, by a second pass over the
    environments (`corners`), which the translators' memos let translate
    nothing."""
    count, mismatches = 0, []
    for env in _environments(r):
        _, _, _, n, direct, composed = env
        count += n
        if S.forest_eq(direct, composed):
            continue
        for sq in _squares(r, env):
            if not alpha_eq(sq.direct, sq.composed):
                mismatches.append(Mismatch(
                    S.pretty(sq.derivation), sq.variant,
                    S.pretty(sq.direct), S.pretty(sq.composed)))
    return DecompositionReport(
        program_name=program_name,
        equal=not mismatches,
        truncated=r.fd_truncated,
        main_type=r.main_type,
        composed=S.Unpacked(count, lambda: corners(r, "composed")),
        mismatches=tuple(mismatches))


def check_coherence(p: SrcProgram, limits: Limits = Limits(),
                    fuel: int = 100_000, contexts=(),
                    program_name: str = "") -> CoherenceReport:
    return coherence_report(typecheck_program(p, limits), fuel, contexts,
                            program_name)


def check_decomposition(p: SrcProgram, limits: Limits = Limits(),
                        program_name: str = "") -> DecompositionReport:
    return decomposition_report(typecheck_program(p, limits), program_name)


# ---------------------------------------------------------------------------
# Per-Σ state of a stream of terms
# ---------------------------------------------------------------------------

def _generators(sigma, TC):
    """The closed dictionaries of sigma, and the method call of each with
    its type."""
    dicts = closed_dicts(sigma)
    calls = []
    for q, d in dicts:
        entry = fd_core.lookup_class_by_name(TC, q.cls)
        calls.append((IMethod(d, entry.method),
                      subst_type(entry.method_type, {entry.var: q.arg})))
    return dicts, calls


def _stream(build, sigma, TC):
    """build(sigma, TC), part of the state the terms over sigma share:
    kept by sigma if it is a typed Σ over TC, else built for this call
    alone. The parts are a base checker (`FdChecker`), never used itself,
    whose children check the terms, and the generator's closed
    dictionaries (`_generators`)."""
    if isinstance(sigma, MethodEnv) and sigma.TC is TC:
        return sigma.derived(build)
    return build(sigma, TC)


# ---------------------------------------------------------------------------
# Metatheory: trace walking
# ---------------------------------------------------------------------------

def check_metatheory(sigma, TC, e: FdExpr, fuel: int = 100_000) -> MetaReport:
    checker = _stream(FdChecker, sigma, TC).child()
    try:
        ty0 = checker.check_expr((), e)
    except fd_core.FdTypeError as err:   # a violation before any step
        return MetaReport(0, False, False, True, f"{S.pretty(e)} : {err}")
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
            ty = checker.check_expr((), nxt)
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

def closed_dicts(sigma):
    """Closed dictionary values derivable from the method environment.

    Polymorphic instance binders are instantiated at Bool; contexts are
    resolved against dictionaries found in earlier rounds, of which there
    are at most three.
    """
    found: list[tuple[FdQ, DCon]] = []
    for _ in range(3):
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
    dicts, calls = _stream(_generators, sigma, TC)

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
