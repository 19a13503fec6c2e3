"""Executable checks over whole programs.

Both translations, direct(D, Σ) and composed(fd(D, Σ)), are
homomorphisms over derivations D, so each method environment Σ
translates the program's packed forest of derivations once per side
(`DirectTranslator`, `_composed`). Coherence evaluates the two translated
forests (`fd_leaves`, `tgt_leaves`), decomposition compares them
(`forest_eq`), and a command that prints one corner translates and
unpacks that forest alone (`corners`). That is the only path: no
derivation is translated alone, and a forest that fails to type or
translate raises, even where the failing alternative is used only by
derivations past the cap, which no check reads. The composed side types
the forest (`FdChecker.check_expr`, the typing judgment alone), then
translates it (`FdChecker.translate`, a structural walk over the typed
forest); coherence does the same for each intermediate value. Each Σ's
direct translator and `fd_env_wf`-validated checker are built once, when
a command first reads that side, and kept by Σ itself
(`MethodEnv.derived`), which both reports and every coherence context
share: the reports take a typed program, which `check_coherence` and
`check_decomposition` type under a cap whose default is
`source_typer.MAX_ELABORATIONS`.
Coherence: every elaboration read gives Kleene-equal results along every
pipeline. Each Σ evaluates each translated forest once, not each tree:
the intermediate forest under Σ (each value then translated and evaluated
in the target), and the composed and the direct target forests, all
with one environment machine (`fd_core.run_machine`), read through each
language's table. It forks only where evaluation inspects a choice, and
prunes a branch whose first tree lies past the Σ's cap, so a leaf stands
for every tree that agrees with the decisions taken on its path
(`syntax.Forks`). The leaves are ranked by the index of their first
tree, as the enumeration ordered its values: per Σ, each derivation's
intermediate then composed value, then the direct values of every Σ.
The witness is the least, the counterexample the least that differs from
it, and the error raised the least-ranked one; only a counterexample
unpacks a tree, each of the two it prints.
Decomposition: direct ≡α composed for every derivation and Σ.
Equal translated forests unpack to equal trees, so decomposition
compares the two forests of each Σ; only when they differ does it unpack
the derivations and both forests side by side, to name the derivations
whose two targets differ.
Both reports are verdicts: what they rule, the count of elaborations read
(off the forests, never by enumeration) and what a violation prints. The
CLI prints the program's type and its composed targets from the typed
program itself (`corners`), so a report unpacks no tree of its own.
Metatheory: walk evaluation traces re-typing every step, by typing alone,
and fuzz the intermediate typechecker/evaluator with seeded type-directed
term generation. A stream of terms over one Σ types them with Σ's one
checker, the one the reports use (`fd_env_wf`, see `FdChecker`), and
shares the generator's state (`_Generators`): the closed dictionaries,
their method calls, indexed by type, its literals and the types it draws.
A typed Σ keeps both for as long as it lives; any other Σ, or a typed one
given a class environment not its own, is refused (`TypeError`). The
types a checker finds stay on the nodes, and the nodes the stream shares
(method calls, literals) are the Σ's own, so no node that outlives the Σ
keeps its typings.

Contextual equivalence is probed, never decided: whole-program boolean
observations plus user-supplied finite context sets.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from . import fd_core, syntax as S, target_core
from .fd_core import FUEL, fd_env_wf, fd_leaves, fd_step, is_fd_value
from .source_typer import (MAX_ELABORATIONS, DirectTranslator, MethodEnv,
                           SrcTypeError, typecheck_main, typecheck_program)
from .syntax import (
    DCon, FdExpr, FdQ, IApp, IArrow, IBool, IDApp, IDLam, IFalse, IForall,
    ILam, ILet, IMethod, IQArrow, ITrue, ITyApp, ITyLam, ITyVar, IVar,
    SrcProgram, TgtExpr, alpha_eq, frozen, plug, subst_type, with_facts,
)


@frozen
class CoherenceReport:
    """Whether every elaboration read gives one value along every
    pipeline; count is the elaborations read of the program itself."""
    truncated: bool
    all_kleene_equal: bool
    witness_value: str
    count: int
    counterexample: tuple[str, str] | None = None

    elab_count_fd = elab_count_tgt = property(lambda self: self.count)


@frozen
class Mismatch:
    """A derivation whose two target translations differ, pretty-printed."""
    derivation: str
    variant: int        # index of its method environment among the variants
    direct: str
    composed: str


@frozen
class DecompositionReport:
    """Whether the two target translations agree on every elaboration
    read; count is the elaborations read, each side's."""
    equal: bool
    truncated: bool
    count: int
    mismatches: tuple[Mismatch, ...] = ()

    count_direct = count_composed = property(lambda self: self.count)


@frozen
class MetaReport:
    steps_checked: int
    preservation_ok: bool
    progress_ok: bool
    fuel_ok: bool
    failing_term: str | None = None


# ---------------------------------------------------------------------------
# The translated forests
# ---------------------------------------------------------------------------

def _composed(checker, e) -> TgtExpr:
    """The composed translation of the closed term e: typed, then
    translated, by checker."""
    checker.check_expr((), e)
    return checker.translate(e)


def corners(r, mode: str, limit: int | None = None):
    """One target of each elaboration of r, lazily and in order: its
    direct or its composed target (mode), translated and unpacked from
    that forest alone; the first limit of them if limit is given."""
    for sigma, n in r.variants_read:
        if limit is not None:
            n = min(n, limit)
            limit -= n
        yield from S.unpack(
            sigma.derived(DirectTranslator)(r.forest) if mode == "direct"
            else _composed(sigma.derived(fd_env_wf), r.forest), n)
        if limit == 0:      # read no further Σ
            return


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

Outcome = namedtuple("Outcome", "rank origin forest leaf")
Outcome.__doc__ = """One leaf (`syntax.Leaf`) of one pipeline of a program:
the values of the trees of forest, the derivations or the direct targets
of one Σ, that agree with the leaf's decisions. rank places its first tree
where the enumeration put that tree's value: per Σ, the intermediate and
the composed value of each derivation in turn, then the direct values of
every Σ; in that order, too, the evaluations ran, so the first error
raised has the least rank. Ranks are distinct, since the leaves of one
forest have distinct first trees, so outcomes order by rank alone."""


def _raise_first(outcomes):
    """Raises the error of the least-ranked outcome that has one."""
    errors = [o for o in outcomes if o.leaf.error is not None]
    if errors:
        raise min(errors).leaf.error


def _fd_outcomes(r, variant, sigma, checker, n, fuel):
    """The intermediate pipeline under sigma: each value of the forest,
    typed and translated by checker, and evaluated in the target."""
    for leaf in fd_leaves(sigma, r.forest, fuel, n):
        if leaf.error is None:
            try:
                value = target_core.tgt_eval(_composed(checker, leaf.value),
                                             fuel)
                leaf = S.Leaf(leaf.low, leaf.decisions, value, None)
            except (fd_core.FdTypeError, target_core.TgtTypeError,
                    fd_core.FuelExhausted) as err:
                leaf = S.Leaf(leaf.low, leaf.decisions, None, err)
        yield Outcome((0, variant, leaf.low, 0), "fd value of",
                      r.forest, leaf)


def _outcomes(r, fuel: int) -> list:
    """The outcomes of every pipeline of r, in rank order. Each translated
    forest is evaluated once per Σ, over the Σ's first n trees, and the
    first error the enumeration would have raised is raised: after each
    Σ's intermediate and composed outcomes, and after each Σ's direct
    ones, the least-ranked error among them."""
    out, directs = [], []
    for variant, (sigma, n) in enumerate(r.variants_read):
        checker = sigma.derived(fd_env_wf)
        direct = sigma.derived(DirectTranslator)(r.forest)
        composed = _composed(checker, r.forest)
        found = list(_fd_outcomes(r, variant, sigma, checker, n, fuel))
        found += [Outcome((0, variant, leaf.low, 1), "composed target of",
                          r.forest, leaf)
                  for leaf in target_core.tgt_leaves(composed, fuel, n)]
        _raise_first(found)
        out += found
        directs.append((variant, n, direct))
    for variant, n, direct in directs:
        found = [Outcome((1, variant, leaf.low), "direct target", direct, leaf)
                 for leaf in target_core.tgt_leaves(direct, fuel, n)]
        _raise_first(found)
        out += found
    return sorted(out)


def _describe(outcome) -> str:
    """The origin of outcome and the first tree it stands for, printed:
    the one tree unpacked."""
    return (f"{outcome.origin} "
            f"{S.pretty(S.tree_at(outcome.forest, outcome.leaf.low))}")


def coherence_report(r, fuel: int = FUEL, contexts=()) -> CoherenceReport:
    """Coherence of the typed program r and of its main plugged into each
    of contexts, (name, context) pairs typed against r's declarations one
    at a time until a counterexample: the first outcome, in rank order,
    whose value is not alpha-equal to the first's. Only a counterexample
    unpacks a tree, each of the two it prints."""
    def programs():
        yield r
        for name, ctx in contexts:
            try:
                plugged = typecheck_main(r.decls, plug(ctx, r.main))
            except SrcTypeError as err:     # blame the context, not r.main
                raise SrcTypeError(err.kind, f"{name}: {err}") from err
            yield plugged

    truncated, counterexample = False, None
    for i, variant in enumerate(programs()):
        truncated |= variant.fd_truncated
        first, *rest = _outcomes(variant, fuel)
        if i == 0:
            witness = first
        other = next((o for o in rest
                      if not alpha_eq(o.leaf.value, first.leaf.value)), None)
        if other:
            witness, counterexample = first, (_describe(first),
                                              _describe(other))
            break
    return CoherenceReport(
        truncated=truncated,
        all_kleene_equal=counterexample is None,
        witness_value=S.pretty(witness.leaf.value),
        count=len(r.fd_elabs),
        counterexample=counterexample)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def decomposition_report(r) -> DecompositionReport:
    """Decomposition of the typed program r: per Σ, the two translated
    forests, and only where they differ, the derivations unpacked beside
    the targets of each, to name those whose targets differ."""
    count, mismatches = 0, []
    for variant, (sigma, n) in enumerate(r.variants_read):
        count += n
        direct = sigma.derived(DirectTranslator)(r.forest)
        composed = _composed(sigma.derived(fd_env_wf), r.forest)
        if S.forest_eq(direct, composed):
            continue
        for ie, d, c in zip(S.unpack(r.forest, n), S.unpack(direct, n),
                            S.unpack(composed, n)):
            if not alpha_eq(d, c):
                mismatches.append(Mismatch(S.pretty(ie), variant,
                                           S.pretty(d), S.pretty(c)))
    return DecompositionReport(
        equal=not mismatches,
        truncated=r.fd_truncated,
        count=count,
        mismatches=tuple(mismatches))


def check_coherence(p: SrcProgram, cap: int = MAX_ELABORATIONS,
                    fuel: int = FUEL, contexts=()) -> CoherenceReport:
    return coherence_report(typecheck_program(p, cap), fuel, contexts)


def check_decomposition(p: SrcProgram,
                        cap: int = MAX_ELABORATIONS) -> DecompositionReport:
    return decomposition_report(typecheck_program(p, cap))


# ---------------------------------------------------------------------------
# Per-Σ state of a stream of terms
# ---------------------------------------------------------------------------

class _Generators:
    """The generator's state over one Σ: the closed dictionaries of sigma
    (`closed_dicts`), the method call of each, indexed by its type, the
    types of depth at most 1 (`types`), and the types of the latest term
    generated (`kept`). A type without binders is alpha-equal only to
    itself, so `calls` maps each such type to its calls (without the
    index, fuzz `wall_s` +4.2% in alternating perfbench pairs); the
    calls whose types hold a binder are a list of (call, type) pairs,
    `bound_calls`, which a type with a binder scans with `alpha_eq`. Both
    keep the calls' order, and each call has its facts, as do the two
    literals at `Bool` (`literals`), so that typing keys each shared node
    by the checker's token alone from the first term on. `types` holds
    `Bool`, `Bool -> Bool`, then as tuples, from which a second draw
    picks (`_draw_type`), `∀gi. gi -> Bool` for i < 3 and `q => Bool` for
    each closed dictionary's q (or `Bool`). Keeping the types keeps them
    interned while that term is checked, whose types are mostly the same
    objects, and while the next term is generated (without `kept`, fuzz
    +8.3%); a term's generation replaces the set, so it holds one term's
    types."""

    def __init__(self, sigma, TC):
        self.dicts = closed_dicts(sigma)
        self.calls, self.bound_calls = {}, []
        for q, d in self.dicts:
            entry = fd_core.lookup_class_by_name(TC, q.cls)
            call = with_facts(IMethod(d, entry.method))
            ty = subst_type(entry.method_type, {entry.var: q.arg})
            if ty._binds:
                self.bound_calls.append((call, ty))
            else:
                self.calls.setdefault(ty, []).append(call)
        self.types = (IBool(), IArrow(IBool(), IBool()),
                      tuple([IForall(a, IArrow(ITyVar(a), IBool()))
                             for a in ("g0", "g1", "g2")]),
                      tuple([IQArrow(q, IBool()) for q, _ in self.dicts])
                      or IBool())
        self.literals = (with_facts(ITrue()), with_facts(IFalse()))
        self.kept = frozenset()


def _stream(build, sigma, TC):
    """build(sigma, TC), the part of the state the terms over sigma share
    that build makes: Σ's checker (`fd_env_wf`) or the generator's state
    (`_Generators`), kept by sigma, a typed Σ (`MethodEnv.derived`). Any
    other sigma, or a TC not sigma's own, raises `TypeError`."""
    if not isinstance(sigma, MethodEnv) or sigma.TC is not TC:
        raise TypeError("a stream of terms runs over a typed Σ and its own "
                        "class environment")
    return sigma.derived(build)


# ---------------------------------------------------------------------------
# Metatheory: trace walking
# ---------------------------------------------------------------------------

def check_metatheory(sigma, TC, e: FdExpr, fuel: int = FUEL) -> MetaReport:
    try:
        checker = _stream(fd_env_wf, sigma, TC)
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
    resolved against dictionaries found in earlier rounds, until a round
    finds none: at most one round per entry.
    """
    found: list[tuple[FdQ, DCon]] = []
    while True:
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
            return found
        found.extend(new)


# The rules of a term of type ty, in the order `generate_fd_term` draws
# among those that apply: ty's introduction form, an atom of type ty (a
# variable, a literal or a method call), then the eliminations.
_INTRO, _ATOM, _APP, _LET, _TYAPP, _DAPP = range(6)


def _below(bits, n: int) -> int:
    """A draw below n > 0 from bits, a `Random`'s `getrandbits`: the draw
    `Random._randbelow` makes, and so `choice` and `randrange`."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _draw_type(bits, types):
    """A random type of depth at most 1 from types, a Σ's table
    (`_Generators`): one draw of its entry, and one more into a tuple."""
    t = types[_below(bits, 4)]
    return t[_below(bits, len(t))] if t.__class__ is tuple else t


def generate_fd_term(seed: int, size_bound: int, sigma, TC) -> FdExpr:
    """A closed well-typed term, deterministic per seed.

    Its type is drawn from the Σ's types (`_Generators`), then each part
    of it in turn. Each node draws one rule among those that apply
    (`_INTRO` ...), every draw `_below` over the seed's random bits, and
    builds it with its facts (`syntax.with_facts`), so typing keys every
    node by what it reads from the first check on. Its atoms are the
    variables of its type in scope, by name until one is drawn, the
    literals at `Bool`, the same two nodes in every term over the Σ,
    and the method calls of its type: a type without binders meets its
    own by identity, and only one with a binder compares with
    `alpha_eq`. An arrow or a constrained type numbers its binder before
    the draw, whichever rule it takes."""
    bits = random.Random(seed).getrandbits
    state = _stream(_Generators, sigma, TC)
    dicts, calls, bound_calls = state.dicts, state.calls, state.bound_calls
    types, literals = state.types, state.literals
    kept, fresh = set(), itertools.count(1)
    elims = (_APP, _LET, _TYAPP, _DAPP) if dicts else (_APP, _LET, _TYAPP)
    # By whether the type has an introduction form, then atoms.
    rules = ((elims, (_ATOM, *elims)),
             ((_INTRO, *elims), (_INTRO, _ATOM, *elims)))

    def gen(env, ty, size) -> FdExpr:
        # env: the (name, type) pair of each term variable in scope.
        kept.add(ty)
        cls, binds = ty.__class__, ty._binds
        atoms = [x for x, t in env if t is ty or binds and alpha_eq(t, ty)]
        if cls is IBool:
            atoms += literals
        if binds:
            atoms += [call for call, t in bound_calls if alpha_eq(t, ty)]
        else:
            atoms += calls.get(ty, ())
        if cls is IArrow or cls is IQArrow:
            n = next(fresh)
        intro = cls is IArrow or cls is IQArrow or cls is IForall
        if size > 0:
            options = rules[intro][bool(atoms)]
            rule = options[_below(bits, len(options))]
            size -= 1
        else:
            rule = _INTRO if intro else _ATOM
        if rule == _INTRO:
            if cls is IArrow:
                x = f"x{n}"
                return with_facts(ILam(x, ty.left, gen(
                    env + ((x, ty.left),), ty.right, size)))
            if cls is IForall:
                return with_facts(ITyLam(ty.var, gen(env, ty.body, size)))
            return with_facts(IDLam(f"dd{n}", ty.q,
                                    gen(env, ty.result, size)))
        if rule == _ATOM:
            atom = atoms[_below(bits, len(atoms))]
            return with_facts(IVar(atom)) if atom.__class__ is str else atom
        if rule == _APP:
            t1 = _draw_type(bits, types)
            f = gen(env, IArrow(t1, ty), size)
            return with_facts(IApp(f, gen(env, t1, size)))
        if rule == _LET:
            t1 = _draw_type(bits, types)
            x, bound = f"v{next(fresh)}", gen(env, t1, size)
            return with_facts(ILet(x, t1, bound,
                                   gen(env + ((x, t1),), ty, size)))
        if rule == _TYAPP:
            f = gen(env, IForall(f"b{next(fresh)}", ty), size)
            return with_facts(ITyApp(f, _draw_type(bits, types)))
        q, d = dicts[_below(bits, len(dicts))]
        return with_facts(IDApp(gen(env, IQArrow(q, ty), size), d))

    ty = _draw_type(bits, types)        # its shape, then its parts
    if ty.__class__ is IArrow:
        ty = IArrow(_draw_type(bits, types), _draw_type(bits, types))
    elif ty.__class__ is IForall:
        ty = IForall(ty.var, IArrow(ty.body.left, _draw_type(bits, types)))
    elif ty.__class__ is IQArrow:
        ty = IQArrow(ty.q, _draw_type(bits, types))
    e = gen((), ty, size_bound)
    state.kept = kept
    # gen reaches itself through its closure: a cycle, which would keep
    # kept alive past the next term, until a garbage collection.
    del gen
    return e


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def coherence_lines(rep: CoherenceReport, name: str) -> list[str]:
    lines = [
        f"program: {name}",
        f"elaborations (intermediate): {rep.count}",
        f"elaborations (direct target): {rep.count}",
        f"truncated: {str(rep.truncated).lower()}",
    ]
    if rep.all_kleene_equal:
        lines.append(f"all results Kleene-equal: {rep.witness_value}")
    else:
        lines.append("COHERENCE VIOLATION")
        lines.append(f"  first:  {rep.counterexample[0]}")
        lines.append(f"  differs: {rep.counterexample[1]}")
    return lines


def decomposition_lines(rep: DecompositionReport, name: str) -> list[str]:
    lines = [
        f"program: {name}",
        f"direct elaborations: {rep.count}",
        f"composed elaborations: {rep.count}",
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
