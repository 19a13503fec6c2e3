"""Hypothesis strategies for the three languages' types and small terms."""

from __future__ import annotations

from hypothesis import strategies as st

from dictelab import syntax as S

TYVARS = ["a", "b", "c"]
TMVARS = ["x", "y", "z"]


src_mono = st.deferred(lambda: st.one_of(
    st.just(S.SBool()),
    st.sampled_from(TYVARS).map(S.STyVar),
    st.builds(S.SArrow, src_mono, src_mono),
))

fd_type = st.deferred(lambda: st.one_of(
    st.just(S.IBool()),
    st.sampled_from(TYVARS).map(S.ITyVar),
    st.builds(S.IArrow, fd_type, fd_type),
    st.builds(S.IForall, st.sampled_from(TYVARS), fd_type),
))

tgt_type = st.deferred(lambda: st.one_of(
    st.just(S.TBool()),
    st.sampled_from(TYVARS).map(S.TTyVar),
    st.builds(S.TArrow, tgt_type, tgt_type),
    st.builds(S.TForall, st.sampled_from(TYVARS), tgt_type),
    st.lists(st.tuples(st.sampled_from(["f", "g"]), tgt_type),
             max_size=2, unique_by=lambda kv: kv[0])
      .map(lambda fs: S.TRecordTy(tuple(fs))),
))

# Untyped-shape target terms: enough structure for binding-related
# properties (alpha equivalence, substitution) without a typechecking
# obligation.
tgt_term = st.deferred(lambda: st.one_of(
    st.just(S.TTrue()),
    st.just(S.TFalse()),
    st.sampled_from(TMVARS).map(S.TVar),
    st.builds(S.TLam, st.sampled_from(TMVARS), tgt_type, tgt_term),
    st.builds(S.TApp, tgt_term, tgt_term),
    st.builds(S.TTyLam, st.sampled_from(TYVARS), tgt_term),
    st.builds(S.TTyApp, tgt_term, tgt_type),
    st.builds(S.TProj, tgt_term, st.sampled_from(["f", "g"])),
))

type_mapping = st.dictionaries(st.sampled_from(TYVARS), src_mono, max_size=3)


# Monotypes of the intermediate language: the shapes instance heads take.
fd_mono = st.deferred(lambda: st.one_of(
    st.just(S.IBool()),
    st.sampled_from(TYVARS).map(S.ITyVar),
    st.builds(S.IArrow, fd_mono, fd_mono),
))

# Binding-shaped terms over small name pools, so that substitution meets
# capture and shadowing often, and a renamed binder's first primed variant
# is sometimes taken. They need not typecheck.
CLASSES = ["Eq", "Ord"]
METHODS = ["eq", "cmp"]
SRC_NAMES = ["x", "x'", "eq"]
FD_NAMES = ["x", "x'", "y"]
DVARS = ["d", "d'"]

src_constraint = st.builds(S.SrcConstraint, st.sampled_from(CLASSES),
                           src_mono)

src_scheme = st.builds(
    S.SrcScheme,
    st.lists(st.sampled_from(TYVARS), max_size=2, unique=True).map(tuple),
    st.lists(src_constraint, max_size=2).map(tuple),
    src_mono)

_src_leaves = [st.just(S.STrue()), st.just(S.SFalse()),
               st.sampled_from(SRC_NAMES).map(S.SVar)]


def _src_exprs(leaves):
    return st.recursive(
        st.one_of(leaves),
        lambda exprs: st.one_of(
            st.builds(S.SLam, st.sampled_from(SRC_NAMES), exprs),
            st.builds(S.SApp, exprs, exprs),
            st.builds(S.SLet, st.sampled_from(SRC_NAMES), src_scheme, exprs,
                      exprs),
            st.builds(S.SAnn, exprs, src_mono)),
        max_leaves=10)


src_expr = _src_exprs(
    [*_src_leaves, st.sampled_from(METHODS).map(S.SMeth)])

# What the parser yields: names are SVar, never the resolved SMeth.
parsed_src_expr = _src_exprs(_src_leaves)

fd_q = st.builds(S.FdQ, st.sampled_from(CLASSES), fd_type)

# Intermediate types with dictionary arrows, also left of an arrow.
fd_qual_type = st.deferred(lambda: st.one_of(
    fd_type,
    st.builds(S.IQArrow, fd_q, fd_qual_type),
    st.builds(S.IArrow, fd_qual_type, fd_qual_type),
    st.builds(S.IForall, st.sampled_from(TYVARS), fd_qual_type),
))

fd_constraint_scheme = st.builds(
    S.FdConstraintScheme,
    st.lists(st.sampled_from(TYVARS), max_size=2, unique=True).map(tuple),
    st.lists(fd_q, max_size=2).map(tuple),
    fd_q)

fd_dict = st.recursive(
    st.sampled_from(DVARS).map(S.DVar),
    lambda dicts: st.builds(S.DCon, st.sampled_from(["D1", "D2"]),
                            st.lists(fd_type, max_size=2).map(tuple),
                            st.lists(dicts, max_size=2).map(tuple)),
    max_leaves=4)

fd_term = st.recursive(
    st.one_of(st.just(S.ITrue()), st.just(S.IFalse()),
              st.sampled_from(FD_NAMES).map(S.IVar),
              st.builds(S.IMethod, fd_dict, st.sampled_from(METHODS))),
    lambda terms: st.one_of(
        st.builds(S.ILam, st.sampled_from(FD_NAMES), fd_qual_type, terms),
        st.builds(S.IApp, terms, terms),
        st.builds(S.IDLam, st.sampled_from(DVARS), fd_q, terms),
        st.builds(S.IDApp, terms, fd_dict),
        st.builds(S.ITyLam, st.sampled_from(TYVARS), terms),
        st.builds(S.ITyApp, terms, fd_type),
        st.builds(S.ILet, st.sampled_from(FD_NAMES), fd_qual_type, terms,
                  terms)),
    max_leaves=10)

# Target terms with lets and record literals as well.
tgt_let_term = st.deferred(lambda: st.one_of(
    tgt_term,
    st.builds(S.TLet, st.sampled_from(TMVARS), tgt_type, tgt_let_term,
              tgt_let_term),
    st.lists(st.tuples(st.sampled_from(["f", "g"]), tgt_let_term),
             max_size=2, unique_by=lambda kv: kv[0])
      .map(lambda fs: S.TRecord(tuple(fs))),
))

# Range values free in every variable sort of their language, so that a
# binder of each sort can capture them.
open_src_term = st.builds(
    lambda x, a, e: S.SAnn(S.SApp(S.SVar(x), e), S.STyVar(a)),
    st.sampled_from(SRC_NAMES), st.sampled_from(TYVARS), src_expr)

open_fd_term = st.builds(
    lambda x, d, a, e: S.IApp(
        S.ITyApp(S.IDApp(S.IVar(x), S.DVar(d)), S.ITyVar(a)), e),
    st.sampled_from(FD_NAMES), st.sampled_from(DVARS),
    st.sampled_from(TYVARS), fd_term)

open_fd_dict = st.builds(
    lambda d, a, e: S.DCon("D1", (S.ITyVar(a),), (S.DVar(d), e)),
    st.sampled_from(DVARS), st.sampled_from(TYVARS), fd_dict)

open_tgt_term = st.builds(
    lambda x, a, e: S.TApp(S.TTyApp(S.TVar(x), S.TTyVar(a)), e),
    st.sampled_from(TMVARS), st.sampled_from(TYVARS), tgt_let_term)
