"""Reference printers for the differential tests of `syntax.pretty`.

These are the eleven hand-written, mutually recursive printers (one per
syntactic category of the three languages) and the `isinstance` dispatcher
that `dictelab.syntax` replaced with its notation table and one walker.
They share nothing with the code under test but the node classes, so any
difference in printed bytes shows up as a failed comparison.
"""

from __future__ import annotations

from dictelab.syntax import (
    ClassDecl, DCon, DVar, FdDict, FdExpr, FdQ, FdType, IApp, IArrow,
    IBool, IDApp, IDLam, IFalse, IForall, ILam, ILet, IMethod, IQArrow,
    ITrue, ITyApp, ITyLam, ITyVar, IVar, SAnn, SApp, SArrow, SBool, SFalse,
    SHole, SLam, SLet, SMeth, SrcConstraint, SrcExpr, SrcMono, SrcProgram,
    SrcScheme, STrue, STyVar, SVar, TApp, TArrow, TBool, TFalse, TForall,
    TgtExpr, TgtType, TLam, TLet, TProj, TRecord, TRecordTy, TTrue, TTyApp,
    TTyLam, TTyVar, TVar,
)


def _parens(s: str, need: bool) -> str:
    return f"({s})" if need else s


def pretty_src_mono(t: SrcMono, atom: bool = False) -> str:
    match t:
        case SBool():
            return "Bool"
        case STyVar(name):
            return name
        case SArrow(l, r):
            s = f"{pretty_src_mono(l, atom=True)} -> {pretty_src_mono(r)}"
            return _parens(s, atom)
    raise TypeError(t)


def pretty_src_constraint(q: SrcConstraint) -> str:
    return f"{q.cls} {pretty_src_mono(q.arg, atom=True)}"


def pretty_src_scheme(s: SrcScheme) -> str:
    parts = []
    if s.binders:
        parts.append("forall " + " ".join(s.binders) + ".")
    if s.context:
        ctx = ", ".join(pretty_src_constraint(q) for q in s.context)
        if len(s.context) > 1:
            ctx = f"({ctx})"
        parts.append(ctx + " =>")
    parts.append(pretty_src_mono(s.head))
    return " ".join(parts)


def pretty_src_expr(e: SrcExpr, prec: int = 0) -> str:
    # prec 0 = open, 1 = application operand position
    match e:
        case STrue():
            return "True"
        case SFalse():
            return "False"
        case SVar(name) | SMeth(name):
            return name
        case SHole():
            return "[]"
        case SLam(x, body):
            return _parens(f"\\{x}. {pretty_src_expr(body)}", prec > 0)
        case SLet(x, sch, bound, body):
            s = (f"let {x} : {pretty_src_scheme(sch)} = "
                 f"{pretty_src_expr(bound)} in {pretty_src_expr(body)}")
            return _parens(s, prec > 0)
        case SApp(f, a):
            s = f"{pretty_src_expr(f, 1)} {pretty_src_expr(a, 2)}"
            return _parens(s, prec > 1)
        case SAnn(inner, ty):
            return f"({pretty_src_expr(inner)} :: {pretty_src_mono(ty)})"
    raise TypeError(e)


def pretty_src_program(p: SrcProgram) -> str:
    lines = []
    for d in p.decls:
        if isinstance(d, ClassDecl):
            sup = ""
            if d.superclasses:
                items = ", ".join(f"{s} {d.var}" for s in d.superclasses)
                if len(d.superclasses) > 1:
                    items = f"({items})"
                sup = f"{items} => "
            lines.append(f"class {sup}{d.name} {d.var} where "
                         f"{{ {d.method} : {pretty_src_scheme(d.method_scheme)} }};")
        else:
            ctx = ""
            if d.context:
                items = ", ".join(pretty_src_constraint(q) for q in d.context)
                if len(d.context) > 1:
                    items = f"({items})"
                ctx = f"{items} => "
            lines.append(f"instance {ctx}{d.cls} {pretty_src_mono(d.head, atom=True)} "
                         f"where {{ {d.method} = {pretty_src_expr(d.body)} }};")
    lines.append(pretty_src_expr(p.main))
    return "\n".join(lines)


def pretty_fd_type(t: FdType, atom: bool = False) -> str:
    match t:
        case IBool():
            return "Bool"
        case ITyVar(name):
            return name
        case IArrow(l, r):
            return _parens(f"{pretty_fd_type(l, atom=True)} -> {pretty_fd_type(r)}",
                           atom)
        case IQArrow(q, r):
            return _parens(f"{pretty_fd_q(q)} -> {pretty_fd_type(r)}", atom)
        case IForall(a, body):
            return _parens(f"forall {a}. {pretty_fd_type(body)}", atom)
    raise TypeError(t)


def pretty_fd_q(q: FdQ) -> str:
    return f"[{q.cls} {pretty_fd_type(q.arg, atom=True)}]"


def pretty_fd_dict(d: FdDict) -> str:
    match d:
        case DVar(name):
            return name
        case DCon(name, tys, dicts):
            parts = [name]
            parts += [f"@{pretty_fd_type(t, atom=True)}" for t in tys]
            parts += [f"[{pretty_fd_dict(x)}]" for x in dicts]
            return " ".join(parts)
    raise TypeError(d)


def pretty_fd_expr(e: FdExpr, prec: int = 0) -> str:
    match e:
        case ITrue():
            return "True"
        case IFalse():
            return "False"
        case IVar(name):
            return name
        case ILam(x, ty, body):
            return _parens(f"\\{x} : {pretty_fd_type(ty)}. {pretty_fd_expr(body)}",
                           prec > 0)
        case IDLam(dv, q, body):
            return _parens(f"\\{dv} : {pretty_fd_q(q)}. {pretty_fd_expr(body)}",
                           prec > 0)
        case ITyLam(a, body):
            return _parens(f"/\\{a}. {pretty_fd_expr(body)}", prec > 0)
        case ILet(x, ty, bound, body):
            s = (f"let {x} : {pretty_fd_type(ty)} = {pretty_fd_expr(bound)} "
                 f"in {pretty_fd_expr(body)}")
            return _parens(s, prec > 0)
        case IApp(f, a):
            return _parens(f"{pretty_fd_expr(f, 1)} {pretty_fd_expr(a, 2)}",
                           prec > 1)
        case ITyApp(f, ty):
            return _parens(f"{pretty_fd_expr(f, 1)} @{pretty_fd_type(ty, atom=True)}",
                           prec > 1)
        case IDApp(f, d):
            return _parens(f"{pretty_fd_expr(f, 1)} [{pretty_fd_dict(d)}]",
                           prec > 1)
        case IMethod(d, m):
            return f"[{pretty_fd_dict(d)}].{m}"
    raise TypeError(e)


def pretty_tgt_type(t: TgtType, atom: bool = False) -> str:
    match t:
        case TBool():
            return "Bool"
        case TTyVar(name):
            return name
        case TArrow(l, r):
            return _parens(f"{pretty_tgt_type(l, atom=True)} -> {pretty_tgt_type(r)}",
                           atom)
        case TForall(a, body):
            return _parens(f"forall {a}. {pretty_tgt_type(body)}", atom)
        case TRecordTy(fs):
            inner = ", ".join(f"{l} : {pretty_tgt_type(ty)}" for l, ty in fs)
            return "{" + inner + "}"
    raise TypeError(t)


def pretty_tgt_expr(e: TgtExpr, prec: int = 0) -> str:
    match e:
        case TTrue():
            return "True"
        case TFalse():
            return "False"
        case TVar(name):
            return name
        case TLam(x, ty, body):
            return _parens(f"\\{x} : {pretty_tgt_type(ty)}. {pretty_tgt_expr(body)}",
                           prec > 0)
        case TTyLam(a, body):
            return _parens(f"/\\{a}. {pretty_tgt_expr(body)}", prec > 0)
        case TLet(x, ty, bound, body):
            s = (f"let {x} : {pretty_tgt_type(ty)} = {pretty_tgt_expr(bound)} "
                 f"in {pretty_tgt_expr(body)}")
            return _parens(s, prec > 0)
        case TApp(f, a):
            return _parens(f"{pretty_tgt_expr(f, 1)} {pretty_tgt_expr(a, 2)}",
                           prec > 1)
        case TTyApp(f, ty):
            return _parens(f"{pretty_tgt_expr(f, 1)} @{pretty_tgt_type(ty, atom=True)}",
                           prec > 1)
        case TRecord(fs):
            inner = ", ".join(f"{l} = {pretty_tgt_expr(x)}" for l, x in fs)
            return "{" + inner + "}"
        case TProj(inner, label):
            return f"{pretty_tgt_expr(inner, 2)}.{label}"
    raise TypeError(e)


def pretty(x) -> str:
    """Dispatching pretty printer for any AST node."""
    if isinstance(x, SrcProgram):
        return pretty_src_program(x)
    if isinstance(x, SrcMono):
        return pretty_src_mono(x)
    if isinstance(x, SrcScheme):
        return pretty_src_scheme(x)
    if isinstance(x, SrcConstraint):
        return pretty_src_constraint(x)
    if isinstance(x, SrcExpr):
        return pretty_src_expr(x)
    if isinstance(x, FdType):
        return pretty_fd_type(x)
    if isinstance(x, FdQ):
        return pretty_fd_q(x)
    if isinstance(x, FdDict):
        return pretty_fd_dict(x)
    if isinstance(x, FdExpr):
        return pretty_fd_expr(x)
    if isinstance(x, TgtType):
        return pretty_tgt_type(x)
    if isinstance(x, TgtExpr):
        return pretty_tgt_expr(x)
    raise TypeError(f"cannot pretty-print {type(x).__name__}")
