"""The kernel calculus: a small dependently-typed term language with lifting,
parallel substitution and a fuel-limited call-by-value normalizer.

This side of the pipeline is substitution-based and nameless throughout; it
serves as the independent second semantics the differential harness compares
the environment-passing interpreter against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .lang import (
    Builtin,
    EvalError,
    EvalResult,
    NOT_ENOUGH_FUEL,
    Ok,
    PInt,
    PrimVal,
    delta,
)


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Rel(Term):
    index: int


@dataclass(frozen=True)
class Lambda(Term):
    hint: Optional[str]
    dom: Term
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class LetIn(Term):
    hint: Optional[str]
    ty: Term
    bound: Term
    body: Term


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Ind(Term):
    name: str


@dataclass(frozen=True)
class Construct(Term):
    ind: str
    ctor_idx: int


@dataclass(frozen=True)
class Match(Term):
    """Case analysis. `ret_ty` lives under one extra binder (the scrutinee);
    each branch is (arity, iterated lambda over the constructor arguments)."""

    ind: str
    n_params: int
    ty_params: tuple[Term, ...]
    ret_ty: Term
    scrut: Term
    branches: tuple[tuple[int, Term], ...]


@dataclass(frozen=True)
class Fix(Term):
    """Single-argument recursive function; `body` is a lambda under the
    binder for the function itself."""

    hint: Optional[str]
    fty: Term
    body: Term


@dataclass(frozen=True)
class Prod(Term):
    hint: Optional[str]
    dom: Term
    cod: Term


@dataclass(frozen=True)
class SortSet(Term):
    pass


@dataclass(frozen=True)
class PrimLit(Term):
    value: PrimVal


SORT_SET = SortSet()


def mk_app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def spine_view(t: Term) -> tuple[Term, tuple[Term, ...]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, tuple(args)


# ---------------------------------------------------------------------------
# lifting and substitution

# `term_bound(t)` is one past the largest free index of `t`, or 0 when `t` is
# closed. It is computed once per node and kept on it as `_bound`, read and
# written as `lang.Ty` describes for the surface caches; kernel terms keep
# theirs in the instance dictionary rather than in slots, because the
# benchmark's node counter (`bench/layers.py`) walks `vars()` of each term. A
# negative index, which no binder reaches and lifting and substitution leave
# alone, counts as closed. With the bound, lifting and substitution return a
# subterm with no index at or above their cutoff as it is, instead of
# rebuilding it.

def term_bound(t: Term) -> int:
    b = getattr(t, "_bound", None)
    if b is not None:
        return b
    match t:
        case Rel(i):
            b = max(i + 1, 0)
        case Lambda(_, dom, body):
            b = max(term_bound(dom), term_bound(body) - 1)
        case App(fn, arg):
            b = max(term_bound(fn), term_bound(arg))
        case LetIn(_, ty, bound, body):
            b = max(term_bound(ty), term_bound(bound), term_bound(body) - 1)
        case Match(_, _, tps, ret, scrut, branches):
            b = max(
                term_bound(ret) - 1,
                term_bound(scrut),
                *map(term_bound, tps),
                *(term_bound(br) for _, br in branches),
            )
        case Fix(_, fty, body):
            b = max(term_bound(fty), term_bound(body) - 1)
        case Prod(_, dom, cod):
            b = max(term_bound(dom), term_bound(cod) - 1)
        case Const() | Ind() | Construct() | SortSet() | PrimLit():
            b = 0
        case _:
            raise TypeError(f"not a kernel term: {t!r}")
    object.__setattr__(t, "_bound", b)
    return b


def lift(n: int, k: int, t: Term) -> Term:
    """Add `n` to every free index at or above cutoff `k`."""
    if n == 0 or term_bound(t) <= k:
        return t
    match t:
        case Rel(i):
            return Rel(i + n)
        case Lambda(h, dom, body):
            return Lambda(h, lift(n, k, dom), lift(n, k + 1, body))
        case App(fn, arg):
            return App(lift(n, k, fn), lift(n, k, arg))
        case LetIn(h, ty, bound, body):
            return LetIn(h, lift(n, k, ty), lift(n, k, bound), lift(n, k + 1, body))
        case Match(ind, p, tps, ret, scrut, branches):
            return Match(
                ind,
                p,
                tuple(lift(n, k, x) for x in tps),
                lift(n, k + 1, ret),
                lift(n, k, scrut),
                tuple((a, lift(n, k, b)) for a, b in branches),
            )
        case Fix(h, fty, body):
            return Fix(h, lift(n, k, fty), lift(n, k + 1, body))
        case Prod(h, dom, cod):
            return Prod(h, lift(n, k, dom), lift(n, k + 1, cod))
    raise TypeError(f"not a kernel term: {t!r}")


def parallel_subst(ts: tuple[Term, ...], t: Term, k: int = 0) -> Term:
    """Replace Rel(k+i) by ts[i] (lifted past the k local binders); indices
    beyond the substituted block shift down by len(ts). A subterm is kept
    as it is only when its bound is already known: computing it here would
    walk every fresh target once more before substituting into it."""
    b = getattr(t, "_bound", None)
    if b is not None and b <= k:
        return t
    match t:
        case Rel(i):
            if i < k:
                return t
            j = i - k
            if j < len(ts):
                return lift(k, 0, ts[j])
            return Rel(i - len(ts))
        case Lambda(h, dom, body):
            return Lambda(h, parallel_subst(ts, dom, k), parallel_subst(ts, body, k + 1))
        case App(fn, arg):
            return App(parallel_subst(ts, fn, k), parallel_subst(ts, arg, k))
        case LetIn(h, ty, bound, body):
            return LetIn(
                h,
                parallel_subst(ts, ty, k),
                parallel_subst(ts, bound, k),
                parallel_subst(ts, body, k + 1),
            )
        case Match(ind, p, tps, ret, scrut, branches):
            return Match(
                ind,
                p,
                tuple(parallel_subst(ts, x, k) for x in tps),
                parallel_subst(ts, ret, k + 1),
                parallel_subst(ts, scrut, k),
                tuple((a, parallel_subst(ts, b, k)) for a, b in branches),
            )
        case Fix(h, fty, body):
            return Fix(h, parallel_subst(ts, fty, k), parallel_subst(ts, body, k + 1))
        case Prod(h, dom, cod):
            return Prod(h, parallel_subst(ts, dom, k), parallel_subst(ts, cod, k + 1))
        case Const() | Ind() | Construct() | SortSet() | PrimLit():
            return t
    raise TypeError(f"not a kernel term: {t!r}")


def subst1(s: Term, t: Term) -> Term:
    return parallel_subst((s,), t)


def term_closed_under(n: int, t: Term) -> bool:
    match t:
        case Rel(i):
            return 0 <= i < n
        case Lambda(_, dom, body):
            return term_closed_under(n, dom) and term_closed_under(n + 1, body)
        case App(fn, arg):
            return term_closed_under(n, fn) and term_closed_under(n, arg)
        case LetIn(_, ty, bound, body):
            return (
                term_closed_under(n, ty)
                and term_closed_under(n, bound)
                and term_closed_under(n + 1, body)
            )
        case Match(_, _, tps, ret, scrut, branches):
            return (
                all(term_closed_under(n, x) for x in tps)
                and term_closed_under(n + 1, ret)
                and term_closed_under(n, scrut)
                and all(term_closed_under(n, b) for _, b in branches)
            )
        case Fix(_, fty, body):
            return term_closed_under(n, fty) and term_closed_under(n + 1, body)
        case Prod(_, dom, cod):
            return term_closed_under(n, dom) and term_closed_under(n + 1, cod)
        case Const() | Ind() | Construct() | SortSet() | PrimLit():
            return True
    raise TypeError(f"not a kernel term: {t!r}")


# ---------------------------------------------------------------------------
# kernel-side environment

@dataclass(frozen=True)
class KernelCtor:
    name: str
    arity: int
    arg_tys: tuple[Term, ...]
    result_ty: Term


@dataclass(frozen=True)
class KernelInductive:
    name: str
    num_params: int
    ctors: tuple[KernelCtor, ...]


@dataclass
class KernelEnv:
    inductives: dict[str, KernelInductive]
    constants: dict[str, Term]
    builtins: dict[str, Builtin]


# ---------------------------------------------------------------------------
# call-by-value evaluation

def _constr_headed(t: Term) -> bool:
    # primitive literals count as constructor forms for the fix guard
    head, _ = spine_view(t)
    return isinstance(head, (Construct, PrimLit))


def _type_like(t: Term) -> bool:
    head, _ = spine_view(t)
    return isinstance(head, (Ind, Prod, SortSet))


# A value met again, as a substituted argument or scrutinee, is not walked
# again. Re-evaluating an atomic value (a lambda, product, fixpoint, literal,
# inductive, constructor or builtin name) takes fuel 1; re-evaluating an inert
# application, a constructor, inductive or partial builtin applied to values,
# takes 1 more than its function or its argument does. `_inert` records that
# fuel on each application it builds, as its mark, and `cbv_eval` answers a
# marked term from the mark alone: Ok at that fuel or more, out of fuel below
# it, which is what the walk would return. Which applications are inert
# depends on the environment's inductives and builtins, so a mark holds only
# under the `KernelEnv` it was made under; under any other the term is walked.

def _mark_of(kenv: KernelEnv, v: Term) -> Optional[int]:
    """Fuel that re-evaluating the value `v` takes, or None if unknown."""
    if not isinstance(v, App):
        return 1
    mark = getattr(v, "_mark", None)
    return mark[1] if mark is not None and mark[0] is kenv else None


def _inert(kenv: KernelEnv, vf: Term, va: Term) -> EvalResult:
    t = App(vf, va)
    mf, ma = _mark_of(kenv, vf), _mark_of(kenv, va)
    if mf is not None and ma is not None:
        object.__setattr__(t, "_mark", (kenv, 1 + max(mf, ma)))
    return Ok(t)


def cbv_eval(kenv: KernelEnv, fuel: int, t: Term) -> EvalResult:
    """Weak call-by-value normalization; fuel bounds the call depth."""
    if fuel <= 0:
        return NOT_ENOUGH_FUEL
    n = fuel - 1
    match t:
        case Rel(i):
            return EvalError(f"unbound index {i} in kernel evaluation")
        case Lambda() | Prod() | SortSet() | PrimLit() | Ind() | Construct() | Fix():
            return Ok(t)
        case Const(name):
            if name in kenv.builtins:
                return Ok(t)
            body = kenv.constants.get(name)
            if body is None:
                return EvalError(f"unknown constant '{name}'")
            return cbv_eval(kenv, n, body)
        case LetIn(_, _, bound, body):
            r = cbv_eval(kenv, n, bound)
            if not isinstance(r, Ok):
                return r
            return cbv_eval(kenv, n, subst1(r.value, body))
        case App(fn, arg):
            mark = getattr(t, "_mark", None)
            if mark is not None and mark[0] is kenv:
                return Ok(t) if fuel >= mark[1] else NOT_ENOUGH_FUEL
            ra = cbv_eval(kenv, n, arg)
            if not isinstance(ra, Ok):
                return ra
            rf = cbv_eval(kenv, n, fn)
            if not isinstance(rf, Ok):
                return rf
            return _apply(kenv, n, rf.value, ra.value)
        case Match(ind, n_params, _, _, scrut, branches):
            r = cbv_eval(kenv, n, scrut)
            if not isinstance(r, Ok):
                return r
            head, spine = spine_view(r.value)
            if not isinstance(head, Construct):
                return EvalError("match on a non-constructor value")
            if head.ind != ind:
                return EvalError(
                    f"scrutinee of '{head.ind}' matched against '{ind}'"
                )
            if head.ctor_idx >= len(branches):
                return EvalError(f"no branch for constructor {head.ctor_idx} of '{ind}'")
            arity, body = branches[head.ctor_idx]
            drop = len(spine) - arity
            if drop < 0 or drop > n_params:
                return EvalError("constructor argument count does not fit the branch")
            if not all(_type_like(a) for a in spine[:drop]):
                return EvalError("non-type argument in the parameter prefix")
            cur = body
            for a in spine[drop:]:
                if not isinstance(cur, Lambda):
                    return EvalError("branch shape does not match its arity")
                cur = subst1(a, cur.body)
            return cbv_eval(kenv, n, cur)
    raise TypeError(f"not a kernel term: {t!r}")


def _apply(kenv: KernelEnv, fuel: int, vf: Term, va: Term) -> EvalResult:
    if isinstance(vf, Lambda):
        return cbv_eval(kenv, fuel, subst1(va, vf.body))
    if isinstance(vf, Fix):
        if not _constr_headed(va):
            return EvalError("fixpoint applied to a non-constructor value")
        unfolded = subst1(vf, vf.body)
        if not isinstance(unfolded, Lambda):
            return EvalError("fixpoint body is not a lambda")
        return cbv_eval(kenv, fuel, subst1(va, unfolded.body))
    head, spine = spine_view(vf)
    if isinstance(head, Construct):
        ki = kenv.inductives.get(head.ind)
        if ki is None or head.ctor_idx >= len(ki.ctors):
            return EvalError(f"unknown constructor {head.ctor_idx} of '{head.ind}'")
        limit = ki.num_params + ki.ctors[head.ctor_idx].arity
        if len(spine) >= limit:
            return EvalError(
                f"constructor '{ki.ctors[head.ctor_idx].name}' applied to too many arguments"
            )
        return _inert(kenv, vf, va)
    if isinstance(head, Const) and head.name in kenv.builtins:
        b = kenv.builtins[head.name]
        args = spine + (va,)
        if len(args) < len(b.arg_kinds):
            return _inert(kenv, vf, va)
        if len(args) > len(b.arg_kinds):
            return EvalError(f"primitive '{b.name}' applied to too many arguments")
        out = delta(b, [a.value if isinstance(a, PrimLit) else None for a in args])
        if isinstance(out, EvalError):
            return out
        if isinstance(out, bool):
            return Ok(Construct("Bool", 0 if out else 1))
        return Ok(PrimLit(out))
    if isinstance(head, Ind):
        # a type applied to arguments is an inert value
        return _inert(kenv, vf, va)
    return EvalError("application of a non-function value")


# ---------------------------------------------------------------------------
# display

def pretty_term(t: Term) -> str:
    return _pp(t, [], 0)


def _name_for(hint: Optional[str], ctx: list[str]) -> str:
    base = hint if hint else "_x"
    name = base
    i = 1
    while name in ctx:
        i += 1
        name = f"{base}{i}"
    return name


def _pp(t: Term, ctx: list[str], prec: int) -> str:
    # prec 0 = top, 1 = application argument
    match t:
        case Rel(i):
            if i < len(ctx):
                return ctx[i]
            return f"#{i}"
        case Lambda(h, dom, body):
            x = _name_for(h, ctx)
            s = f"fun ({x} : {_pp(dom, ctx, 0)}) => {_pp(body, [x] + ctx, 0)}"
            return f"({s})" if prec > 0 else s
        case App(_, _):
            head, spine = spine_view(t)
            parts = [_pp(head, ctx, 1)] + [_pp(a, ctx, 1) for a in spine]
            s = " ".join(parts)
            return f"({s})" if prec > 0 else s
        case LetIn(h, _, bound, body):
            x = _name_for(h, ctx)
            s = f"let {x} := {_pp(bound, ctx, 0)} in {_pp(body, [x] + ctx, 0)}"
            return f"({s})" if prec > 0 else s
        case Const(name):
            return name
        case Ind(name):
            return name
        case Construct(ind, idx):
            return f"{ind}.{idx}"
        case Match(_, _, _, _, scrut, branches):
            arms = " | ".join(f"{a} => {_pp(b, ctx, 0)}" for a, b in branches)
            s = f"match {_pp(scrut, ctx, 0)} with {arms} end"
            return f"({s})" if prec > 0 else s
        case Fix(h, _, body):
            f = _name_for(h, ctx)
            s = f"fix {f} := {_pp(body, [f] + ctx, 0)}"
            return f"({s})" if prec > 0 else s
        case Prod(h, dom, cod):
            if h is None:
                s = f"{_pp(dom, ctx, 1)} -> {_pp(cod, ['_'] + ctx, 0)}"
            else:
                x = _name_for(h, ctx)
                s = f"forall ({x} : {_pp(dom, ctx, 0)}), {_pp(cod, [x] + ctx, 0)}"
            return f"({s})" if prec > 0 else s
        case SortSet():
            return "Set"
        case PrimLit(v):
            if isinstance(v, PInt):
                return f"{v.value}z"
            return str(v.value)
    raise TypeError(f"not a kernel term: {t!r}")
