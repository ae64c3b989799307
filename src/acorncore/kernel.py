"""The kernel calculus: a small dependently-typed term language with lifting,
parallel substitution and a fuel-limited call-by-value normalizer.

This side of the pipeline is substitution-based and nameless throughout; it
serves as the independent second semantics the differential harness compares
the environment-passing interpreter against. `term_bound`, `_subst` and
`_cbv` dispatch on the exact node class with an `is` chain ordered by how
often each class is met, as `interp.py`'s evaluator does. As there, the
recursion is the one function `_cbv`, which passes bare values: each call
returns a `Term`, or the failure itself (an `EvalError` or
`NOT_ENOUGH_FUEL`), and `cbv_eval` builds the one `Ok` of a call from
outside. It is a loop, as `_eval` is: a beta step's substituted body, the
selected match branch, a let body and a constant's body go round it again
rather than taking a frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .lang import (
    Builtin,
    EvalError,
    EvalResult,
    NOT_ENOUGH_FUEL,
    NotEnoughFuel,
    Ok,
    PInt,
    PrimVal,
    delta,
    tree_node,
)


class Term:
    __slots__ = ()


@tree_node
class Rel(Term):
    index: int


@tree_node
class Lambda(Term):
    hint: Optional[str]
    dom: Term
    body: Term


@tree_node
class App(Term):
    fn: Term
    arg: Term


@tree_node
class LetIn(Term):
    hint: Optional[str]
    ty: Term
    bound: Term
    body: Term


@tree_node
class Const(Term):
    name: str


@tree_node
class Ind(Term):
    name: str


@tree_node
class Construct(Term):
    ind: str
    ctor_idx: int


@tree_node
class Match(Term):
    """Case analysis. `ret_ty` lives under one extra binder (the scrutinee);
    each branch is (arity, iterated lambda over the constructor arguments)."""

    ind: str
    n_params: int
    ty_params: tuple[Term, ...]
    ret_ty: Term
    scrut: Term
    branches: tuple[tuple[int, Term], ...]


@tree_node
class Fix(Term):
    """Single-argument recursive function; `body` is a lambda under the
    binder for the function itself."""

    hint: Optional[str]
    fty: Term
    body: Term


@tree_node
class Prod(Term):
    hint: Optional[str]
    dom: Term
    cod: Term


@tree_node
class SortSet(Term):
    pass


@tree_node
class PrimLit(Term):
    value: PrimVal


SORT_SET = SortSet()


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
# benchmark's node counter (`bench/layers.py`) walks `vars()` of each term,
# and a term is built without it, so that `vars()` holds its fields alone. A
# negative index, which no binder reaches and lifting and substitution leave
# alone, counts as closed. Lifting and substitution share one walker, which
# returns a subterm with no index at or above its cutoff as it is, computing
# the subterm's bound if it is missing, instead of rebuilding it.

def term_bound(t: Term) -> int:
    b = getattr(t, "_bound", None)
    if b is not None:
        return b
    c = type(t)
    if c is App:
        b = max(term_bound(t.fn), term_bound(t.arg))
    elif c is Lambda:
        b = max(term_bound(t.dom), term_bound(t.body) - 1)
    elif c is PrimLit or c is Construct or c is Const or c is Ind or c is SortSet:
        b = 0
    elif c is Match:
        b = max(
            term_bound(t.ret_ty) - 1,
            term_bound(t.scrut),
            *map(term_bound, t.ty_params),
            *(term_bound(br) for _, br in t.branches),
        )
    elif c is Prod:
        b = max(term_bound(t.dom), term_bound(t.cod) - 1)
    elif c is Rel:
        b = max(t.index + 1, 0)
    elif c is Fix:
        b = max(term_bound(t.fty), term_bound(t.body) - 1)
    elif c is LetIn:
        b = max(term_bound(t.ty), term_bound(t.bound), term_bound(t.body) - 1)
    else:
        raise TypeError(f"not a kernel term: {t!r}")
    object.__setattr__(t, "_bound", b)
    return b


def lift(n: int, k: int, t: Term) -> Term:
    """Add `n` to every free index at or above cutoff `k`."""
    return t if n == 0 else _subst((), n, k, t)


def parallel_subst(ts: tuple[Term, ...], t: Term) -> Term:
    """Replace Rel(i) by ts[i]; indices beyond the substituted block shift
    down by len(ts)."""
    return _subst(ts, 0, 0, t)


def _subst(ts: tuple[Term, ...], shift: int, k: int, t: Term) -> Term:
    # Rel(k+i) becomes ts[i] lifted past the k binders above it; an index
    # past the block moves down by len(ts) and up by `shift`. The bound is
    # read inline, a call less per node, and computed only when missing.
    b = getattr(t, "_bound", None)
    if b is None:
        b = term_bound(t)
    if b <= k:
        return t
    c = type(t)
    if c is Rel:
        i = t.index
        j = i - k
        if j < len(ts):
            # the lift, inline: `lift(k, 0, ts[j])` costs a frame more
            return ts[j] if k == 0 else _subst((), k, 0, ts[j])
        return Rel(i - len(ts) + shift)
    if c is App:
        return App(_subst(ts, shift, k, t.fn), _subst(ts, shift, k, t.arg))
    if c is Lambda:
        return Lambda(
            t.hint, _subst(ts, shift, k, t.dom), _subst(ts, shift, k + 1, t.body)
        )
    if c is Match:
        return Match(
            t.ind,
            t.n_params,
            tuple(_subst(ts, shift, k, x) for x in t.ty_params),
            _subst(ts, shift, k + 1, t.ret_ty),
            _subst(ts, shift, k, t.scrut),
            tuple((a, _subst(ts, shift, k, br)) for a, br in t.branches),
        )
    if c is Prod:
        return Prod(t.hint, _subst(ts, shift, k, t.dom), _subst(ts, shift, k + 1, t.cod))
    if c is LetIn:
        return LetIn(
            t.hint,
            _subst(ts, shift, k, t.ty),
            _subst(ts, shift, k, t.bound),
            _subst(ts, shift, k + 1, t.body),
        )
    if c is Fix:
        return Fix(t.hint, _subst(ts, shift, k, t.fty), _subst(ts, shift, k + 1, t.body))
    raise TypeError(f"not a kernel term: {t!r}")


def subst1(s: Term, t: Term) -> Term:
    return parallel_subst((s,), t)


# ---------------------------------------------------------------------------
# kernel-side environment

@dataclass(frozen=True)
class KernelCtor:
    """A constructor as the kernel sees it: arity, argument and result types."""

    name: str
    arity: int
    arg_tys: tuple[Term, ...]
    result_ty: Term


@dataclass(frozen=True)
class KernelInductive:
    """An inductive as the kernel sees it: its parameter count and constructors."""

    name: str
    num_params: int
    ctors: tuple[KernelCtor, ...]


@dataclass
class KernelEnv:
    """The kernel's global environment: inductives, constants and builtins."""

    inductives: dict[str, KernelInductive]
    constants: dict[str, Term]
    builtins: dict[str, Builtin]
    # what a fuel mark made under this environment holds (see `_cbv`): a
    # bare object, so that a mark on a shared node, which the environment's
    # own terms may hold, makes no cycle through the intern table
    stamp: object = field(default_factory=object, repr=False, compare=False)
    # the last fixpoint `_cbv` unfolded, and its body's body with the
    # fixpoint in place of index 1 (see `_cbv`). One entry, since a fold
    # unfolds one fixpoint at each of its elements; a table of every
    # fixpoint unfolded would keep alive each list it holds, such as the
    # second list of every `concat`. Not on the fixpoint node either: kernel
    # terms keep their caches in `vars()`, which the benchmark's node
    # counter walks, and the entry holds the node it would sit on.
    unfolded: Optional[tuple[Term, Term]] = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# call-by-value evaluation

def _constr_headed(t: Term) -> bool:
    # primitive literals count as constructor forms for the fix guard
    while type(t) is App:
        t = t.fn
    return isinstance(t, (Construct, PrimLit))


def _type_like(t: Term) -> bool:
    while type(t) is App:
        t = t.fn
    return isinstance(t, (Ind, Prod, SortSet))


# A value met again, as a substituted argument or scrutinee, is not walked
# again. Re-evaluating an atomic value (a lambda, product, fixpoint, literal,
# inductive, constructor or builtin name) takes fuel 1; re-evaluating an inert
# application, a constructor, inductive or partial builtin applied to values,
# takes 1 more than its function or its argument does. The tail of `_cbv`'s
# `App` arm records that fuel on each inert application it builds, as its
# mark, and `_cbv` answers a marked term from the mark alone: the term itself
# at that fuel or more, out of fuel below it, which is what the walk would
# return. Which applications are inert depends on the environment's
# inductives and builtins, so a mark holds only under the `KernelEnv` whose
# stamp it holds; under any other the term is walked.

def cbv_eval(kenv: KernelEnv, fuel: int, t: Term) -> EvalResult:
    """Weak call-by-value normalization; fuel bounds the call depth."""
    r = _cbv(kenv, fuel, t)
    if type(r) is EvalError or r is NOT_ENOUGH_FUEL:
        return r
    return Ok(r)


# `_cbv` returns a bare `Term` or the failure itself, which a caller tells
# apart by `type(r) is EvalError or r is NOT_ENOUGH_FUEL`. It is one loop:
# a position whose value is the value of the whole (a beta step's
# substituted body, the selected match branch, a let body, a constant's
# body) takes the loop round again at the fuel its call would have had, so
# fuel still counts depth as if each of them were a call. An argument or
# function that is already an atom is taken in place wherever its call
# would return it.
#
# A fixpoint applied to a value is unfolded in two walks: the fixpoint goes
# in for index 1 of its body's body, then the value for index 0. The first
# walk keeps index 0 in place and moves each index above 1 down by one, not
# two, so that the second walk's move by one more lands it where a single
# walk for both would; the fixpoint goes in lifted by one for the same
# reason. A closed fixpoint's body has no index above 1 and lifts to
# itself. The environment keeps the first walk's result for the last
# fixpoint it unfolded (`KernelEnv.unfolded`), so each later element of the
# same fold takes the second walk alone. It keeps one, on the environment
# rather than in a table or on the node, for the reasons given at the field.

_ATOMS = frozenset((PrimLit, Construct, Lambda, Ind, Fix, Prod, SortSet))


def _cbv(
    kenv: KernelEnv, fuel: int, t: Term
) -> Union[Term, EvalError, NotEnoughFuel]:
    while True:
        if fuel <= 0:
            return NOT_ENOUGH_FUEL
        n = fuel - 1
        c = type(t)
        if c is App:
            mark = getattr(t, "_mark", None)
            if mark is not None and mark[0] is kenv.stamp:
                return t if fuel >= mark[1] else NOT_ENOUGH_FUEL
            va = t.arg
            if n <= 0 or type(va) not in _ATOMS:
                va = _cbv(kenv, n, va)
                if type(va) is EvalError or va is NOT_ENOUGH_FUEL:
                    return va
            vf = t.fn
            if n <= 0 or type(vf) not in _ATOMS:
                vf = _cbv(kenv, n, vf)
                if type(vf) is EvalError or vf is NOT_ENOUGH_FUEL:
                    return vf
            # the function value applies at the fuel of this step
            cf = type(vf)
            if cf is Lambda:
                if vf.dom is SORT_SET and not _type_like(va):
                    return EvalError("type abstraction applied to a term value")
                t, fuel = subst1(va, vf.body), n
                continue
            if cf is Fix:
                if not _constr_headed(va):
                    return EvalError("fixpoint applied to a non-constructor value")
                hit = kenv.unfolded
                if hit is None or hit[0] is not vf:
                    if type(vf.body) is not Lambda:
                        return EvalError("fixpoint body is not a lambda")
                    body = _subst((Rel(0), lift(1, 0, vf)), 1, 0, vf.body.body)
                    hit = kenv.unfolded = (vf, body)
                t, fuel = subst1(va, hit[1]), n
                continue
            head, spine = spine_view(vf)
            ch = type(head)
            if ch is Construct:
                ki = kenv.inductives.get(head.ind)
                if ki is None or head.ctor_idx >= len(ki.ctors):
                    return EvalError(f"unknown constructor {head.ctor_idx} of '{head.ind}'")
                if len(spine) >= ki.num_params + ki.ctors[head.ctor_idx].arity:
                    return EvalError(
                        f"constructor '{ki.ctors[head.ctor_idx].name}' applied to too many arguments"
                    )
            elif ch is Const and head.name in kenv.builtins:
                # a builtin-headed value holds fewer arguments than the builtin
                # takes, since a saturated one is reduced at once and every
                # builtin takes at least one; so this one is partial or saturated
                b = kenv.builtins[head.name]
                if len(spine) + 1 == len(b.arg_kinds):
                    args = spine + (va,)
                    out = delta(b, [a.value if isinstance(a, PrimLit) else None for a in args])
                    if isinstance(out, EvalError):
                        return out
                    if isinstance(out, bool):
                        return Construct("Bool", 0 if out else 1)
                    return PrimLit(out)
            elif ch is not Ind or not _type_like(va):
                # an inductive takes only types: `[List] 3z` is not a value
                return EvalError("application of a non-function value")
            # an inert value: a constructor or a partial builtin applied to
            # values, or an inductive applied to a type, marked with the fuel
            # its re-evaluation takes
            v = App(vf, va)
            s = kenv.stamp
            # each part's mark, read inline: an application without one is unknown
            mf = getattr(vf, "_mark", None) if type(vf) is App else (s, 1)
            ma = getattr(va, "_mark", None) if type(va) is App else (s, 1)
            if mf is not None and ma is not None and mf[0] is s and ma[0] is s:
                object.__setattr__(v, "_mark", (s, 1 + max(mf[1], ma[1])))
            return v
        if c in _ATOMS:
            return t
        if c is Const:
            name = t.name
            if name in kenv.builtins:
                return t
            body = kenv.constants.get(name)
            if body is None:
                return EvalError(f"unknown constant '{name}'")
            t, fuel = body, n
            continue
        if c is Match:
            v = _cbv(kenv, n, t.scrut)
            if type(v) is EvalError or v is NOT_ENOUGH_FUEL:
                return v
            head, spine = spine_view(v)
            ind = t.ind
            if not isinstance(head, Construct):
                return EvalError("match on a non-constructor value")
            if head.ind != ind:
                return EvalError(
                    f"scrutinee of '{head.ind}' matched against '{ind}'"
                )
            branches = t.branches
            if head.ctor_idx >= len(branches):
                return EvalError(f"no branch for constructor {head.ctor_idx} of '{ind}'")
            arity, body = branches[head.ctor_idx]
            drop = len(spine) - arity
            if drop < 0 or drop > t.n_params:
                return EvalError("constructor argument count does not fit the branch")
            if not all(_type_like(a) for a in spine[:drop]):
                return EvalError("non-type argument in the parameter prefix")
            if arity:
                # peel the branch's lambdas, then put the last argument at
                # index 0 and the first at index arity-1 in one walk, as the
                # `App` arm does for a fixpoint
                for _ in range(arity):
                    if type(body) is not Lambda:
                        return EvalError("branch shape does not match its arity")
                    body = body.body
                body = parallel_subst(spine[drop:][::-1], body)
            t, fuel = body, n
            continue
        if c is LetIn:
            v = _cbv(kenv, n, t.bound)
            if type(v) is EvalError or v is NOT_ENOUGH_FUEL:
                return v
            t, fuel = subst1(v, t.body), n
            continue
        if c is Rel:
            return EvalError(f"unbound index {t.index} in kernel evaluation")
        raise TypeError(f"not a kernel term: {t!r}")


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
