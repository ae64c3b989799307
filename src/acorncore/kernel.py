"""The kernel calculus: a small dependently-typed term language with lifting,
parallel substitution and a fuel-limited call-by-value normalizer.

This side of the pipeline is substitution-based and nameless throughout; it
serves as the independent second semantics the differential harness compares
the environment-passing interpreter against. How many binders each child of
each term sits under is declared once, in `BINDERS`; `lang.binder_walker`
generates the compound arms of `term_bound` and `_subst` from it, and only
their `Rel` and closed-leaf arms are written here. Those two and `_cbv`
dispatch on the exact node class with an `is` chain ordered by how often
each class is met, as `interp.py`'s evaluator does. As there, the
recursion is the one function `_cbv`, which returns a bare `Term` and
raises `lang.Stuck` or `lang.OutOfFuel` where it fails; `cbv_eval` turns
the term or the exception into the call's one result. It is a loop, as
`_eval` is: a beta step's body, the selected match branch, a let body and
a constant's body go round it again rather than taking a frame. A step
that goes on with a body hands its substitution on pending, as an explicit
substitution of the lambda-sigma calculus; the loop walks it in at its top,
unless the body is a match, which puts it into its scrutinee and the branch
it takes alone. So the machine stays a substitution machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .lang import (
    Builtin,
    EvalError,
    EvalResult,
    NOT_ENOUGH_FUEL,
    Ok,
    OutOfFuel,
    PInt,
    PrimVal,
    Stuck,
    binder_walker,
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

# The binding structure of kernel terms, as `lang.BINDERS` gives that of
# types and expressions. A match's return type sits under the scrutinee's
# binder, and its branches under none: each is a lambda over the constructor
# arguments, which binds them itself.
BINDERS: dict[type, dict[str, object]] = {
    App: {"fn": 0, "arg": 0},
    Lambda: {"dom": 0, "body": 1},
    Match: {"ty_params": (0, ...), "ret_ty": 1, "scrut": 0, "branches": (0, ...)},
    Prod: {"dom": 0, "cod": 1},
    Fix: {"fty": 0, "body": 1},
    LetIn: {"ty": 0, "bound": 0, "body": 1},
}


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

term_bound = binder_walker(globals(), BINDERS, "b = max({children})", (
    "term_bound({x})", "term_bound({x}) - {n}"), '''
def term_bound(t: Term) -> int:
    b = getattr(t, "_bound", None)
    if b is not None:
        return b
    c = type(t)
    <if App Lambda>
    elif c is PrimLit or c is Construct or c is Const or c is Ind or c is SortSet:
        b = 0
    <elif Match Prod>
    elif c is Rel:
        b = max(t.index + 1, 0)
    <elif Fix LetIn>
    else:
        raise TypeError(f"not a kernel term: {t!r}")
    object.__setattr__(t, "_bound", b)
    return b
''')


def lift(n: int, k: int, t: Term) -> Term:
    """Add `n` to every free index at or above cutoff `k`."""
    return t if n == 0 else _subst((), n, k, t)


def parallel_subst(ts: tuple[Term, ...], t: Term) -> Term:
    """Replace Rel(i) by ts[i]; indices beyond the substituted block shift
    down by len(ts)."""
    return _subst(ts, 0, 0, t)


_subst = binder_walker(globals(), BINDERS, "return c({fields})", (
    "_subst(ts, shift, k, {x})", "_subst(ts, shift, k + {n}, {x})"), '''
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
    <elif App Lambda Match Prod LetIn Fix>
    raise TypeError(f"not a kernel term: {t!r}")
''')


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
    try:
        return Ok(_cbv(kenv, fuel, t))
    except Stuck as err:
        return EvalError(err.args[0])
    except OutOfFuel:
        return NOT_ENOUGH_FUEL


# `_cbv` returns a bare `Term` and fails by raising, as `interp._eval` does:
# `Stuck` with the reason, or `OutOfFuel`, up to `cbv_eval`. It is one loop:
# a position whose value is the value of the whole (a beta step's body,
# the selected match branch, a let body, a constant's body) takes the loop
# round again at the fuel its call would have had, so fuel still counts
# depth as if each of them were a call. An argument or function that is
# already an atom is taken in place wherever its call would return it.
#
# A step that goes on with a body (a beta step, a fixpoint's unfold, a let
# body, the taken branch) does not walk its substitution into it but hands
# it on as `pend`, the tuple `parallel_subst` would take. The loop walks
# `pend` in at its top unless `t` is a match, so `pend` is empty in every
# arm but `Match`'s. That arm puts `pend` into the scrutinee, which it
# evaluates, and into the branch it takes: after the branch's `arity`
# lambdas are peeled, the pending entries sit at `arity` and up, so one walk
# of the constructor arguments followed by `pend` does what a walk of the
# whole match and then one of the branch would. A branch that is a match
# itself keeps that tuple pending. The type parameters, the return type and
# the branches not taken are never rebuilt, as nothing here reads them. A
# fixpoint applied to a value goes on with its body's body and `pend` holds
# the value for index 0 and the fixpoint for index 1, so one walk puts both
# in; an open fixpoint is lifted by `_subst`'s `Rel` arm, as any pending
# entry is.

_ATOMS = frozenset((PrimLit, Construct, Lambda, Ind, Fix, Prod, SortSet))


def _cbv(kenv: KernelEnv, fuel: int, t: Term) -> Term:
    pend = ()
    while True:
        if pend and type(t) is not Match:
            t, pend = parallel_subst(pend, t), ()
        if fuel <= 0:
            raise OutOfFuel
        n = fuel - 1
        c = type(t)
        if c is App:
            mark = getattr(t, "_mark", None)
            if mark is not None and mark[0] is kenv.stamp:
                if fuel < mark[1]:
                    raise OutOfFuel
                return t
            va = t.arg
            if n <= 0 or type(va) not in _ATOMS:
                va = _cbv(kenv, n, va)
            vf = t.fn
            if n <= 0 or type(vf) not in _ATOMS:
                vf = _cbv(kenv, n, vf)
            # the function value applies at the fuel of this step
            cf = type(vf)
            if cf is Lambda:
                if vf.dom is SORT_SET and not _type_like(va):
                    raise Stuck("type abstraction applied to a term value")
                t, fuel, pend = vf.body, n, (va,)
                continue
            if cf is Fix:
                if not _constr_headed(va):
                    raise Stuck("fixpoint applied to a non-constructor value")
                if type(vf.body) is not Lambda:
                    raise Stuck("fixpoint body is not a lambda")
                t, fuel, pend = vf.body.body, n, (va, vf)
                continue
            head, spine = spine_view(vf)
            ch = type(head)
            if ch is Construct:
                ki = kenv.inductives.get(head.ind)
                if ki is None or head.ctor_idx >= len(ki.ctors):
                    raise Stuck(f"unknown constructor {head.ctor_idx} of '{head.ind}'")
                if len(spine) >= ki.num_params + ki.ctors[head.ctor_idx].arity:
                    raise Stuck(
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
                    if isinstance(out, bool):
                        return Construct("Bool", 0 if out else 1)
                    return PrimLit(out)
            elif ch is not Ind or not _type_like(va):
                # an inductive takes only types: `[List] 3z` is not a value
                raise Stuck("application of a non-function value")
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
                raise Stuck(f"unknown constant '{name}'")
            t, fuel = body, n
            continue
        if c is Match:
            v = _cbv(kenv, n, parallel_subst(pend, t.scrut) if pend else t.scrut)
            head, spine = spine_view(v)
            ind = t.ind
            if not isinstance(head, Construct):
                raise Stuck("match on a non-constructor value")
            if head.ind != ind:
                raise Stuck(f"scrutinee of '{head.ind}' matched against '{ind}'")
            branches = t.branches
            if head.ctor_idx >= len(branches):
                raise Stuck(f"no branch for constructor {head.ctor_idx} of '{ind}'")
            arity, body = branches[head.ctor_idx]
            drop = len(spine) - arity
            if drop < 0 or drop > t.n_params:
                raise Stuck("constructor argument count does not fit the branch")
            if not all(_type_like(a) for a in spine[:drop]):
                raise Stuck("non-type argument in the parameter prefix")
            # peel the branch's lambdas; the last argument goes in at index
            # 0, the first at index arity-1 and the pending entries above
            # them, in one walk
            for _ in range(arity):
                if type(body) is not Lambda:
                    raise Stuck("branch shape does not match its arity")
                body = body.body
            t, fuel, pend = body, n, spine[drop:][::-1] + pend
            continue
        if c is LetIn:
            t, fuel, pend = t.body, n, (_cbv(kenv, n, t.bound),)
            continue
        if c is Rel:
            raise Stuck(f"unbound index {t.index} in kernel evaluation")
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
            # a loop, as in `parser._pp`: a comprehension is a frame more
            parts = [_pp(head, ctx, 1)]
            for a in spine:
                parts.append(_pp(a, ctx, 1))
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
