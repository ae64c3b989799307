"""Environment-passing reference interpreter.

Evaluation is fuel-limited: every recursive call runs at one unit less, so
fuel bounds call depth rather than step count, and any result reached with
fuel n is reached identically with any larger amount. A closure, `VClos`, is
its environment and the `Lam`, `Fix` or `TyLam` node it was built from. A
lambda or fixpoint checks that its node fits the captured environment when
the closure is built, which keeps every value well-formed and makes the
syntactic read-back `from_val` total on reachable values. The types inside
a closure are resolved only at read-back.

The recursion is the one function `_eval`, which returns a bare `Val` and
raises `lang.Stuck` or `lang.OutOfFuel` where it fails; `eval_expr` turns
the value or the exception into the call's one result. It dispatches on the
exact node class with an `is` chain ordered by how often each class is met
(variables, applications, lambdas, constants, case), not through a table of
handlers. It is a loop: the body of the last application of a spine, the
selected `Case` branch, a `Let` body and a constant's body that is not a
value form go round it again rather than taking a frame, so only argument,
scrutinee and let-bound positions recurse. The `App` arm applies a whole
spine `f a1 ... am` in one pass and builds no partial value on the way: a
closure whose body is another abstraction is carried to the next argument
as its environment and node, a constructor takes every remaining argument
at once, and a builtin collects arguments until it is saturated.
`Case`, `Lam` and `Fix` check the whole node with `fits` once; only on a miss
do they check each part in turn, which names the first part that does not
fit. `Case`, `Lam` and a lambda carried along a spine, met again and again
in a contract or a fold, first read the node's cached footprint: a node
closed under the environment's length with no type reference fits without
the call. A type argument reads it too: a closed one, such as the `[Int]`
of each `Cons` in a list, is its own value, without `fits` or `_subst`.
`fits` and `_subst` each serve types and expressions alike, as
`lang.footprint` does, and `_subst`'s compound arms are generated from
`lang.BINDERS`, as `footprint`'s are. Constructors resolve through the one
table `GlobalEnv.constrs`. A constant whose body is a value form
(`_VALUE_FORMS`) is evaluated once per `GlobalEnv` and its value kept in
`GlobalEnv.const_values`; a later reference returns it whenever the body
would have had fuel to run.
"""

from __future__ import annotations

import math
from typing import NoReturn, Optional, Sequence, Union

from .lang import (
    App,
    BINDERS,
    Builtin,
    Case,
    Const,
    Constr,
    EvalError,
    EvalResult,
    Expr,
    Fix,
    GlobalEnv,
    Lam,
    Let,
    Lit,
    NOT_ENOUGH_FUEL,
    Ok,
    OutOfFuel,
    PrimVal,
    Stuck,
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    Ty,
    TyAsExpr,
    TyLam,
    Var,
    binder_walker,
    closed_under,
    delta,
    footprint,
    tree_node,
)


# ---------------------------------------------------------------------------
# values

class Val:
    __slots__ = ("_expr",)  # the read-back; see `lang.Ty`


@tree_node
class VConstr(Val):
    ind: str
    ctor: str
    args: tuple[Val, ...] = ()


@tree_node
class VClos(Val):
    """A closure: the environment it was built in and the `Lam`, `Fix` or
    `TyLam` node it was built from. A `Lam` or `Fix` node fits the
    environment. The types inside the node, such as a lambda's domain, are
    not resolved when the closure is built but at read-back, where the
    environment is substituted through the whole node."""

    env: tuple[Val, ...]
    fn: Expr


@tree_node
class VTy(Val):
    ty: Ty


@tree_node
class VPrim(Val):
    prim: PrimVal


@tree_node
class VBuiltin(Val):
    """A primitive constant applied to fewer arguments than it needs."""

    name: str
    args: tuple[Val, ...] = ()


# Given a `trace` list, `eval_expr` appends an (environment, body) pair
# wherever evaluation extends its environment; the pairs feed the
# substitution-commutation check.
EnvPairs = list[tuple[tuple[Val, ...], Expr]]


# ---------------------------------------------------------------------------
# type evaluation

def eval_type(rho: Sequence[Val], ty: Ty) -> Optional[Ty]:
    """Resolve environment references inside a type. Every free index must
    land on a type entry, whose payload is closed; None otherwise. A subtree
    closed under its binders comes back as it is."""
    if not fits(rho, 0, ty):
        return None
    return _subst(rho, 0, ty)


# ---------------------------------------------------------------------------
# environment fit

def fits(rho: Sequence[Val], n_extra: int, node: Union[Ty, Expr]) -> bool:
    """True when `node` fits `rho` extended by `n_extra` yet-unknown entries:
    it is closed under the combined length and every type position that
    reaches into `rho` lands on a type entry. Reads the node's cached
    footprint, so it costs O(free type references), not O(size of `node`)."""
    bound, ty_refs = footprint(node)
    if bound > len(rho) + n_extra:
        return False
    for j in ty_refs:
        if j >= n_extra and not isinstance(rho[j - n_extra], VTy):
            return False
    return True


# ---------------------------------------------------------------------------
# evaluation

# Constant bodies that evaluate in the empty environment to one value at any
# fuel of at least one, without a recursive call; `_eval` keeps that value in
# `GlobalEnv.const_values`.
_VALUE_FORMS = (Lam, TyLam, Fix, Lit)


def eval_expr(
    genv: GlobalEnv,
    fuel: int,
    rho: Sequence[Val],
    e: Expr,
    trace: Optional[EnvPairs] = None,
) -> EvalResult:
    try:
        return Ok(_eval(genv, fuel, rho, e, trace))
    except Stuck as err:
        return EvalError(err.args[0])
    except OutOfFuel:
        return NOT_ENOUGH_FUEL


# `_eval` returns a bare `Val`. Where it gets stuck it raises `Stuck` with
# the reason, and where its fuel runs out `OutOfFuel`; either passes through
# every frame up to `eval_expr`, so no caller checks what a call returned. It
# is one loop: a position whose value is the value of the whole (the body of
# the last application of a spine, the selected case branch, a let body, a
# constant's body) takes the loop round again at the fuel its call would
# have had, so fuel still counts depth as if each of them were a call.

def _eval(
    genv: GlobalEnv,
    fuel: int,
    rho: Sequence[Val],
    e: Expr,
    trace: Optional[EnvPairs],
) -> Val:
    while True:
        if fuel <= 0:
            raise OutOfFuel
        n = fuel - 1
        t = type(e)
        if t is Var:
            ref = e.ref
            if not 0 <= ref < len(rho):
                raise Stuck(f"unbound variable index {ref}")
            return rho[ref]
        if t is App:
            # walk the spine `f a1 ... am` from the outside in: each level
            # checks its fuel as the walk reaches it and evaluates its
            # argument one unit lower, `am` first; a variable is read in
            # place wherever its call would succeed
            args = []
            while True:
                a = e.arg
                if type(a) is Var and n > 0 and 0 <= a.ref < len(rho):
                    va = rho[a.ref]
                else:
                    va = _eval(genv, n, rho, a, trace)
                args.append(va)
                e = e.fn
                if type(e) is not App:
                    break
                if n <= 0:
                    raise OutOfFuel
                n -= 1
            if type(e) is Var and n > 0 and 0 <= e.ref < len(rho):
                vf = rho[e.ref]
            else:
                vf = _eval(genv, n, rho, e, trace)
            # then apply from the inside out, `args[i]` at the fuel `n` of
            # its level; a closure whose body is another abstraction is
            # carried to the next argument as `env` and `fn`, without the
            # closure value its body would evaluate to
            i = len(args) - 1
            env = None
            while True:
                va = args[i]
                if env is None and type(vf) is VClos:
                    env, fn = vf.env, vf.fn
                if env is not None:
                    tc = type(fn)
                    if tc is Lam:
                        rho2 = (va,) + env
                    elif tc is Fix:
                        # primitive literals act as constructor forms for
                        # the fix guard; a fixpoint is never carried, so
                        # `vf` is its closure
                        if not isinstance(va, (VConstr, VPrim)):
                            raise Stuck("fixpoint applied to a non-constructor value")
                        rho2 = (va, vf) + env
                    else:
                        if not isinstance(va, VTy):
                            raise Stuck("type abstraction applied to a term value")
                        rho2 = (va,) + env
                    body = fn.body
                    if trace is not None:
                        trace.append((rho2, body))
                    if not i:
                        break
                    tb = type(body)
                    if tb is Lam or tb is TyLam:
                        # what the `Lam` and `TyLam` arms check
                        if n <= 0:
                            raise OutOfFuel
                        if tb is Lam:
                            fp = footprint(body)
                            if (fp[0] > len(rho2) or fp[1]) and not fits(rho2, 0, body):
                                _lam_misfit(rho2, body)
                        env, fn = rho2, body
                    else:
                        env = None
                        vf = _eval(genv, n, rho2, body, trace)
                elif type(vf) is VConstr:
                    # a constructor takes the `i + 1` arguments left at once
                    hit = genv.constrs.get((vf.ind, vf.ctor))
                    if hit is None:
                        raise Stuck(f"unknown constructor '{vf.ctor}' of '{vf.ind}'")
                    if len(vf.args) + i >= hit[2].num_params + len(hit[1].arg_tys):
                        raise Stuck(f"constructor '{vf.ctor}' applied to too many arguments")
                    return VConstr(vf.ind, vf.ctor, vf.args + tuple(args[i::-1]))
                elif type(vf) is VBuiltin:
                    # a builtin takes arguments until it is saturated, and
                    # reduces at the level of the last one
                    b = genv.constants.get(vf.name)
                    if not isinstance(b, Builtin):
                        raise Stuck(f"unknown primitive '{vf.name}'")
                    need = len(b.arg_kinds) - len(vf.args)
                    if need > i + 1:
                        return VBuiltin(vf.name, vf.args + tuple(args[i::-1]))
                    bargs = vf.args + tuple(reversed(args[i - need + 1 : i + 1]))
                    i -= need - 1
                    n += need - 1
                    out = delta(b, [a.prim if isinstance(a, VPrim) else None for a in bargs])
                    if isinstance(out, bool):
                        vf = VConstr("Bool", "True" if out else "False")
                    else:
                        vf = VPrim(out)
                elif type(vf) is VTy and type(va) is VTy and _ind_headed(vf.ty):
                    # an inductive applied to a type is a type, as in the kernel
                    vf = VTy(TApp(vf.ty, va.ty))
                else:
                    raise Stuck("application of a non-function value")
                if not i:
                    return vf
                i -= 1
                n += 1
            rho, e, fuel = rho2, body, n
            continue
        if t is Lam:
            fp = footprint(e)
            if (fp[0] > len(rho) or fp[1]) and not fits(rho, 0, e):
                _lam_misfit(rho, e)
            return VClos(tuple(rho), e)
        if t is Const:
            kept = genv.const_values.get(e.name)
            if kept is not None:
                if n <= 0:
                    raise OutOfFuel
                return kept
            defn = genv.constants.get(e.name)
            if defn is None:
                raise Stuck(f"unknown constant '{e.name}'")
            if isinstance(defn, Builtin):
                return VBuiltin(e.name, ())
            # constant bodies are closed, so they run in the empty environment
            if type(defn) in _VALUE_FORMS:
                v = _eval(genv, n, (), defn, trace)
                genv.const_values[e.name] = v
                return v
            rho, e, fuel = (), defn, n
            continue
        if t is Case:
            fp = footprint(e)
            if (fp[0] > len(rho) or fp[1]) and not fits(rho, 0, e):
                # some part misfits: report the first, in this order; when
                # every check below passes, the misfit is in the scrutinee
                if not all(fits(rho, len(p.binders), b) for p, b in e.branches):
                    raise Stuck("case branch does not fit its environment")
                if not fits(rho, 0, e.ret_ty):
                    raise Stuck("case return type refers to a term-level binding")
                for tp in e.ty_params:
                    if not fits(rho, 0, tp):
                        raise Stuck("case type parameter refers to a term-level binding")
            s = e.scrut
            if type(s) is Var and n > 0 and 0 <= s.ref < len(rho):
                v = rho[s.ref]
            else:
                v = _eval(genv, n, rho, s, trace)
            if type(v) is not VConstr:
                raise Stuck("case on a non-constructor value")
            hit = genv.constrs.get((v.ind, v.ctor))
            if hit is None:
                raise Stuck(f"unknown constructor '{v.ctor}' of '{v.ind}'")
            if v.ind != e.ind:
                raise Stuck(f"scrutinee of '{v.ind}' matched against '{e.ind}'")
            # the first branch for the constructor takes its arguments, after
            # a prefix of at most `num_params` type arguments
            for pat, body in e.branches:
                if pat.ctor == v.ctor:
                    break
            else:
                raise Stuck(f"no branch fits constructor '{v.ctor}'")
            args = v.args
            drop = len(args) - len(pat.binders)
            if drop < 0 or drop > hit[2].num_params or (
                drop and not all(isinstance(a, VTy) for a in args[:drop])
            ):
                raise Stuck(f"no branch fits constructor '{v.ctor}'")
            rho = args[drop:][::-1] + tuple(rho)
            if trace is not None:
                trace.append((rho, body))
            e, fuel = body, n
            continue
        if t is Let:
            v = _eval(genv, n, rho, e.bound, trace)
            rho = (v,) + tuple(rho)
            e, fuel = e.body, n
            if trace is not None:
                trace.append((rho, e))
            continue
        if t is Constr:
            if (e.ind, e.ctor) not in genv.constrs:
                raise Stuck(f"unknown constructor '{e.ctor}' of '{e.ind}'")
            return VConstr(e.ind, e.ctor, ())
        if t is Lit:
            return VPrim(e.value)
        if t is Fix:
            if not fits(rho, 0, e):
                if not fits(rho, 0, e.dom):
                    raise Stuck("fixpoint domain refers to a term-level binding")
                if not fits(rho, 0, e.cod):
                    raise Stuck("fixpoint codomain refers to a term-level binding")
                raise Stuck("fixpoint body does not fit its environment")
            return VClos(tuple(rho), e)
        if t is TyLam:
            return VClos(tuple(rho), e)
        if t is TyAsExpr:
            # a closed type, such as each `Cons`'s `[Int]`, is its own value
            if footprint(e)[0] == 0:
                return VTy(e.ty)
            ty_v = eval_type(rho, e.ty)
            if ty_v is None:
                raise Stuck("type argument refers to a term-level binding")
            return VTy(ty_v)
        raise TypeError(f"not an expression: {e!r}")


def _lam_misfit(rho: Sequence[Val], e: Lam) -> NoReturn:
    # why a lambda that does not fit `rho` does not
    if not fits(rho, 1, e.body):
        raise Stuck("lambda body does not fit its environment")
    raise Stuck("lambda domain refers to a term-level binding")


def _ind_headed(ty: Ty) -> bool:
    while type(ty) is TApp:
        ty = ty.fn
    return type(ty) is TInd


# ---------------------------------------------------------------------------
# value well-formedness

def wf_val(genv: GlobalEnv, v: Val) -> bool:
    match v:
        case VConstr(ind, ctor, args):
            hit = genv.constrs.get((ind, ctor))
            if hit is None or len(args) > hit[2].num_params + len(hit[1].arg_tys):
                return False
            return all(wf_val(genv, a) for a in args)
        case VClos(env, fn):
            return all(wf_val(genv, x) for x in env) and fits(env, 0, fn)
        case VTy(ty):
            return closed_under(0, ty)
        case VPrim(_):
            return True
        case VBuiltin(name, args):
            b = genv.constants.get(name)
            return (
                isinstance(b, Builtin)
                and len(args) < len(b.arg_kinds)
                and all(wf_val(genv, a) for a in args)
            )
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# environment substitution and read-back

def subst_env_expr(rho: Sequence[Expr], e: Expr) -> Optional[Expr]:
    """Substitute the closed expressions `rho` for the free indices of `e`;
    indices past the block shift down. None when `e` has a negative reference
    or a type position would receive a term-level entry, which the cached
    footprint tells before the walk. A subtree closed under its local binders
    comes back as it is, keeping what is cached on it."""
    bound, ty_refs = footprint(e)
    if bound == math.inf:
        return None
    for j in ty_refs:
        if j < len(rho) and not isinstance(rho[j], TyAsExpr):
            return None
    return _subst(tuple(rho), 0, e)


# `_subst` never fails: its callers have checked with the footprint that every
# free index is non-negative and that each one in a type position lands on a
# type entry, a `TyAsExpr` (`subst_env_expr`) or a `VTy` (`eval_type`), whose
# payload is closed. The footprint is read inline, as `kernel._subst` reads
# the bound, and computed only when missing.

_subst = binder_walker(globals(), BINDERS, "return c({fields})", (
    "_subst(rho, depth, {x})", "_subst(rho, depth + {n}, {x})"), '''
def _subst(
    rho: Sequence[Union[Expr, Val]], depth: int, node: Union[Ty, Expr]
) -> Union[Ty, Expr]:
    fp = getattr(node, "_fp", None)
    if fp is None:
        fp = footprint(node)
    if fp[0] <= depth:
        return node
    c = type(node)
    <if App TApp>
    elif c is Var:
        j = node.ref - depth
        return rho[j] if j < len(rho) else Var(node.ref - len(rho))
    elif c is TVar:
        j = node.ref - depth
        return rho[j].ty if j < len(rho) else TVar(node.ref - len(rho))
    <elif Case Lam TArr Fix Let TyAsExpr TyLam TForall>
    raise TypeError(f"not a type or expression: {node!r}")
''')


# kept in the `_expr` slot for "does not read back", which has to be told
# apart from None, "not read back yet"
_NO_READBACK = object()


def from_val(v: Val) -> Optional[Expr]:
    """Read a value back into a closed expression. Closures re-open their
    syntactic form and substitute the read-back environment through it. The
    answer is kept on the value, so a value shared by many environments is
    read back once."""
    hit = getattr(v, "_expr", None)
    if hit is not None:
        return None if hit is _NO_READBACK else hit
    e: Optional[Expr]
    c = type(v)
    if c is VConstr or c is VBuiltin:
        e = Constr(v.ind, v.ctor) if c is VConstr else Const(v.name)
        for a in v.args:
            fa = from_val(a)
            if fa is None:
                e = None
                break
            e = App(e, fa)
    elif c is VPrim:
        e = Lit(v.prim)
    elif c is VTy:
        e = TyAsExpr(v.ty)
    elif c is VClos:
        e = close_env(v.env, v.fn)
    else:
        raise TypeError(f"not a value: {v!r}")
    object.__setattr__(v, "_expr", _NO_READBACK if e is None else e)
    return e


def close_env(env: Sequence[Val], shell: Expr) -> Optional[Expr]:
    """Read `env` back and substitute it through `shell`; None when an entry
    does not read back or substitution fails."""
    exprs: list[Expr] = []
    for x in env:
        fx = from_val(x)
        if fx is None:
            return None
        exprs.append(fx)
    return subst_env_expr(exprs, shell)
