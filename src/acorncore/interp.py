"""Environment-passing reference interpreter.

Evaluation is fuel-limited: every recursive call runs at one unit less, so
fuel bounds call depth rather than step count, and any result reached with
fuel n is reached identically with any larger amount. Closures check their
bodies against the captured environment when they are built, which keeps
every value well-formed and makes the syntactic read-back `from_val` total
on reachable values.

`eval_expr` and `apply_val` dispatch on the exact node class with an `is`
chain ordered by how often each class is met (variables, applications,
lambdas, constants, case), not through a table of handlers, so the recursion
passes through no frame besides these two. `Case`, `Lam` and `Fix` check the
whole node with `fits` once; only on a miss do they check each part in turn,
which names the first part that does not fit. `fits` and `_subst` each serve
types and expressions alike, as `lang.footprint` does. Constructors resolve
through the one table `GlobalEnv.constrs`. A constant whose body is a value
form (`_VALUE_FORMS`) is evaluated once per `GlobalEnv` and its result kept
in `GlobalEnv.const_values`; a later reference returns it whenever the body
would have had fuel to run. A `VConstr` keeps its hash once computed, for the
call memo in `chainsim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .lang import (
    App,
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
    Pat,
    PrimVal,
    TApp,
    TArr,
    TForall,
    TVar,
    Ty,
    TyAsExpr,
    TyLam,
    Var,
    closed_under,
    delta,
    footprint,
)


# ---------------------------------------------------------------------------
# values

class Val:
    __slots__ = ("_expr", "_hash")  # the read-back and the hash; see `lang.Ty`


@dataclass(frozen=True, slots=True)
class VConstr(Val):
    ind: str
    ctor: str
    args: tuple[Val, ...] = ()

    def __hash__(self) -> int:
        # `chainsim` hashes every contract call's arguments; a new state
        # mostly reuses the nodes of the one before, whose hashes are kept
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.ind, self.ctor, self.args))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class VClosLam(Val):
    env: tuple[Val, ...]
    hint: str
    dom: Ty  # closed type value
    body: Expr


@dataclass(frozen=True, slots=True)
class VClosFix(Val):
    env: tuple[Val, ...]
    f_hint: str
    x_hint: str
    dom: Ty
    cod: Ty
    body: Expr


@dataclass(frozen=True, slots=True)
class VTyClos(Val):
    env: tuple[Val, ...]
    hint: str
    body: Expr


@dataclass(frozen=True, slots=True)
class VTy(Val):
    ty: Ty


@dataclass(frozen=True, slots=True)
class VPrim(Val):
    prim: PrimVal


@dataclass(frozen=True, slots=True)
class VBuiltin(Val):
    """A primitive constant applied to fewer arguments than it needs."""

    name: str
    args: tuple[Val, ...] = ()


class EnvTrace:
    """Collects (environment, body) pairs at every point where evaluation
    extends its environment; feeds the substitution-commutation property."""

    def __init__(self, limit: Optional[int] = None):
        self.pairs: list[tuple[tuple[Val, ...], Expr]] = []
        self.limit = limit

    def record(self, rho: tuple[Val, ...], e: Expr) -> None:
        if self.limit is None or len(self.pairs) < self.limit:
            self.pairs.append((rho, e))


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
# pattern matching

def _select_branch(
    ctor: str,
    n_params: int,
    args: tuple[Val, ...],
    branches: tuple[tuple[Pat, Expr], ...],
) -> Optional[tuple[Expr, tuple[Val, ...]]]:
    for pat, body in branches:
        if pat.ctor != ctor:
            continue
        k = len(pat.binders)
        drop = len(args) - k
        if drop < 0 or drop > n_params:
            return None
        if drop and not all(isinstance(a, VTy) for a in args[:drop]):
            return None
        return body, args[drop:]
    return None


# ---------------------------------------------------------------------------
# evaluation

# Constant bodies that evaluate in the empty environment to one value at any
# fuel of at least one, without a recursive call; `eval_expr` keeps that value
# in `GlobalEnv.const_values`.
_VALUE_FORMS = (Lam, TyLam, Fix, Lit)


def eval_expr(
    genv: GlobalEnv,
    fuel: int,
    rho: Sequence[Val],
    e: Expr,
    trace: Optional[EnvTrace] = None,
) -> EvalResult:
    if fuel <= 0:
        return NOT_ENOUGH_FUEL
    n = fuel - 1
    t = type(e)
    if t is Var:
        ref = e.ref
        if not 0 <= ref < len(rho):
            return EvalError(f"unbound variable index {ref}")
        return Ok(rho[ref])
    if t is App:
        # the argument evaluates first
        r2 = eval_expr(genv, n, rho, e.arg, trace)
        if type(r2) is not Ok:
            return r2
        r1 = eval_expr(genv, n, rho, e.fn, trace)
        if type(r1) is not Ok:
            return r1
        return apply_val(genv, n, r1.value, r2.value, trace)
    if t is Lam:
        if fits(rho, 0, e):
            dom_v = _subst(rho, 0, e.dom)
        else:
            if not fits(rho, 1, e.body):
                return EvalError("lambda body does not fit its environment")
            dom_v = eval_type(rho, e.dom)
            if dom_v is None:
                return EvalError("lambda domain refers to a term-level binding")
        return Ok(VClosLam(tuple(rho), e.hint, dom_v, e.body))
    if t is Const:
        kept = genv.const_values.get(e.name)
        if kept is not None:
            return kept if n > 0 else NOT_ENOUGH_FUEL
        defn = genv.constants.get(e.name)
        if defn is None:
            return EvalError(f"unknown constant '{e.name}'")
        if isinstance(defn, Builtin):
            return Ok(VBuiltin(e.name, ()))
        # constant bodies are closed, so they run in the empty environment
        r = eval_expr(genv, n, (), defn, trace)
        if type(r) is Ok and type(defn) in _VALUE_FORMS:
            genv.const_values[e.name] = r
        return r
    if t is Case:
        if not fits(rho, 0, e):
            # some part misfits: report the first, in this order; when every
            # check below passes, the misfit is in the scrutinee
            if not all(fits(rho, len(p.binders), b) for p, b in e.branches):
                return EvalError("case branch does not fit its environment")
            if not fits(rho, 0, e.ret_ty):
                return EvalError("case return type refers to a term-level binding")
            for tp in e.ty_params:
                if not fits(rho, 0, tp):
                    return EvalError("case type parameter refers to a term-level binding")
        r = eval_expr(genv, n, rho, e.scrut, trace)
        if type(r) is not Ok:
            return r
        v = r.value
        if type(v) is not VConstr:
            return EvalError("case on a non-constructor value")
        hit = genv.constrs.get((v.ind, v.ctor))
        if hit is None:
            return EvalError(f"unknown constructor '{v.ctor}' of '{v.ind}'")
        if v.ind != e.ind:
            return EvalError(f"scrutinee of '{v.ind}' matched against '{e.ind}'")
        found = _select_branch(v.ctor, hit[2].num_params, v.args, e.branches)
        if found is None:
            return EvalError(f"no branch fits constructor '{v.ctor}'")
        body, value_args = found
        rho2 = tuple(reversed(value_args)) + tuple(rho)
        if trace is not None:
            trace.record(rho2, body)
        return eval_expr(genv, n, rho2, body, trace)
    if t is Let:
        r = eval_expr(genv, n, rho, e.bound, trace)
        if type(r) is not Ok:
            return r
        rho2 = (r.value,) + tuple(rho)
        if trace is not None:
            trace.record(rho2, e.body)
        return eval_expr(genv, n, rho2, e.body, trace)
    if t is Constr:
        if (e.ind, e.ctor) not in genv.constrs:
            return EvalError(f"unknown constructor '{e.ctor}' of '{e.ind}'")
        return Ok(VConstr(e.ind, e.ctor, ()))
    if t is Lit:
        return Ok(VPrim(e.value))
    if t is Fix:
        if fits(rho, 0, e):
            dom_v = _subst(rho, 0, e.dom)
            cod_v = _subst(rho, 0, e.cod)
        else:
            dom_v = eval_type(rho, e.dom)
            if dom_v is None:
                return EvalError("fixpoint domain refers to a term-level binding")
            cod_v = eval_type(rho, e.cod)
            if cod_v is None:
                return EvalError("fixpoint codomain refers to a term-level binding")
            if not fits(rho, 2, e.body):
                return EvalError("fixpoint body does not fit its environment")
        return Ok(VClosFix(tuple(rho), e.f_hint, e.x_hint, dom_v, cod_v, e.body))
    if t is TyLam:
        return Ok(VTyClos(tuple(rho), e.hint, e.body))
    if t is TyAsExpr:
        ty_v = eval_type(rho, e.ty)
        if ty_v is None:
            return EvalError("type argument refers to a term-level binding")
        return Ok(VTy(ty_v))
    raise TypeError(f"not an expression: {e!r}")


def apply_val(
    genv: GlobalEnv,
    fuel: int,
    v1: Val,
    v2: Val,
    trace: Optional[EnvTrace] = None,
) -> EvalResult:
    """Apply an evaluated function to an evaluated argument at the same fuel
    the surrounding application step runs at."""
    t = type(v1)
    if t is VClosLam:
        rho2 = (v2,) + v1.env
        if trace is not None:
            trace.record(rho2, v1.body)
        return eval_expr(genv, fuel, rho2, v1.body, trace)
    if t is VConstr:
        hit = genv.constrs.get((v1.ind, v1.ctor))
        if hit is None:
            return EvalError(f"unknown constructor '{v1.ctor}' of '{v1.ind}'")
        if len(v1.args) >= hit[2].num_params + len(hit[1].arg_tys):
            return EvalError(f"constructor '{v1.ctor}' applied to too many arguments")
        return Ok(VConstr(v1.ind, v1.ctor, v1.args + (v2,)))
    if t is VBuiltin:
        b = genv.constants.get(v1.name)
        if not isinstance(b, Builtin):
            return EvalError(f"unknown primitive '{v1.name}'")
        args2 = v1.args + (v2,)
        if len(args2) < len(b.arg_kinds):
            return Ok(VBuiltin(v1.name, args2))
        out = delta(b, [a.prim if isinstance(a, VPrim) else None for a in args2])
        if isinstance(out, EvalError):
            return out
        if isinstance(out, bool):
            return Ok(VConstr("Bool", "True" if out else "False"))
        return Ok(VPrim(out))
    if t is VClosFix:
        # primitive literals act as constructor forms for the fix guard
        if not isinstance(v2, (VConstr, VPrim)):
            return EvalError("fixpoint applied to a non-constructor value")
        rho2 = (v2, v1) + v1.env
        if trace is not None:
            trace.record(rho2, v1.body)
        return eval_expr(genv, fuel, rho2, v1.body, trace)
    if t is VTyClos:
        if not isinstance(v2, VTy):
            return EvalError("type abstraction applied to a term value")
        rho2 = (v2,) + v1.env
        if trace is not None:
            trace.record(rho2, v1.body)
        return eval_expr(genv, fuel, rho2, v1.body, trace)
    return EvalError("application of a non-function value")


# ---------------------------------------------------------------------------
# value well-formedness

def wf_val(genv: GlobalEnv, v: Val) -> bool:
    match v:
        case VConstr(ind, ctor, args):
            hit = genv.constrs.get((ind, ctor))
            if hit is None or len(args) > hit[2].num_params + len(hit[1].arg_tys):
                return False
            return all(wf_val(genv, a) for a in args)
        case VClosLam(env, _, dom, body):
            return (
                all(wf_val(genv, x) for x in env)
                and closed_under(0, dom)
                and fits(env, 1, body)
            )
        case VClosFix(env, _, _, dom, cod, body):
            return (
                all(wf_val(genv, x) for x in env)
                and closed_under(0, dom)
                and closed_under(0, cod)
                and fits(env, 2, body)
            )
        case VTyClos(env, _, body):
            return all(wf_val(genv, x) for x in env) and fits(env, 1, body)
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
# payload is closed.

def _subst(
    rho: Sequence[Union[Expr, Val]], depth: int, node: Union[Ty, Expr]
) -> Union[Ty, Expr]:
    if footprint(node)[0] <= depth:
        return node
    match node:
        case Var(ref):
            j = ref - depth
            return rho[j] if j < len(rho) else Var(ref - len(rho))
        case Lam(hint, dom, body):
            return Lam(hint, _subst(rho, depth, dom), _subst(rho, depth + 1, body))
        case TyLam(hint, body) | TForall(hint, body):
            return type(node)(hint, _subst(rho, depth + 1, body))
        case Let(hint, ty, bound, body):
            return Let(
                hint,
                _subst(rho, depth, ty),
                _subst(rho, depth, bound),
                _subst(rho, depth + 1, body),
            )
        case App(fn, arg) | TApp(fn, arg) | TArr(fn, arg):
            return type(node)(_subst(rho, depth, fn), _subst(rho, depth, arg))
        case Case(scrut, ind, ty_params, ret_ty, branches):
            return Case(
                _subst(rho, depth, scrut),
                ind,
                tuple(_subst(rho, depth, tp) for tp in ty_params),
                _subst(rho, depth, ret_ty),
                tuple((p, _subst(rho, depth + len(p.binders), b)) for p, b in branches),
            )
        case Fix(f_hint, x_hint, dom, cod, body):
            return Fix(
                f_hint,
                x_hint,
                _subst(rho, depth, dom),
                _subst(rho, depth, cod),
                _subst(rho, depth + 2, body),
            )
        case TyAsExpr(ty):
            return TyAsExpr(_subst(rho, depth, ty))
        case TVar(ref):
            j = ref - depth
            return rho[j].ty if j < len(rho) else TVar(ref - len(rho))
    raise TypeError(f"not a type or expression: {node!r}")


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
    match v:
        case VConstr(ind, ctor, args):
            e = Constr(ind, ctor)
            for a in args:
                fa = from_val(a)
                if fa is None:
                    e = None
                    break
                e = App(e, fa)
        case VClosLam(env, hint, dom, body):
            e = close_env(env, Lam(hint, dom, body))
        case VClosFix(env, f_hint, x_hint, dom, cod, body):
            e = close_env(env, Fix(f_hint, x_hint, dom, cod, body))
        case VTyClos(env, hint, body):
            e = close_env(env, TyLam(hint, body))
        case VTy(ty):
            e = TyAsExpr(ty)
        case VPrim(p):
            e = Lit(p)
        case VBuiltin(name, args):
            e = Const(name)
            for a in args:
                fa = from_val(a)
                if fa is None:
                    e = None
                    break
                e = App(e, fa)
        case _:
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
