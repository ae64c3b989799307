"""Environment-passing reference interpreter.

Evaluation is fuel-limited: every recursive call runs at one unit less, so
fuel bounds call depth rather than step count, and any result reached with
fuel n is reached identically with any larger amount. Closures validate their
bodies against the captured environment when they are built, which keeps every
value well-formed and makes the syntactic read-back `from_val` total on
reachable values.
"""

from __future__ import annotations

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
    Footprint,
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
    TInd,
    TVar,
    Ty,
    TyAsExpr,
    TyLam,
    Var,
    delta,
    expr_footprint,
    resolve_constr,
    ty_closed_under,
    ty_footprint,
)


# ---------------------------------------------------------------------------
# values

class Val:
    __slots__ = ("_expr",)  # the read-back; see `lang.Ty`


@dataclass(frozen=True, slots=True)
class VConstr(Val):
    ind: str
    ctor: str
    args: tuple[Val, ...] = ()


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


def is_constr_like(v: Val) -> bool:
    # primitive literals act as constructor forms for the fix guard
    return isinstance(v, (VConstr, VPrim))


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

def eval_type(rho: Sequence[Val], ty: Ty, depth: int = 0) -> Optional[Ty]:
    """Resolve environment references inside a type. Indices below `depth`
    are bound locally and stay; the rest must hit a type entry (whose payload
    is closed, so no shifting is needed). None marks a term-level hit."""
    match ty:
        case TVar(ref):
            if not isinstance(ref, int):
                return None
            if ref < depth:
                return ty
            i = ref - depth
            if i >= len(rho):
                return None
            entry = rho[i]
            if isinstance(entry, VTy):
                return entry.ty
            return None
        case TInd(_):
            return ty
        case TForall(hint, body):
            b = eval_type(rho, body, depth + 1)
            return None if b is None else TForall(hint, b)
        case TApp(fn, arg):
            f = eval_type(rho, fn, depth)
            if f is None:
                return None
            a = eval_type(rho, arg, depth)
            return None if a is None else TApp(f, a)
        case TArr(dom, cod):
            d = eval_type(rho, dom, depth)
            if d is None:
                return None
            c = eval_type(rho, cod, depth)
            return None if c is None else TArr(d, c)
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# environment fit (validate)

def validate(rho: Sequence[Val], n_extra: int, e: Expr) -> bool:
    """True when `e` fits `rho` extended by `n_extra` yet-unknown entries:
    it is closed under the combined length and every type position that
    reaches into `rho` lands on a type entry. Reads the node's cached
    footprint, so it costs O(free type references), not O(size of `e`)."""
    return _fits(rho, n_extra, expr_footprint(e))


def _fits(rho: Sequence[Val], n_extra: int, fp: Footprint) -> bool:
    if fp[0] > len(rho) + n_extra:
        return False
    for j in fp[1]:
        if j >= n_extra and not isinstance(rho[j - n_extra], VTy):
            return False
    return True


def validate_branches(
    rho: Sequence[Val], branches: tuple[tuple[Pat, Expr], ...]
) -> bool:
    return all(validate(rho, len(p.binders), b) for p, b in branches)


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
        if not all(isinstance(a, VTy) for a in args[:drop]):
            return None
        return body, args[drop:]
    return None


# ---------------------------------------------------------------------------
# evaluation

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
    match e:
        case Var(ref):
            if not isinstance(ref, int):
                return EvalError(f"named variable '{ref}' reached evaluation")
            if ref >= len(rho):
                return EvalError(f"unbound variable index {ref}")
            return Ok(rho[ref])
        case Lit(p):
            return Ok(VPrim(p))
        case Lam(hint, dom, body):
            if not validate(rho, 1, body):
                return EvalError("lambda body does not fit its environment")
            dom_v = eval_type(rho, dom)
            if dom_v is None:
                return EvalError("lambda domain refers to a term-level binding")
            return Ok(VClosLam(tuple(rho), hint, dom_v, body))
        case TyLam(hint, body):
            return Ok(VTyClos(tuple(rho), hint, body))
        case TyAsExpr(ty):
            ty_v = eval_type(rho, ty)
            if ty_v is None:
                return EvalError("type argument refers to a term-level binding")
            return Ok(VTy(ty_v))
        case Const(name):
            defn = genv.constants.get(name)
            if defn is None:
                return EvalError(f"unknown constant '{name}'")
            if isinstance(defn, Builtin):
                return Ok(VBuiltin(name, ()))
            # constant bodies are closed, so they run in the empty environment
            return eval_expr(genv, n, (), defn, trace)
        case Constr(ind, ctor):
            if resolve_constr(genv, ind, ctor) is None:
                return EvalError(f"unknown constructor '{ctor}' of '{ind}'")
            return Ok(VConstr(ind, ctor, ()))
        case Let(_, _, bound, body):
            r = eval_expr(genv, n, rho, bound, trace)
            if not isinstance(r, Ok):
                return r
            rho2 = (r.value,) + tuple(rho)
            if trace is not None:
                trace.record(rho2, body)
            return eval_expr(genv, n, rho2, body, trace)
        case App(fn, arg):
            # the argument evaluates first
            r2 = eval_expr(genv, n, rho, arg, trace)
            if not isinstance(r2, Ok):
                return r2
            r1 = eval_expr(genv, n, rho, fn, trace)
            if not isinstance(r1, Ok):
                return r1
            return apply_val(genv, n, r1.value, r2.value, trace)
        case Fix(f_hint, x_hint, dom, cod, body):
            dom_v = eval_type(rho, dom)
            if dom_v is None:
                return EvalError("fixpoint domain refers to a term-level binding")
            cod_v = eval_type(rho, cod)
            if cod_v is None:
                return EvalError("fixpoint codomain refers to a term-level binding")
            if not validate(rho, 2, body):
                return EvalError("fixpoint body does not fit its environment")
            return Ok(VClosFix(tuple(rho), f_hint, x_hint, dom_v, cod_v, body))
        case Case(scrut, ind, ty_params, ret_ty, branches):
            if not validate_branches(rho, branches):
                return EvalError("case branch does not fit its environment")
            if not _fits(rho, 0, ty_footprint(ret_ty)):
                return EvalError("case return type refers to a term-level binding")
            for tp in ty_params:
                if not _fits(rho, 0, ty_footprint(tp)):
                    return EvalError("case type parameter refers to a term-level binding")
            r = eval_expr(genv, n, rho, scrut, trace)
            if not isinstance(r, Ok):
                return r
            v = r.value
            if not isinstance(v, VConstr):
                return EvalError("case on a non-constructor value")
            hit = resolve_constr(genv, v.ind, v.ctor)
            if hit is None:
                return EvalError(f"unknown constructor '{v.ctor}' of '{v.ind}'")
            if v.ind != ind:
                return EvalError(
                    f"scrutinee of '{v.ind}' matched against '{ind}'"
                )
            decl = genv.find_inductive(ind)
            found = _select_branch(v.ctor, decl.num_params, v.args, branches)
            if found is None:
                return EvalError(f"no branch fits constructor '{v.ctor}'")
            body, value_args = found
            rho2 = tuple(reversed(value_args)) + tuple(rho)
            if trace is not None:
                trace.record(rho2, body)
            return eval_expr(genv, n, rho2, body, trace)
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
    match v1:
        case VClosLam(env, _, _, body):
            rho2 = (v2,) + env
            if trace is not None:
                trace.record(rho2, body)
            return eval_expr(genv, fuel, rho2, body, trace)
        case VClosFix(env, _, _, _, _, body):
            if not is_constr_like(v2):
                return EvalError("fixpoint applied to a non-constructor value")
            rho2 = (v2, v1) + env
            if trace is not None:
                trace.record(rho2, body)
            return eval_expr(genv, fuel, rho2, body, trace)
        case VTyClos(env, _, body):
            if not isinstance(v2, VTy):
                return EvalError("type abstraction applied to a term value")
            rho2 = (v2,) + env
            if trace is not None:
                trace.record(rho2, body)
            return eval_expr(genv, fuel, rho2, body, trace)
        case VConstr(ind, ctor, args):
            hit = resolve_constr(genv, ind, ctor)
            if hit is None:
                return EvalError(f"unknown constructor '{ctor}' of '{ind}'")
            decl = genv.find_inductive(ind)
            limit = decl.num_params + len(hit[1].arg_tys)
            if len(args) >= limit:
                return EvalError(f"constructor '{ctor}' applied to too many arguments")
            return Ok(VConstr(ind, ctor, args + (v2,)))
        case VBuiltin(name, args):
            b = genv.constants.get(name)
            if not isinstance(b, Builtin):
                return EvalError(f"unknown primitive '{name}'")
            args2 = args + (v2,)
            if len(args2) < len(b.arg_kinds):
                return Ok(VBuiltin(name, args2))
            out = delta(b, [a.prim if isinstance(a, VPrim) else None for a in args2])
            if isinstance(out, EvalError):
                return out
            if isinstance(out, bool):
                return Ok(VConstr("Bool", "True" if out else "False"))
            return Ok(VPrim(out))
        case _:
            return EvalError("application of a non-function value")


# ---------------------------------------------------------------------------
# value well-formedness

def wf_val(genv: GlobalEnv, v: Val) -> bool:
    match v:
        case VConstr(ind, ctor, args):
            hit = resolve_constr(genv, ind, ctor)
            if hit is None:
                return False
            decl = genv.find_inductive(ind)
            if len(args) > decl.num_params + len(hit[1].arg_tys):
                return False
            return all(wf_val(genv, a) for a in args)
        case VClosLam(env, _, dom, body):
            return (
                all(wf_val(genv, x) for x in env)
                and ty_closed_under(0, dom)
                and validate(env, 1, body)
            )
        case VClosFix(env, _, _, dom, cod, body):
            return (
                all(wf_val(genv, x) for x in env)
                and ty_closed_under(0, dom)
                and ty_closed_under(0, cod)
                and validate(env, 2, body)
            )
        case VTyClos(env, _, body):
            return all(wf_val(genv, x) for x in env) and validate(env, 1, body)
        case VTy(ty):
            return ty_closed_under(0, ty)
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
    indices past the block shift down. None when a type position would
    receive a term-level entry. A subtree closed under its local binders comes
    back as it is, keeping what is cached on it."""
    return _subst_expr(tuple(rho), 0, e)


def _subst_ty(rho: tuple[Expr, ...], depth: int, ty: Ty) -> Optional[Ty]:
    if ty_footprint(ty)[0] <= depth:
        return ty
    match ty:
        case TVar(ref):
            if not isinstance(ref, int):
                return None
            if ref < depth:
                return ty
            j = ref - depth
            if j < len(rho):
                entry = rho[j]
                if isinstance(entry, TyAsExpr):
                    return entry.ty  # closed, so no shift
                return None
            return TVar(ref - len(rho))
        case TForall(hint, body):
            b = _subst_ty(rho, depth + 1, body)
            return None if b is None else TForall(hint, b)
        case TApp(fn, arg):
            f = _subst_ty(rho, depth, fn)
            if f is None:
                return None
            a = _subst_ty(rho, depth, arg)
            return None if a is None else TApp(f, a)
        case TArr(dom, cod):
            d = _subst_ty(rho, depth, dom)
            if d is None:
                return None
            c = _subst_ty(rho, depth, cod)
            return None if c is None else TArr(d, c)
    raise TypeError(f"not a type: {ty!r}")


def _subst_expr(rho: tuple[Expr, ...], depth: int, e: Expr) -> Optional[Expr]:
    if expr_footprint(e)[0] <= depth:
        return e
    match e:
        case Var(ref):
            if not isinstance(ref, int):
                return None
            if ref < depth:
                return e
            j = ref - depth
            if j < len(rho):
                return rho[j]  # entries are closed, so no shift
            return Var(ref - len(rho))
        case Lam(hint, dom, body):
            d = _subst_ty(rho, depth, dom)
            if d is None:
                return None
            b = _subst_expr(rho, depth + 1, body)
            return None if b is None else Lam(hint, d, b)
        case TyLam(hint, body):
            b = _subst_expr(rho, depth + 1, body)
            return None if b is None else TyLam(hint, b)
        case Let(hint, ty, bound, body):
            t = _subst_ty(rho, depth, ty)
            if t is None:
                return None
            bo = _subst_expr(rho, depth, bound)
            if bo is None:
                return None
            b = _subst_expr(rho, depth + 1, body)
            return None if b is None else Let(hint, t, bo, b)
        case App(fn, arg):
            f = _subst_expr(rho, depth, fn)
            if f is None:
                return None
            a = _subst_expr(rho, depth, arg)
            return None if a is None else App(f, a)
        case Case(scrut, ind, ty_params, ret_ty, branches):
            s = _subst_expr(rho, depth, scrut)
            if s is None:
                return None
            tps: list[Ty] = []
            for tp in ty_params:
                t = _subst_ty(rho, depth, tp)
                if t is None:
                    return None
                tps.append(t)
            rt = _subst_ty(rho, depth, ret_ty)
            if rt is None:
                return None
            brs: list[tuple[Pat, Expr]] = []
            for p, b in branches:
                nb = _subst_expr(rho, depth + len(p.binders), b)
                if nb is None:
                    return None
                brs.append((p, nb))
            return Case(s, ind, tuple(tps), rt, tuple(brs))
        case Fix(f_hint, x_hint, dom, cod, body):
            d = _subst_ty(rho, depth, dom)
            if d is None:
                return None
            c = _subst_ty(rho, depth, cod)
            if c is None:
                return None
            b = _subst_expr(rho, depth + 2, body)
            return None if b is None else Fix(f_hint, x_hint, d, c, b)
        case TyAsExpr(ty):
            t = _subst_ty(rho, depth, ty)
            return None if t is None else TyAsExpr(t)
    raise TypeError(f"not an expression: {e!r}")


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
            e = _close(env, Lam(hint, dom, body))
        case VClosFix(env, f_hint, x_hint, dom, cod, body):
            e = _close(env, Fix(f_hint, x_hint, dom, cod, body))
        case VTyClos(env, hint, body):
            e = _close(env, TyLam(hint, body))
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


def _close(env: tuple[Val, ...], shell: Expr) -> Optional[Expr]:
    exprs: list[Expr] = []
    for x in env:
        fx = from_val(x)
        if fx is None:
            return None
        exprs.append(fx)
    return subst_env_expr(exprs, shell)
