"""Translation from the surface AST into the kernel calculus.

Because both sides share one de Bruijn space, variables and type variables
map index-for-index; type abstraction becomes an ordinary lambda over Set,
and the arrow's codomain is lifted under the unnamed binder a dependent
product introduces. Case branches, stored by name on the surface side, are
reordered into declaration order to fit the kernel's positional match.
"""

from __future__ import annotations

from typing import Union

from . import kernel as k
from .lang import (
    App,
    Builtin,
    Case,
    Const,
    Constr,
    ConstrDecl,
    Expr,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    Let,
    Lit,
    Pat,
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    Ty,
    TyAsExpr,
    TyLam,
    Var,
)


class TranslateError(Exception):
    pass


class MissingInductive(TranslateError):
    def __init__(self, name: str):
        super().__init__(f"inductive '{name}' is not declared")
        self.name = name


class MissingConstructor(TranslateError):
    def __init__(self, ind: str, ctor: str):
        super().__init__(f"constructor '{ctor}' is not declared in '{ind}'")
        self.ind = ind
        self.ctor = ctor


class MissingBranch(TranslateError):
    def __init__(self, ctor: str):
        super().__init__(f"no branch for constructor '{ctor}'")
        self.ctor = ctor


# ---------------------------------------------------------------------------
# types

def ty_to_term(ty: Ty) -> k.Term:
    """Translate a type. The result depends on the type alone, so it is kept
    on the node."""
    t = getattr(ty, "_term", None)
    if t is not None:
        return t
    match ty:
        case TVar(ref):
            if not isinstance(ref, int):
                raise TranslateError(f"named type variable '{ref}' in translation")
            t = k.Rel(ref)
        case TInd(name):
            t = k.Ind(name)
        case TForall(hint, body):
            t = k.Prod(hint, k.SORT_SET, ty_to_term(body))
        case TApp(fn, arg):
            t = k.App(ty_to_term(fn), ty_to_term(arg))
        case TArr(dom, cod):
            # the product binds an anonymous variable the codomain never uses
            t = k.Prod(None, ty_to_term(dom), k.lift(1, 0, ty_to_term(cod)))
        case _:
            raise TypeError(f"not a type: {ty!r}")
    object.__setattr__(ty, "_term", t)
    return t


# ---------------------------------------------------------------------------
# expressions

def expr_to_term(genv: GlobalEnv, e: Expr) -> k.Term:
    """Translate an expression under `genv`.

    Translation reads the environment only through its inductive
    declarations, which `add_inductive` extends but never changes. So a
    successful translation is kept on the node together with the declaration
    list it was made under, and is reused whenever the node meets that same
    list again. The list, not the environment, is the key: the environment
    owns the constant bodies, and a reference back to it from them would make
    a cycle. Errors are not kept. The check sits in this one recursive
    function, so caching adds no Python frame per tree level."""
    decls = genv.inductives
    hit = getattr(e, "_term", None)
    if hit is not None and hit[0] is decls:
        return hit[1]
    match e:
        case Var(ref):
            if not isinstance(ref, int):
                raise TranslateError(f"named variable '{ref}' in translation")
            t: k.Term = k.Rel(ref)
        case Lam(hint, dom, body):
            t = k.Lambda(hint, ty_to_term(dom), expr_to_term(genv, body))
        case TyLam(hint, body):
            t = k.Lambda(hint, k.SORT_SET, expr_to_term(genv, body))
        case Let(hint, ty, bound, body):
            t = k.LetIn(
                hint,
                ty_to_term(ty),
                expr_to_term(genv, bound),
                expr_to_term(genv, body),
            )
        case App(fn, arg):
            t = k.App(expr_to_term(genv, fn), expr_to_term(genv, arg))
        case Constr(ind, ctor):
            decl = genv.find_inductive(ind)
            if decl is None:
                raise MissingInductive(ind)
            for i, c in enumerate(decl.constrs):
                if c.name == ctor:
                    t = k.Construct(ind, i)
                    break
            else:
                raise MissingConstructor(ind, ctor)
        case Case(scrut, ind, ty_params, ret_ty, branches):
            decl = genv.find_inductive(ind)
            if decl is None:
                raise MissingInductive(ind)
            t = k.Match(
                ind,
                decl.num_params,
                tuple(ty_to_term(tp) for tp in ty_params),
                k.lift(1, 0, ty_to_term(ret_ty)),
                expr_to_term(genv, scrut),
                tuple(branch(ty_params, branches, c, genv) for c in decl.constrs),
            )
        case Fix(f_hint, x_hint, dom, cod, body):
            fty = k.Prod(None, ty_to_term(dom), k.lift(1, 0, ty_to_term(cod)))
            inner = k.Lambda(x_hint, k.lift(1, 0, ty_to_term(dom)), expr_to_term(genv, body))
            t = k.Fix(f_hint, fty, inner)
        case TyAsExpr(ty):
            t = ty_to_term(ty)
        case Const(name):
            t = k.Const(name)
        case Lit(p):
            t = k.PrimLit(p)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_term", (decls, t))
    return t


def branch(
    ty_params: tuple[Ty, ...],
    branches: tuple[tuple[Pat, Expr], ...],
    c: ConstrDecl,
    genv: GlobalEnv,
) -> tuple[int, k.Term]:
    """One kernel branch: the named branch body wrapped in one lambda per
    constructor argument. The i-th argument type is stated under i preceding
    binders, so the instantiating type parameters are lifted accordingly."""
    for pat, body in branches:
        if pat.ctor == c.name:
            break
    else:
        raise MissingBranch(c.name)
    arity = len(c.arg_tys)
    if len(pat.binders) != arity:
        raise TranslateError(
            f"branch for '{c.name}' binds {len(pat.binders)} names, expected {arity}"
        )
    param_terms = [ty_to_term(t) for t in ty_params]
    doms: list[k.Term] = []
    for i, sigma in enumerate(c.arg_tys):
        lifted = tuple(k.lift(i, 0, pt) for pt in param_terms)
        doms.append(k.parallel_subst(lifted, ty_to_term(sigma)))
    cur = expr_to_term(genv, body)
    for hint, dom in zip(reversed(pat.binders), reversed(doms)):
        cur = k.Lambda(hint, dom, cur)
    return arity, cur


# ---------------------------------------------------------------------------
# declarations

def decl_to_kernel(d: InductiveDecl) -> k.KernelInductive:
    """Pack a declaration into kernel form.

    Within the j-th constructor argument, index m refers to parameter m
    counting past the j preceding argument binders, and a mention of the
    inductive itself sits one block further out; the result type reapplies
    the inductive to all parameters from under every argument binder."""
    p = d.num_params
    ctors = []
    for c in d.constrs:
        arity = len(c.arg_tys)
        arg_terms = tuple(
            _ctor_arg(d.name, p, j, t) for j, t in enumerate(c.arg_tys)
        )
        res: k.Term = k.Rel(arity + p)
        for m in range(p):
            res = k.App(res, k.Rel(arity + p - 1 - m))
        ctors.append(k.KernelCtor(c.name, arity, arg_terms, res))
    return k.KernelInductive(d.name, p, tuple(ctors))


def _ctor_arg(self_name: str, p: int, j: int, ty: Ty, depth: int = 0) -> k.Term:
    match ty:
        case TVar(ref):
            if not isinstance(ref, int):
                raise TranslateError(f"named type variable '{ref}' in a declaration")
            return k.Rel(depth + j + ref)
        case TInd(name):
            if name == self_name:
                return k.Rel(depth + j + p)
            return k.Ind(name)
        case TApp(fn, arg):
            return k.App(
                _ctor_arg(self_name, p, j, fn, depth),
                _ctor_arg(self_name, p, j, arg, depth),
            )
        case TArr(dom, cod):
            return k.Prod(
                None,
                _ctor_arg(self_name, p, j, dom, depth),
                _ctor_arg(self_name, p, j, cod, depth + 1),
            )
        case TForall(_, _):
            raise TranslateError(
                "universal types inside constructor arguments are not supported"
            )
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# whole environments

def translate_env(genv: GlobalEnv) -> k.KernelEnv:
    """Translate every declaration and constant; resolution failures carry
    the offending definition's name."""
    inductives: dict[str, k.KernelInductive] = {}
    for d in genv.inductives:
        inductives[d.name] = decl_to_kernel(d)
    constants: dict[str, k.Term] = {}
    builtins: dict[str, Builtin] = {}
    for name, body in genv.constants.items():
        if isinstance(body, Builtin):
            builtins[name] = body
            continue
        try:
            constants[name] = expr_to_term(genv, body)
        except TranslateError as err:
            err.args = (f"in constant '{name}': {err}",)
            raise
    return k.KernelEnv(inductives, constants, builtins)
