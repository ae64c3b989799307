"""Translation from the surface AST into the kernel calculus.

Because both sides share one de Bruijn space, variables and type variables
map index-for-index; type abstraction becomes an ordinary lambda over Set,
and the arrow's codomain is lifted under the unnamed binder a dependent
product introduces. Case branches, stored by name on the surface side, are
reordered into declaration order to fit the kernel's positional match.
`ty_to_term` and `expr_to_term` dispatch on the exact node class with an `is`
chain ordered by how often each class is met, as `interp.py`'s evaluator
does.
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


# ---------------------------------------------------------------------------
# types

def ty_to_term(ty: Ty) -> k.Term:
    """Translate a type. The result depends on the type alone, so it is kept
    on the node."""
    t = getattr(ty, "_term", None)
    if t is not None:
        return t
    c = type(ty)
    if c is TApp:
        t = k.App(ty_to_term(ty.fn), ty_to_term(ty.arg))
    elif c is TArr:
        # the product binds an anonymous variable the codomain never uses
        t = k.Prod(None, ty_to_term(ty.dom), k.lift(1, 0, ty_to_term(ty.cod)))
    elif c is TInd:
        t = k.Ind(ty.name)
    elif c is TVar:
        t = k.Rel(ty.ref)
    elif c is TForall:
        t = k.Prod(ty.hint, k.SORT_SET, ty_to_term(ty.body))
    else:
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
    c = type(e)
    if c is App:
        t: k.Term = k.App(expr_to_term(genv, e.fn), expr_to_term(genv, e.arg))
    elif c is Lit:
        t = k.PrimLit(e.value)
    elif c is Constr:
        hit = genv.constrs.get((e.ind, e.ctor))
        if hit is None:
            if not genv.has_inductive(e.ind):
                raise TranslateError(f"inductive '{e.ind}' is not declared")
            raise TranslateError(f"constructor '{e.ctor}' is not declared in '{e.ind}'")
        t = k.Construct(e.ind, hit[0])
    elif c is Case:
        ind = e.ind
        decl = genv.find_inductive(ind)
        if decl is None:
            raise TranslateError(f"inductive '{ind}' is not declared")
        t = k.Match(
            ind,
            decl.num_params,
            tuple(ty_to_term(tp) for tp in e.ty_params),
            k.lift(1, 0, ty_to_term(e.ret_ty)),
            expr_to_term(genv, e.scrut),
            tuple(branch(e.ty_params, e.branches, con, genv) for con in decl.constrs),
        )
    elif c is TyAsExpr:
        t = ty_to_term(e.ty)
    elif c is Const:
        t = k.Const(e.name)
    elif c is Lam:
        t = k.Lambda(e.hint, ty_to_term(e.dom), expr_to_term(genv, e.body))
    elif c is Var:
        t = k.Rel(e.ref)
    elif c is Fix:
        dom = ty_to_term(e.dom)
        fty = k.Prod(None, dom, k.lift(1, 0, ty_to_term(e.cod)))
        inner = k.Lambda(e.x_hint, k.lift(1, 0, dom), expr_to_term(genv, e.body))
        t = k.Fix(e.f_hint, fty, inner)
    elif c is Let:
        t = k.LetIn(
            e.hint,
            ty_to_term(e.ty),
            expr_to_term(genv, e.bound),
            expr_to_term(genv, e.body),
        )
    elif c is TyLam:
        t = k.Lambda(e.hint, k.SORT_SET, expr_to_term(genv, e.body))
    else:
        raise TypeError(f"not an expression: {e!r}")
    object.__setattr__(e, "_term", (decls, t))
    return t


def branch(
    ty_params: tuple[Ty, ...],
    branches: tuple[tuple[Pat, Expr], ...],
    c: ConstrDecl,
    genv: GlobalEnv,
) -> tuple[int, k.Term]:
    """One kernel branch: the body of the branch for `c` wrapped in one
    lambda per constructor argument. The i-th argument type is stated under i
    preceding binders, so the instantiating type parameters are lifted
    accordingly."""
    for pat, body in branches:
        if pat.ctor == c.name:
            break
    else:
        raise TranslateError(f"no branch for constructor '{c.name}'")
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
