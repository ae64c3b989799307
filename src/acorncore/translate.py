"""Translation from the surface AST into the kernel calculus.

Because both sides share one de Bruijn space, variables and type variables
map index-for-index; type abstraction becomes an ordinary lambda over Set,
and the arrow's codomain is lifted under the unnamed binder a dependent
product introduces. Case branches, stored by name on the surface side, are
reordered into declaration order to fit the kernel's positional match.
One walker, `expr_to_term`, translates types and expressions alike; it
dispatches on the exact node class with an `is` chain ordered by how often
each class is met, as `interp.py`'s evaluator does.
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
    Expr,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    Let,
    Lit,
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
# types and expressions

def expr_to_term(genv: GlobalEnv, e: Union[Expr, Ty]) -> k.Term:
    """Translate an expression or a type under `genv`.

    Translation reads the environment only through its inductive
    declarations, which `add_inductive` extends but never changes. So a
    successful translation is kept on the node together with the declaration
    list it was made under, and is reused whenever the node meets that same
    list again. The list, not the environment, is the key: the environment
    owns the constant bodies, and a reference back to it from them would make
    a cycle. Errors are not kept. The check sits in this one recursive
    function, so caching adds no Python frame per tree level, and a `case`
    builds its branches in loops of its own, so it adds none either."""
    decls = genv.inductives
    hit = getattr(e, "_term", None)
    if hit is not None and hit[0] is decls:
        return hit[1]
    c = type(e)
    if c is App or c is TApp:
        t: k.Term = k.App(expr_to_term(genv, e.fn), expr_to_term(genv, e.arg))
    elif c is TInd:
        t = k.Ind(e.name)
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
        params = []
        for tp in e.ty_params:
            params.append(expr_to_term(genv, tp))
        ret_ty = k.lift(1, 0, expr_to_term(genv, e.ret_ty))
        scrut = expr_to_term(genv, e.scrut)
        # one kernel branch per constructor, in declaration order: the body
        # of its branch under one lambda per argument. An argument type names
        # the last parameter `^0`, so it is instantiated by the parameters
        # reversed; the i-th is stated under the i preceding binders, so they
        # are lifted by i
        inst = params[::-1]
        branches = []
        for con in decl.constrs:
            for pat, body in e.branches:
                if pat.ctor == con.name:
                    break
            else:
                raise TranslateError(f"no branch for constructor '{con.name}'")
            arity = len(con.arg_tys)
            if len(pat.binders) != arity:
                raise TranslateError(
                    f"branch for '{con.name}' binds {len(pat.binders)} names, expected {arity}"
                )
            doms = []
            for i, sigma in enumerate(con.arg_tys):
                lifted = tuple(k.lift(i, 0, pt) for pt in inst)
                doms.append(k.parallel_subst(lifted, expr_to_term(genv, sigma)))
            cur = expr_to_term(genv, body)
            for hint, dom in zip(reversed(pat.binders), reversed(doms)):
                cur = k.Lambda(hint, dom, cur)
            branches.append((arity, cur))
        t = k.Match(ind, decl.num_params, tuple(params), ret_ty, scrut, tuple(branches))
    elif c is TyAsExpr:
        t = expr_to_term(genv, e.ty)
    elif c is Const:
        t = k.Const(e.name)
    elif c is Lam:
        t = k.Lambda(e.hint, expr_to_term(genv, e.dom), expr_to_term(genv, e.body))
    elif c is Var or c is TVar:
        t = k.Rel(e.ref)
    elif c is TArr:
        # the product binds an anonymous variable the codomain never uses
        dom = expr_to_term(genv, e.dom)
        t = k.Prod(None, dom, k.lift(1, 0, expr_to_term(genv, e.cod)))
    elif c is Fix:
        fty = expr_to_term(genv, TArr(e.dom, e.cod))
        inner = k.Lambda(e.x_hint, k.lift(1, 0, fty.dom), expr_to_term(genv, e.body))
        t = k.Fix(e.f_hint, fty, inner)
    elif c is Let:
        t = k.LetIn(
            e.hint,
            expr_to_term(genv, e.ty),
            expr_to_term(genv, e.bound),
            expr_to_term(genv, e.body),
        )
    elif c is TyLam:
        t = k.Lambda(e.hint, k.SORT_SET, expr_to_term(genv, e.body))
    elif c is TForall:
        t = k.Prod(e.hint, k.SORT_SET, expr_to_term(genv, e.body))
    else:
        raise TypeError(f"not an expression or a type: {e!r}")
    object.__setattr__(e, "_term", (decls, t))
    return t


# ---------------------------------------------------------------------------
# declarations

def decl_to_kernel(d: InductiveDecl) -> k.KernelInductive:
    """Pack a declaration into kernel form.

    A constructor argument's `^0` is the inductive's last parameter, `^1`
    the one before it, and so on. Within the j-th argument, index m refers
    to that parameter counting past the j preceding argument binders, and a
    mention of the inductive itself sits one block further out; the result
    type reapplies the inductive to all parameters, first to last, from under
    every argument binder."""
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
