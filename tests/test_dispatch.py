"""Every walker that dispatches on the exact node class handles every concrete
class of the trees it walks, and rejects anything else with `TypeError`.

The samples are built fresh for each test, so no cache kept on a node lets a
walker answer without reaching its dispatch. Each sample of a class with
children has a free index, so the substitution walkers, which return a
subtree closed under the cutoff as it is, reach the dispatch too. A class
added to `kernel.Term`, `lang.Ty`, `lang.Expr` or `interp.Val` without a
sample here fails `test_every_concrete_class_has_a_sample`."""

import sys

import pytest

from acorncore import interp, kernel as k, lang as L, translate


def kernel_samples() -> list:
    r0, r1 = k.Rel(0), k.Rel(1)
    return [
        r0,
        k.Lambda(None, r0, r1),
        k.App(r0, r0),
        k.LetIn(None, r0, r0, r1),
        k.Const("addInt"),
        k.Ind("Bool"),
        k.Construct("Bool", 0),
        k.Match("Bool", 0, (r0,), r1, r0, ((0, r0), (0, r0))),
        k.Fix(None, r0, r1),
        k.Prod(None, r0, r1),
        k.SortSet(),
        k.PrimLit(L.PInt(1)),
    ]


def ty_samples() -> list:
    return [
        L.TVar(0),
        L.TInd("Int"),
        L.TForall("a", L.TVar(1)),
        L.TApp(L.TVar(0), L.TVar(0)),
        L.TArr(L.TVar(0), L.TVar(0)),
    ]


def expr_samples() -> list:
    v0 = L.Var(0)
    return [
        v0,
        L.Lam("x", L.TVar(0), L.Var(1)),
        L.TyLam("a", L.Var(1)),
        L.Let("x", L.TVar(0), v0, L.Var(1)),
        L.App(v0, v0),
        L.Case(v0, "Bool", (), L.TVar(0), ((L.Pat("True"), v0), (L.Pat("False"), v0))),
        L.Constr("Bool", "True"),
        L.Fix("f", "x", L.TVar(0), L.TVar(0), L.Var(2)),
        L.TyAsExpr(L.TVar(0)),
        L.Const("addInt"),
        L.Lit(L.PInt(1)),
    ]


def val_samples() -> list:
    int_ty = L.TInd("Int")
    one = interp.VPrim(L.PInt(1))
    return [
        interp.VConstr("Bool", "True"),
        interp.VClos((one,), L.Lam("x", int_ty, L.Var(1))),
        interp.VClos((one,), L.Fix("f", "x", int_ty, int_ty, L.Var(2))),
        interp.VClos((one,), L.TyLam("a", L.Var(1))),
        interp.VTy(int_ty),
        one,
        interp.VBuiltin("addInt", (one,)),
    ]


def concrete(base: type) -> set:
    """The subclasses of `base` that its module names. A dataclass with
    `slots=True` is a new class, and the one it replaced may still be listed
    by `__subclasses__` until it is collected."""
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if getattr(sys.modules[sub.__module__], sub.__name__, None) is sub:
                found.add(sub)
            todo.append(sub)
    return found


@pytest.mark.parametrize(
    "base, samples",
    [
        (k.Term, kernel_samples),
        (L.Ty, ty_samples),
        (L.Expr, expr_samples),
        (interp.Val, val_samples),
    ],
    ids=["Term", "Ty", "Expr", "Val"],
)
def test_every_concrete_class_has_a_sample(base, samples):
    assert {type(s) for s in samples()} == concrete(base)


GENV = L.GlobalEnv(
    [L.InductiveDecl("Bool", 0, (L.ConstrDecl("True"), L.ConstrDecl("False")))]
)
KENV = k.KernelEnv({}, {}, {})
# one type entry: a `TVar` and a `Var` of index 0 both land on it
RHO_EXPR = (L.TyAsExpr(L.TInd("Int")),)
RHO_VAL = (interp.VTy(L.TInd("Int")),)


WALKERS = {
    "kernel.term_bound": (kernel_samples, k.term_bound),
    "kernel._subst": (kernel_samples, lambda t: k._subst((k.Rel(5),), 0, 0, t)),
    "kernel.cbv_eval": (kernel_samples, lambda t: k.cbv_eval(KENV, 5, t)),
    "translate.ty_to_term": (ty_samples, translate.ty_to_term),
    "translate.expr_to_term": (expr_samples, lambda e: translate.expr_to_term(GENV, e)),
    "lang.footprint[Ty]": (ty_samples, L.footprint),
    "lang.footprint[Expr]": (expr_samples, L.footprint),
    "interp._subst[Ty]": (ty_samples, lambda n: interp._subst(RHO_VAL, 0, n)),
    "interp._subst[Expr]": (expr_samples, lambda n: interp._subst(RHO_EXPR, 0, n)),
    "interp.from_val": (val_samples, interp.from_val),
}


@pytest.mark.parametrize("walker", WALKERS)
def test_a_walker_takes_every_class_of_its_tree(walker):
    samples, walk = WALKERS[walker]
    for node in samples():
        walk(node)


@pytest.mark.parametrize("walker", WALKERS)
def test_a_walker_rejects_a_foreign_object(walker):
    _, walk = WALKERS[walker]
    with pytest.raises(TypeError):
        walk(object())


class Open:
    """Not a node of any tree, but with caches that call it open under every
    cutoff, so a substitution walker reaches its dispatch with it."""

    _bound = 1
    _fp = (1, frozenset())


@pytest.mark.parametrize("walker", ["kernel._subst", "interp._subst[Expr]"])
def test_a_substitution_walker_rejects_a_foreign_object_it_has_to_walk(walker):
    _, walk = WALKERS[walker]
    with pytest.raises(TypeError):
        walk(Open())
