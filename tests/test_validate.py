"""`validate` reads a cached free-index footprint; these tests hold it to the
two full tree walks it replaced (closedness, then a type-position fit against
the environment), kept here as the oracle."""

import dataclasses
import random

import pytest

from acorncore import interp, lang
from acorncore.interp import Val, VPrim, VTy, validate
from acorncore.lang import (
    App,
    Case,
    Const,
    Constr,
    Expr,
    Fix,
    Lam,
    Let,
    Lit,
    PInt,
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
    expr_closed_under,
    expr_footprint,
    ty_closed_under,
)
from acorncore.programs import corpus_dir, load_module
from acorncore.soundness import corpus_files, gen_expr

INT = TInd("Int")
TY_ENTRY = VTy(INT)
TERM_ENTRY = VPrim(PInt(0))
GEN_SEED = 11
GEN_COUNT = 200


# -- the oracle: the walks `validate` used to make on every call --------------

def old_ty_closed(n, ty):
    match ty:
        case TVar(ref):
            return isinstance(ref, int) and 0 <= ref < n
        case TInd(_):
            return True
        case TForall(_, body):
            return old_ty_closed(n + 1, body)
        case TApp(fn, arg):
            return old_ty_closed(n, fn) and old_ty_closed(n, arg)
        case TArr(dom, cod):
            return old_ty_closed(n, dom) and old_ty_closed(n, cod)
    raise TypeError(f"not a type: {ty!r}")


def old_expr_closed(n, e):
    match e:
        case Var(ref):
            return isinstance(ref, int) and 0 <= ref < n
        case Lam(_, dom, body):
            return old_ty_closed(n, dom) and old_expr_closed(n + 1, body)
        case TyLam(_, body):
            return old_expr_closed(n + 1, body)
        case Let(_, ty, bound, body):
            return (
                old_ty_closed(n, ty)
                and old_expr_closed(n, bound)
                and old_expr_closed(n + 1, body)
            )
        case App(fn, arg):
            return old_expr_closed(n, fn) and old_expr_closed(n, arg)
        case Case(scrut, _, ty_params, ret_ty, branches):
            return (
                old_expr_closed(n, scrut)
                and all(old_ty_closed(n, t) for t in ty_params)
                and old_ty_closed(n, ret_ty)
                and all(old_expr_closed(n + len(p.binders), b) for p, b in branches)
            )
        case Fix(_, _, dom, cod, body):
            return (
                old_ty_closed(n, dom)
                and old_ty_closed(n, cod)
                and old_expr_closed(n + 2, body)
            )
        case TyAsExpr(ty):
            return old_ty_closed(n, ty)
        case Constr() | Const() | Lit():
            return True
    raise TypeError(f"not an expression: {e!r}")


def old_env_ok_ty(rho, depth, ty):
    match ty:
        case TVar(ref):
            if not isinstance(ref, int):
                return False
            if ref < depth:
                return True
            i = ref - depth
            return i >= len(rho) or isinstance(rho[i], VTy)
        case TInd(_):
            return True
        case TForall(_, body):
            return old_env_ok_ty(rho, depth + 1, body)
        case TApp(fn, arg):
            return old_env_ok_ty(rho, depth, fn) and old_env_ok_ty(rho, depth, arg)
        case TArr(dom, cod):
            return old_env_ok_ty(rho, depth, dom) and old_env_ok_ty(rho, depth, cod)
    raise TypeError(f"not a type: {ty!r}")


def old_env_ok_expr(rho, depth, e):
    match e:
        case Var(_) | Constr() | Const() | Lit():
            return True
        case Lam(_, dom, body):
            return old_env_ok_ty(rho, depth, dom) and old_env_ok_expr(rho, depth + 1, body)
        case TyLam(_, body):
            return old_env_ok_expr(rho, depth + 1, body)
        case Let(_, ty, bound, body):
            return (
                old_env_ok_ty(rho, depth, ty)
                and old_env_ok_expr(rho, depth, bound)
                and old_env_ok_expr(rho, depth + 1, body)
            )
        case App(fn, arg):
            return old_env_ok_expr(rho, depth, fn) and old_env_ok_expr(rho, depth, arg)
        case Case(scrut, _, ty_params, ret_ty, branches):
            return (
                old_env_ok_expr(rho, depth, scrut)
                and all(old_env_ok_ty(rho, depth, t) for t in ty_params)
                and old_env_ok_ty(rho, depth, ret_ty)
                and all(
                    old_env_ok_expr(rho, depth + len(p.binders), b) for p, b in branches
                )
            )
        case Fix(_, _, dom, cod, body):
            return (
                old_env_ok_ty(rho, depth, dom)
                and old_env_ok_ty(rho, depth, cod)
                and old_env_ok_expr(rho, depth + 2, body)
            )
        case TyAsExpr(ty):
            return old_env_ok_ty(rho, depth, ty)
    raise TypeError(f"not an expression: {e!r}")


def old_validate(rho, n_extra, e):
    return old_expr_closed(len(rho) + n_extra, e) and old_env_ok_expr(rho, n_extra, e)


# -- the bodies under test -----------------------------------------------------

def closure_bodies(e):
    """Every Lam and Fix body and every Case branch inside `e`."""
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        match x:
            case Lam(_, _, body) | Fix(_, _, _, _, body):
                out.append(body)
                stack.append(body)
            case TyLam(_, body):
                stack.append(body)
            case Let(_, _, bound, body):
                stack += [bound, body]
            case App(fn, arg):
                stack += [fn, arg]
            case Case(scrut, _, _, _, branches):
                stack.append(scrut)
                for _, b in branches:
                    out.append(b)
                    stack.append(b)
    return out


def corpus_definitions():
    defs = []
    for path in corpus_files(corpus_dir()):
        defs += [body for _, body in load_module(str(path))[1]]
    return defs


def generated_programs():
    rng = random.Random(GEN_SEED)
    return [gen_expr(rng, 12) for _ in range(GEN_COUNT)]


def bound_of(e):
    # the least length the oracle calls `e` closed under (None: no length)
    return next((n for n in range(64) if old_expr_closed(n, e)), None)


def environments(rng, length):
    # all-type, all-term, alternating both ways, and two random mixes
    yield (TY_ENTRY,) * length
    yield (TERM_ENTRY,) * length
    yield tuple(TY_ENTRY if i % 2 else TERM_ENTRY for i in range(length))
    yield tuple(TERM_ENTRY if i % 2 else TY_ENTRY for i in range(length))
    for _ in range(2):
        yield tuple(rng.choice((TY_ENTRY, TERM_ENTRY)) for _ in range(length))


def check_agreement(bodies):
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for body in bodies:
        b = bound_of(body)
        top = 3 if b is None else b
        for n_extra in range(3):
            for length in range(max(0, top - n_extra - 1), top - n_extra + 2):
                for rho in environments(rng, length):
                    want = old_validate(rho, n_extra, body)
                    assert validate(rho, n_extra, body) == want, (rho, n_extra, body)
                    seen[want] += 1
        for n in range(max(0, top - 1), top + 2):
            assert expr_closed_under(n, body) == old_expr_closed(n, body)
    return seen


# -- tests ---------------------------------------------------------------------

def test_validate_agrees_with_the_two_walks_on_corpus_bodies():
    bodies = [b for d in corpus_definitions() for b in closure_bodies(d)]
    assert len(bodies) > 200
    # the corpus reaches into the environment from type positions, so the
    # type-entry check is exercised and not just the length bound
    assert any(expr_footprint(b)[1] for b in bodies)
    seen = check_agreement(bodies)
    assert seen[True] and seen[False]


def test_validate_agrees_with_the_two_walks_on_generated_bodies():
    bodies = [b for e in generated_programs() for b in closure_bodies(e)]
    assert len(bodies) > 200
    seen = check_agreement(bodies)
    assert seen[True] and seen[False]


def test_validate_agrees_on_hand_built_edges():
    tv = TVar
    bodies = [
        Var("x"),
        Var(-1),
        Lam("x", TVar("A"), Var(0)),
        TyAsExpr(tv(0)),
        TyAsExpr(tv(2)),
        TyAsExpr(TForall("A", TArr(tv(0), tv(1)))),
        TyAsExpr(TApp(tv(1), TForall("B", tv(3)))),
        Lam("x", tv(0), TyAsExpr(tv(2))),
        Let("v", tv(1), Var(0), TyAsExpr(tv(1))),
        Fix("f", "x", tv(0), tv(1), App(Var(1), TyAsExpr(tv(3)))),
        TyLam("A", Lam("x", tv(0), TyAsExpr(tv(2)))),
        Case(Var(0), "List", (tv(1),), tv(2),
             ((Pat("Nil"), TyAsExpr(tv(0))), (Pat("Cons", ("h", "t")), TyAsExpr(tv(3))))),
        Case(Var(0), "List", (tv("A"),), INT, ((Pat("Nil"), Var(0)),)),
    ]
    seen = check_agreement(bodies)
    assert seen[True] and seen[False]
    for ty in (tv(0), tv("A"), tv(-1), TForall("A", tv(1)), TArr(INT, tv(2))):
        for n in range(4):
            assert ty_closed_under(n, ty) == old_ty_closed(n, ty)


def test_cached_footprint_leaves_equality_hash_and_repr_alone():
    cached = corpus_definitions() + generated_programs()
    for e in cached:
        expr_footprint(e)
        for b in closure_bodies(e):
            assert hasattr(b, "_fp")
    fresh = corpus_definitions() + generated_programs()
    for a, b in zip(cached, fresh):
        assert a is not b
        assert not hasattr(b, "_fp")
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)


@pytest.mark.parametrize(
    "module, base, count, caches",
    [
        (lang, Ty, 5, {"_fp", "_term"}),
        (lang, Expr, 11, {"_fp", "_term"}),
        (interp, Val, 7, {"_expr"}),
    ],
)
def test_caches_live_in_the_base_class_slots(module, base, count, caches):
    kinds = [
        c for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, base) and c is not base
    ]
    assert len(kinds) == count
    for kind in kinds:
        node = kind(*(None for _ in dataclasses.fields(kind)))
        assert not hasattr(node, "__dict__")
        for name in caches:
            assert getattr(node, name, None) is None
            object.__setattr__(node, name, 1)
            assert getattr(node, name) == 1
        with pytest.raises(AttributeError):
            object.__setattr__(node, "_other", 1)
