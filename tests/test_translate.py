"""Surface-to-kernel translation: index-for-index variable mapping, lifting
at the binders translation introduces, branch reordering, and frozen kernel
forms for the prelude declarations."""

import dataclasses
import random

import pytest

from acorncore import kernel as k
from acorncore.interp import EnvTrace
from acorncore.lang import (
    App,
    Case,
    Const,
    Constr,
    ConstrDecl,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    Let,
    Lit,
    Ok,
    PInt,
    Pat,
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    TyAsExpr,
    TyLam,
    Var,
    mk_app,
)
from acorncore.programs import corpus_dir, int_list_expr, load_module, stdlib_env
from acorncore.soundness import corpus_files, diff_check, gen_expr, subst_commutes
from acorncore.translate import (
    TranslateError,
    decl_to_kernel,
    expr_to_term,
    translate_env,
    ty_to_term,
)

from oracles import forged_copy, kernel_app, struct_eq

GENV = stdlib_env()

INT = TInd("Int")
K_INT = k.Ind("Int")


# ---------------------------------------------------------------------------
# types

def test_ty_to_term_basics():
    assert ty_to_term(TVar(2)) == k.Rel(2)
    assert ty_to_term(INT) == K_INT
    assert ty_to_term(TApp(TInd("List"), INT)) == k.App(k.Ind("List"), K_INT)
    assert ty_to_term(TForall("A", TVar(0))) == k.Prod("A", k.SORT_SET, k.Rel(0))


def test_arrow_codomain_is_lifted_under_the_product_binder():
    assert ty_to_term(TArr(INT, INT)) == k.Prod(None, K_INT, K_INT)
    assert ty_to_term(TArr(TVar(0), TVar(0))) == k.Prod(None, k.Rel(0), k.Rel(1))
    assert ty_to_term(TForall("A", TArr(TVar(0), TVar(0)))) == k.Prod(
        "A", k.SORT_SET, k.Prod(None, k.Rel(0), k.Rel(1))
    )


# ---------------------------------------------------------------------------
# expressions

def test_expr_to_term_basics():
    assert expr_to_term(GENV, Var(3)) == k.Rel(3)
    assert expr_to_term(GENV, Lit(PInt(5))) == k.PrimLit(PInt(5))
    assert expr_to_term(GENV, Const("foldr")) == k.Const("foldr")
    assert expr_to_term(GENV, TyAsExpr(INT)) == K_INT
    assert expr_to_term(GENV, Lam("x", INT, Var(0))) == k.Lambda("x", K_INT, k.Rel(0))
    assert expr_to_term(GENV, TyLam("A", Var(0))) == k.Lambda("A", k.SORT_SET, k.Rel(0))
    assert expr_to_term(GENV, App(Var(0), Var(1))) == k.App(k.Rel(0), k.Rel(1))
    assert expr_to_term(GENV, Let("x", INT, Lit(PInt(1)), Var(0))) == k.LetIn(
        "x", K_INT, k.PrimLit(PInt(1)), k.Rel(0)
    )


def test_constructor_index_follows_declaration_order():
    assert expr_to_term(GENV, Constr("List", "Nil")) == k.Construct("List", 0)
    assert expr_to_term(GENV, Constr("List", "Cons")) == k.Construct("List", 1)
    assert expr_to_term(GENV, Constr("Maybe", "Nothing")) == k.Construct("Maybe", 0)
    assert expr_to_term(GENV, Constr("Maybe", "Just")) == k.Construct("Maybe", 1)


def test_constructor_resolution_failures():
    with pytest.raises(TranslateError, match="inductive 'Tree' is not declared"):
        expr_to_term(GENV, Constr("Tree", "Leaf"))
    with pytest.raises(
        TranslateError, match="constructor 'Snoc' is not declared in 'List'"
    ):
        expr_to_term(GENV, Constr("List", "Snoc"))


def test_fix_lifts_the_domain_under_the_function_binder():
    fx = Fix("rec", "x", TVar(0), TVar(0), Var(0))
    assert expr_to_term(GENV, fx) == k.Fix(
        "rec",
        k.Prod(None, k.Rel(0), k.Rel(1)),
        k.Lambda("x", k.Rel(1), k.Rel(0)),
    )


# ---------------------------------------------------------------------------
# case translation

def _maybe_case(branches, ret_ty=INT):
    return Case(Var(0), "Maybe", (INT,), ret_ty, branches)


def test_case_return_type_sits_under_the_scrutinee_binder():
    c = Case(Lit(PInt(0)), "Bool", (), TVar(0), ((Pat("True", ()), Var(0)), (Pat("False", ()), Var(0))))
    m = expr_to_term(GENV, c)
    assert isinstance(m, k.Match)
    assert m.ret_ty == k.Rel(1)
    assert m.ty_params == ()
    assert m.n_params == 0


def test_case_branches_are_reordered_into_declaration_order():
    # surface order Just-first; Maybe declares Nothing first
    c = _maybe_case(
        (
            (Pat("Just", ("v",)), Var(0)),
            (Pat("Nothing", ()), Lit(PInt(0))),
        )
    )
    m = expr_to_term(GENV, c)
    assert m.branches == (
        (0, k.PrimLit(PInt(0))),
        (1, k.Lambda("v", K_INT, k.Rel(0))),
    )


def test_branch_domains_substitute_the_type_parameters():
    c = Case(
        Var(0),
        "List",
        (INT,),
        INT,
        (
            (Pat("Nil", ()), Lit(PInt(0))),
            (Pat("Cons", ("hd", "tl")), Var(1)),
        ),
    )
    m = expr_to_term(GENV, c)
    nil_b, cons_b = m.branches
    assert nil_b == (0, k.PrimLit(PInt(0)))
    assert cons_b == (
        2,
        k.Lambda("hd", K_INT, k.Lambda("tl", k.App(k.Ind("List"), K_INT), k.Rel(1))),
    )


def test_branch_domains_lift_open_type_parameters():
    # under an enclosing type binder the tail's parameter must be lifted
    # past the head binder: List ^0 instantiates to List ^1 there
    c = Case(
        Var(0),
        "List",
        (TVar(0),),
        TVar(0),
        (
            (Pat("Nil", ()), Var(1)),
            (Pat("Cons", ("hd", "tl")), Var(1)),
        ),
    )
    m = expr_to_term(GENV, c)
    _, cons = m.branches
    assert cons == (
        2,
        k.Lambda("hd", k.Rel(0), k.Lambda("tl", k.App(k.Ind("List"), k.Rel(1)), k.Rel(1))),
    )


def test_missing_branch_is_reported_by_constructor_name():
    c = _maybe_case(((Pat("Just", ("v",)), Var(0)),))
    with pytest.raises(TranslateError, match="no branch for constructor 'Nothing'"):
        expr_to_term(GENV, c)


def test_branch_binder_count_must_match_the_declaration():
    c = _maybe_case(
        (
            (Pat("Nothing", ()), Lit(PInt(0))),
            (Pat("Just", ()), Lit(PInt(1))),
        )
    )
    with pytest.raises(TranslateError, match="binds 0 names, expected 1"):
        expr_to_term(GENV, c)


def test_stray_branches_are_dropped():
    # a branch naming no declared constructor can never be selected; the
    # kernel match keeps exactly one branch per constructor
    c = _maybe_case(
        (
            (Pat("Nothing", ()), Lit(PInt(0))),
            (Pat("Just", ("v",)), Var(0)),
            (Pat("Ghost", ()), Lit(PInt(9))),
        )
    )
    m = expr_to_term(GENV, c)
    assert len(m.branches) == 2


def test_case_on_unknown_inductive():
    c = Case(Var(0), "Tree", (), INT, ())
    with pytest.raises(TranslateError, match="is not declared"):
        expr_to_term(GENV, c)


# ---------------------------------------------------------------------------
# declarations

def test_list_declaration_kernel_form():
    ki = decl_to_kernel(GENV.find_inductive("List"))
    assert ki.num_params == 1
    nil, cons = ki.ctors
    assert nil == k.KernelCtor("Nil", 0, (), k.App(k.Rel(1), k.Rel(0)))
    assert cons == k.KernelCtor(
        "Cons",
        2,
        (k.Rel(0), k.App(k.Rel(2), k.Rel(1))),
        k.App(k.Rel(3), k.Rel(2)),
    )


def test_map_declaration_kernel_form():
    ki = decl_to_kernel(GENV.find_inductive("AcornMap"))
    assert ki.num_params == 2
    mnil, mcons = ki.ctors
    assert mnil == k.KernelCtor(
        "MNil", 0, (), k.App(k.App(k.Rel(2), k.Rel(1)), k.Rel(0))
    )
    assert mcons == k.KernelCtor(
        "MCons",
        3,
        (k.Rel(1), k.Rel(1), k.App(k.App(k.Rel(4), k.Rel(3)), k.Rel(2))),
        k.App(k.App(k.Rel(5), k.Rel(4)), k.Rel(3)),
    )


def test_function_typed_constructor_argument():
    d = InductiveDecl("W", 1, (ConstrDecl("MkW", (TArr(TVar(0), TInd("W")),)),))
    ki = decl_to_kernel(d)
    (ctor,) = ki.ctors
    # the codomain's self-reference crosses the arrow binder
    assert ctor.arg_tys == (k.Prod(None, k.Rel(0), k.Rel(2)),)
    assert ctor.result_ty == k.App(k.Rel(2), k.Rel(1))


def test_declaration_rejects_universals():
    d = InductiveDecl("Q", 0, (ConstrDecl("MkQ", (TForall("A", TVar(0)),)),))
    with pytest.raises(TranslateError, match="universal types inside constructor"):
        decl_to_kernel(d)


# ---------------------------------------------------------------------------
# whole environments

def test_translate_env_splits_builtins_from_constants():
    kenv = translate_env(GENV)
    assert "addInt" in kenv.builtins
    assert "addInt" not in kenv.constants
    assert "foldr" in kenv.constants
    assert isinstance(kenv.constants["foldr"], k.Term)
    for d in GENV.inductives:
        assert kenv.inductives[d.name].name == d.name


def test_translate_env_names_the_offending_constant():
    genv = GENV.copy()
    genv.define("broken", Constr("Missing", "Mk"))
    with pytest.raises(TranslateError, match="in constant 'broken': inductive 'Missing' is not declared"):
        translate_env(genv)


def test_translated_fold_runs_in_the_kernel():
    kenv = translate_env(GENV)
    xs = expr_to_term(GENV, int_list_expr([1, 2, 3, 4]))
    t = kernel_app(
        k.Const("foldr"), K_INT, K_INT, k.Const("addInt"), k.PrimLit(PInt(0)), xs
    )
    assert k.cbv_eval(kenv, 10_000, t) == Ok(k.PrimLit(PInt(10)))


# ---------------------------------------------------------------------------
# per-node translation cache


def _corpus_and_generated():
    for f in corpus_files(corpus_dir()):
        genv, defs = load_module(str(f))
        kenv = translate_env(genv)
        for _, body in defs:
            yield genv, kenv, body
    kenv = translate_env(GENV)
    rng = random.Random(5)
    for _ in range(200):
        yield GENV, kenv, gen_expr(rng)


def test_cached_translations_equal_fresh_ones():
    for genv, kenv, body in _corpus_and_generated():
        # populate the caches the way diff-eval does: evaluation, read-back
        # and every harvested pair, whose bodies share nodes with `body`
        trace = EnvTrace(40)
        diff_check(genv, 10_000, body, kenv, trace)
        for rho, pair_body in trace.pairs:
            subst_commutes(genv, rho, pair_body)
        cached = expr_to_term(genv, body)
        assert expr_to_term(genv, body) is cached
        # a new declaration list misses every kept translation, and
        # translating afresh builds the very same nodes
        assert expr_to_term(genv.copy(), body) is cached
        # a copy built around the intern table has nothing cached, and its
        # translation holds the copy's own literals: compared structurally
        assert struct_eq(cached, expr_to_term(genv, forged_copy(body)))


def test_one_node_gets_each_environments_own_translation():
    ab = GlobalEnv([InductiveDecl("T", 0, (ConstrDecl("A"), ConstrDecl("B")))])
    ba = GlobalEnv([InductiveDecl("T", 0, (ConstrDecl("B"), ConstrDecl("A")))])
    a = Constr("T", "A")
    case = Case(Var(0), "T", (), INT, ((Pat("A"), Lit(PInt(1))), (Pat("B"), Lit(PInt(2)))))
    one, two = k.PrimLit(PInt(1)), k.PrimLit(PInt(2))
    for _ in range(2):
        assert expr_to_term(ab, a) == k.Construct("T", 0)
        assert expr_to_term(ba, a) == k.Construct("T", 1)
        assert expr_to_term(ab, case).branches == ((0, one), (0, two))
        assert expr_to_term(ba, case).branches == ((0, two), (0, one))


def test_a_failed_translation_is_not_kept():
    genv = GlobalEnv()
    e = App(Lam("x", INT, Var(0)), Constr("T", "A"))
    with pytest.raises(TranslateError, match="is not declared"):
        expr_to_term(genv, e)
    genv.add_inductive(InductiveDecl("T", 0, (ConstrDecl("A"),)))
    assert expr_to_term(genv, e) == k.App(
        k.Lambda("x", K_INT, k.Rel(0)), k.Construct("T", 0)
    )


def test_translated_nodes_compare_hash_and_print_like_fresh_copies():
    # `==` and `hash` are identity, so a kept translation cannot reach them;
    # rebuilding a node from its fields gives the node itself, and it prints
    # as a copy built around the intern table does
    rng = random.Random(11)
    for _ in range(50):
        e = gen_expr(rng)
        expr_to_term(GENV, e)
        copy = forged_copy(e)
        assert type(e)(*(getattr(e, f.name) for f in dataclasses.fields(e))) is e
        assert e != copy and struct_eq(e, copy) and repr(e) == repr(copy)
    ty = TForall("A", TArr(TVar(0), TApp(TInd("List"), TVar(0))))
    assert ty_to_term(ty) is ty_to_term(ty)
    assert TForall("A", TArr(TVar(0), TApp(TInd("List"), TVar(0)))) is ty
    copy = forged_copy(ty)
    assert struct_eq(ty, copy) and repr(ty) == repr(copy)


def test_long_lists_translate_at_the_default_recursion_limit():
    # the cache check sits inside the recursive function: a caching wrapper
    # around it would add a frame per level and fail near 500 elements
    t = expr_to_term(GENV, int_list_expr(range(900)))
    heads = []
    while t != k.App(k.Construct("List", 0), K_INT):
        heads.append(t.fn.arg.value.value)  # App(App(App(Cons, Int), x), rest)
        t = t.arg
    assert heads == list(range(900))
