import pytest

from acorncore.interp import (
    EnvTrace,
    VBuiltin,
    VClosFix,
    VClosLam,
    VConstr,
    VPrim,
    VTy,
    VTyClos,
    apply_val,
    eval_expr,
    eval_type,
    from_val,
    subst_env_expr,
    validate,
    wf_val,
)
from acorncore.lang import (
    App,
    Case,
    Const,
    Constr,
    EvalError,
    Fix,
    Lam,
    Let,
    Lit,
    NOT_ENOUGH_FUEL,
    NotEnoughFuel,
    Ok,
    PInt,
    PNat,
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
    ty_app,
)
from acorncore.programs import stdlib_env
from acorncore.soundness import minimal_fuel

ENV = stdlib_env()
INT = TInd("Int")


def ev(e, fuel=10_000, rho=(), env=ENV, trace=None):
    return eval_expr(env, fuel, rho, e, trace)


def ok(e, **kw):
    r = ev(e, **kw)
    assert isinstance(r, Ok), r
    return r.value


def err(e, **kw):
    r = ev(e, **kw)
    assert isinstance(r, EvalError), r
    return r.reason


# -- fuel ---------------------------------------------------------------------

def test_fuel_zero_never_evaluates():
    assert ev(Lit(PInt(1)), fuel=0) is NOT_ENOUGH_FUEL
    assert ev(Var(99), fuel=0) is NOT_ENOUGH_FUEL
    assert ev(Lit(PInt(1)), fuel=-3) is NOT_ENOUGH_FUEL


def test_fuel_one_suffices_for_leaves():
    assert ok(Lit(PNat(2)), fuel=1) == VPrim(PNat(2))
    assert ok(Constr("Bool", "True"), fuel=1) == VConstr("Bool", "True")


def test_minimal_fuel_identity_application():
    # app at f runs everything else at f-1; the closure body needs one more
    e = App(Lam("x", INT, Var(0)), Lit(PInt(5)))
    assert minimal_fuel(ENV, e) == 2
    assert ev(e, fuel=1) is NOT_ENOUGH_FUEL
    assert ok(e, fuel=2) == VPrim(PInt(5))


def test_minimal_fuel_constant_indirection():
    env = ENV.copy()
    env.define("one", Lit(PInt(1)))
    env.define("alias", Const("one"))
    assert minimal_fuel(env, Const("one")) == 2
    assert minimal_fuel(env, Const("alias")) == 3


def test_not_enough_fuel_is_shared_singleton():
    a = ev(Lit(PInt(1)), fuel=0)
    b = ev(Const("foldr"), fuel=0)
    assert a is b is NOT_ENOUGH_FUEL
    assert isinstance(a, NotEnoughFuel)


# -- evaluation order ---------------------------------------------------------

def test_argument_evaluates_before_function():
    bad_arg = Const("no_such_arg")
    bad_fn = Const("no_such_fn")
    reason = err(App(bad_fn, bad_arg))
    assert "no_such_arg" in reason


def test_failing_argument_short_circuits():
    # the unbound function index is never reached
    reason = err(App(Var(99), Const("no_such_arg")), rho=())
    assert "no_such_arg" in reason


def test_let_evaluates_bound_before_body():
    reason = err(Let("x", INT, Const("missing"), Var(5)))
    assert "missing" in reason


# -- closures and eagerness ---------------------------------------------------

def test_lambda_validates_body_eagerly():
    reason = err(Lam("x", INT, Var(5)))
    assert "environment" in reason


def test_lambda_evaluates_domain_eagerly():
    e = Let("x", INT, Lit(PInt(1)), Lam("y", TVar(0), Var(0)))
    assert "domain" in err(e)


def test_lambda_domain_resolves_through_type_entries():
    e = App(TyLam("A", Lam("x", TVar(0), Var(0))), TyAsExpr(INT))
    v = ok(e)
    assert isinstance(v, VClosLam)
    assert v.dom == INT  # the captured domain is already resolved


def test_tylam_defers_validation():
    # a type abstraction is inert: even a nonsense body is fine to build
    v = ok(TyLam("A", Var(42)))
    assert isinstance(v, VTyClos)


def test_fix_validates_and_resolves_eagerly():
    assert "environment" in err(Fix("f", "x", INT, INT, Var(7)))
    e = Let("t", INT, Lit(PInt(0)), Fix("f", "x", TVar(0), INT, Var(0)))
    assert "domain" in err(e)


# -- application gating -------------------------------------------------------

def test_fix_application_requires_constructor_shaped_argument():
    fx = Fix("f", "x", INT, INT, Var(0))
    lam = Lam("y", INT, Var(0))
    assert "non-constructor" in err(App(fx, lam))
    assert ok(App(fx, Lit(PInt(3)))) == VPrim(PInt(3))
    assert ok(App(fx, Constr("Bool", "True"))) == VConstr("Bool", "True")


def test_type_abstraction_rejects_term_argument():
    e = App(TyLam("A", Lam("x", TVar(0), Var(0))), Lit(PInt(1)))
    assert "term value" in err(e)


def test_applying_a_literal_fails():
    assert "non-function" in err(App(Lit(PInt(1)), Lit(PInt(2))))


# -- builtins -----------------------------------------------------------------

def test_builtin_partial_application_is_a_value():
    v = ok(App(Const("addInt"), Lit(PInt(21))))
    assert v == VBuiltin("addInt", (VPrim(PInt(21)),))


def test_builtin_saturation_computes():
    assert ok(mk_app(Const("addInt"), Lit(PInt(2)), Lit(PInt(3)))) == VPrim(PInt(5))
    assert ok(mk_app(Const("subInt"), Lit(PInt(2)), Lit(PInt(3)))) == VPrim(PInt(-1))
    assert ok(mk_app(Const("addNat"), Lit(PNat(2)), Lit(PNat(3)))) == VPrim(PNat(5))


def test_builtin_comparison_returns_bool_constructor():
    assert ok(mk_app(Const("ltInt"), Lit(PInt(1)), Lit(PInt(2)))) == VConstr("Bool", "True")
    assert ok(mk_app(Const("eqbNat"), Lit(PNat(4)), Lit(PNat(5)))) == VConstr("Bool", "False")


def test_builtin_wrong_literal_kind():
    assert "literal kind" in err(mk_app(Const("addInt"), Lit(PNat(1)), Lit(PNat(2))))
    assert "literal kind" in err(mk_app(Const("addNat"), Lit(PInt(1)), Lit(PInt(2))))


def test_builtin_applied_to_non_literal():
    e = mk_app(Const("addInt"), Lit(PInt(1)), Constr("Bool", "True"))
    assert "non-literal" in err(e)


def test_builtin_over_application_fails():
    e = mk_app(Const("addInt"), Lit(PInt(1)), Lit(PInt(2)), Lit(PInt(3)))
    assert "non-function" in err(e)


# -- constructors and case ----------------------------------------------------

def test_constructor_accumulates_and_bounds_arguments():
    just = Constr("Maybe", "Just")
    v = ok(mk_app(just, TyAsExpr(INT), Lit(PInt(1))))
    assert v == VConstr("Maybe", "Just", (VTy(INT), VPrim(PInt(1))))
    # one param + one field = at most two
    assert "too many" in err(mk_app(just, TyAsExpr(INT), Lit(PInt(1)), Lit(PInt(2))))


def test_unknown_constructor_rejected():
    assert "unknown constructor" in err(Constr("Maybe", "Sometimes"))


def _maybe_case(scrut, nothing, just):
    return Case(scrut, "Maybe", (INT,), INT,
                ((Pat("Nothing", ()), nothing), (Pat("Just", ("v",)), just)))


def test_case_drops_type_argument_prefix():
    typed = mk_app(Constr("Maybe", "Just"), TyAsExpr(INT), Lit(PInt(9)))
    bare = App(Constr("Maybe", "Just"), Lit(PInt(9)))
    for scrut in (typed, bare):
        assert ok(_maybe_case(scrut, Lit(PInt(0)), Var(0))) == VPrim(PInt(9))


def test_case_binder_count_must_match_value_arguments():
    # two value arguments cannot satisfy a one-binder pattern
    overfull = mk_app(Constr("Maybe", "Just"), Lit(PInt(1)), Lit(PInt(2)))
    assert "no branch fits" in err(_maybe_case(overfull, Lit(PInt(0)), Var(0)))


def test_case_matches_by_name_in_user_order():
    e = Case(Constr("Bool", "True"), "Bool", (), INT,
             ((Pat("False"), Lit(PInt(0))),
              (Pat("True"), Lit(PInt(1))),
              (Pat("True"), Lit(PInt(2)))))
    assert ok(e) == VPrim(PInt(1))  # first match by name wins


def test_case_on_wrong_inductive():
    e = Case(Constr("Bool", "True"), "Maybe", (), INT, ((Pat("Nothing"), Lit(PInt(0))),))
    assert "matched against" in err(e)


def test_case_on_non_constructor_value():
    e = Case(Lit(PInt(1)), "Bool", (), INT, ((Pat("True"), Lit(PInt(1))),))
    assert "non-constructor" in err(e)


def test_case_missing_branch():
    e = Case(Constr("Bool", "False"), "Bool", (), INT, ((Pat("True"), Lit(PInt(1))),))
    assert "no branch fits" in err(e)


def test_case_validates_annotations_before_scrutinee():
    # the scrutinee would fail too, but the return annotation is checked first
    e = Case(Const("missing"), "Bool", (), TVar(0), ((Pat("True"), Lit(PInt(1))),))
    assert "return type" in err(e, rho=(VPrim(PInt(0)),))


def test_case_multi_binder_order():
    # Pair a b binds a then b; the innermost index is the last field
    e = Case(
        mk_app(Constr("Prod", "Pair"), Lit(PInt(1)), Constr("Bool", "True")),
        "Prod", (INT, TInd("Bool")), INT,
        ((Pat("Pair", ("a", "b")), Var(1)),),
    )
    assert ok(e) == VPrim(PInt(1))


# -- constants ----------------------------------------------------------------

def test_constant_bodies_run_in_the_empty_environment():
    env = ENV.copy()
    env.define("leaky", Var(0))
    reason = err(Const("leaky"), rho=(VPrim(PInt(1)),), env=env)
    assert "unbound variable index 0" in reason


def test_unknown_constant():
    assert "unknown constant" in err(Const("zzz"))


# -- eval_type ----------------------------------------------------------------

def test_eval_type_depth_and_entries():
    rho = (VTy(INT),)
    assert eval_type(rho, TVar(0)) == INT
    assert eval_type(rho, TForall("A", TVar(0))) == TForall("A", TVar(0))
    assert eval_type(rho, TForall("A", TVar(1))) == TForall("A", INT)
    assert eval_type(rho, ty_app(TInd("List"), TVar(0))) == ty_app(TInd("List"), INT)


def test_eval_type_failures():
    assert eval_type((VPrim(PInt(1)),), TVar(0)) is None  # term-level hit
    assert eval_type((), TVar(0)) is None                 # out of range
    assert eval_type((), TVar("A")) is None               # named leftover
    assert eval_type((), TArr(TVar(0), TInd("Int"))) is None


# -- validate / wf_val --------------------------------------------------------

def test_validate_counts_extra_binders():
    assert validate((), 1, Var(0))
    assert not validate((), 1, Var(1))
    assert validate((VPrim(PInt(1)),), 1, Var(1))
    # type positions must land on type entries
    assert validate((VTy(INT),), 0, TyAsExpr(TVar(0)))
    assert not validate((VPrim(PInt(1)),), 0, TyAsExpr(TVar(0)))


def test_wf_val_closures():
    v = ok(Lam("x", INT, Var(0)))
    assert wf_val(ENV, v)
    bad = VClosLam((), "x", INT, Var(3))
    assert not wf_val(ENV, bad)


def test_wf_val_constructors():
    assert wf_val(ENV, VConstr("Maybe", "Just", (VPrim(PInt(1)),)))
    assert not wf_val(ENV, VConstr("Maybe", "What", ()))
    too_many = VConstr("Maybe", "Just", (VPrim(PInt(1)),) * 3)
    assert not wf_val(ENV, too_many)


def test_wf_val_builtin_spine():
    assert wf_val(ENV, VBuiltin("addInt", (VPrim(PInt(1)),)))
    assert not wf_val(ENV, VBuiltin("addInt", (VPrim(PInt(1)),) * 5))
    assert not wf_val(ENV, VBuiltin("nosuch", ()))


# -- trace --------------------------------------------------------------------

def test_trace_records_environment_extensions():
    trace = EnvTrace()
    e = Let("x", INT, Lit(PInt(1)), mk_app(Const("addInt"), Var(0), Lit(PInt(2))))
    assert ok(e, trace=trace) == VPrim(PInt(3))
    rho0, body0 = trace.pairs[0]
    assert rho0 == (VPrim(PInt(1)),)
    assert body0 == mk_app(Const("addInt"), Var(0), Lit(PInt(2)))


def test_trace_limit_is_respected():
    trace = EnvTrace(limit=2)
    e = Let("a", INT, Lit(PInt(1)),
            Let("b", INT, Lit(PInt(2)),
                Let("c", INT, Lit(PInt(3)), Var(0))))
    ok(e, trace=trace)
    assert len(trace.pairs) == 2


# -- readback and substitution ------------------------------------------------

def test_from_val_literals_and_constructors():
    assert from_val(VPrim(PInt(3))) == Lit(PInt(3))
    v = VConstr("Maybe", "Just", (VTy(INT), VPrim(PInt(1))))
    assert from_val(v) == mk_app(Constr("Maybe", "Just"), TyAsExpr(INT), Lit(PInt(1)))


def test_from_val_builtin_spine():
    v = VBuiltin("addInt", (VPrim(PInt(2)),))
    assert from_val(v) == App(Const("addInt"), Lit(PInt(2)))


def test_from_val_substitutes_captured_environment():
    v = ok(Let("c", INT, Lit(PInt(5)), Lam("x", INT, mk_app(Const("addInt"), Var(0), Var(1)))))
    shell = from_val(v)
    assert shell == Lam("x", INT, mk_app(Const("addInt"), Var(0), Lit(PInt(5))))
    # the shell behaves like the closure
    assert ok(App(shell, Lit(PInt(2)))) == VPrim(PInt(7))


def test_from_val_fix_closure():
    v = ok(Const("sum_map"))
    assert isinstance(v, VClosFix)
    shell = from_val(v)
    assert isinstance(shell, Fix)


def test_subst_env_expr_downshifts_out_of_range():
    assert subst_env_expr([Lit(PInt(1))], Var(1)) == Var(0)
    assert subst_env_expr([Lit(PInt(1))], Var(0)) == Lit(PInt(1))


def test_subst_env_expr_respects_binders():
    e = Lam("x", INT, App(Var(0), Var(1)))
    out = subst_env_expr([Lit(PInt(9))], e)
    assert out == Lam("x", INT, App(Var(0), Lit(PInt(9))))


def test_subst_env_ty_needs_type_entries():
    # a type position, reached through a type argument
    assert subst_env_expr([TyAsExpr(INT)], TyAsExpr(TVar(0))) == TyAsExpr(INT)
    assert subst_env_expr([Lit(PInt(1))], TyAsExpr(TVar(0))) is None


def test_apply_val_direct():
    f = ok(Lam("x", INT, Var(0)))
    assert apply_val(ENV, 10, f, VPrim(PInt(8))) == Ok(VPrim(PInt(8)))
