import random

import pytest

from acorncore.interp import (
    EnvTrace,
    VBuiltin,
    VClos,
    VConstr,
    VPrim,
    VTy,
    eval_expr,
    eval_type,
    fits,
    from_val,
    subst_env_expr,
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
from acorncore.programs import corpus_dir, int_list_expr, load_module, stdlib_env
from acorncore.soundness import corpus_files

from oracles import forged_copy, minimal_fuel, struct_eq
from test_validate import (
    corpus_definitions,
    environments,
    generated_programs,
    old_ty_closed,
)

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
    assert isinstance(v, VClos) and v.fn == Lam("x", TVar(0), Var(0))
    # the captured domain resolves at read-back
    assert from_val(v) == Lam("x", INT, Var(0))


def test_tylam_defers_validation():
    # a type abstraction is inert: even a nonsense body is fine to build
    v = ok(TyLam("A", Var(42)))
    assert v == VClos((), TyLam("A", Var(42)))


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


def _pair_case(args, binders, body):
    scrut = mk_app(Constr("Prod", "Pair"), *args)
    return Case(scrut, "Prod", (INT, INT), INT, ((Pat("Pair", binders), body),))


_Z1, _Z2, _TY = Lit(PInt(1)), Lit(PInt(2)), TyAsExpr(INT)
_SUB = mk_app(Const("subInt"), Var(1), Var(0))

# (case, least fuel, result at that fuel): `Pair` takes two type
# parameters, which a value may carry or leave out
PREFIXES = {
    "second prefix argument not a type": (
        _pair_case((_TY, Lit(PInt(5)), _Z1, _Z2), ("a", "b"), _SUB),
        6, EvalError("no branch fits constructor 'Pair'"),
    ),
    "fewer arguments than binders": (
        _pair_case((_Z1,), ("a", "b"), _SUB), 3, EvalError("no branch fits constructor 'Pair'"),
    ),
    "more type arguments than parameters": (
        _pair_case((_TY, _TY, _TY), (), _Z1), 5, EvalError("no branch fits constructor 'Pair'"),
    ),
    "both type arguments": (_pair_case((_TY, _TY, _Z1, _Z2), ("a", "b"), _SUB), 6, Ok(VPrim(PInt(-1)))),
    "no type argument": (_pair_case((_Z1, _Z2), ("a", "b"), _SUB), 4, Ok(VPrim(PInt(-1)))),
}


@pytest.mark.parametrize("name", PREFIXES)
def test_case_prefix_finishes_at_its_least_fuel(name):
    e, fuel, want = PREFIXES[name]
    assert ev(e, fuel=fuel) == want
    assert ev(e, fuel=fuel - 1) is NOT_ENOUGH_FUEL


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


# -- whole-node checks --------------------------------------------------------
#
# `Case`, `Lam` and `Fix` check their whole footprint first and, on a miss,
# each part in a fixed order. With index 0 a term entry, `TVar(0)` misfits a
# type position and `Var(1)` (two binders further in, `Var(3)`) is out of
# range.

TERM_RHO = (VPrim(PInt(0)),)
BAD_TY = TVar(0)


def _bool_case(scrut=Constr("Bool", "True"), ty_params=(), ret_ty=INT, branch=Lit(PInt(1))):
    return Case(scrut, "Bool", ty_params, ret_ty, ((Pat("True"), branch),))


@pytest.mark.parametrize(
    "e, reason",
    [
        (_bool_case(), None),
        (_bool_case(branch=Var(1)), "case branch does not fit its environment"),
        (_bool_case(branch=Var(-1)), "case branch does not fit its environment"),
        (_bool_case(ret_ty=BAD_TY), "case return type refers to a term-level binding"),
        (_bool_case(ty_params=(INT, BAD_TY)), "case type parameter refers to a term-level binding"),
        (_bool_case(scrut=Var(1)), "unbound variable index 1"),
        (_bool_case(scrut=TyAsExpr(BAD_TY)), "type argument refers to a term-level binding"),
        (_bool_case(scrut=Var(1), ty_params=(BAD_TY,), ret_ty=BAD_TY, branch=Var(1)),
         "case branch does not fit its environment"),
        (_bool_case(scrut=Var(1), ty_params=(BAD_TY,), ret_ty=BAD_TY),
         "case return type refers to a term-level binding"),
        (_bool_case(scrut=Var(1), ty_params=(BAD_TY,)),
         "case type parameter refers to a term-level binding"),
        (Lam("x", INT, Var(2)), "lambda body does not fit its environment"),
        (Lam("x", BAD_TY, Var(0)), "lambda domain refers to a term-level binding"),
        (Lam("x", BAD_TY, Var(2)), "lambda body does not fit its environment"),
        (Fix("f", "x", BAD_TY, INT, Var(0)), "fixpoint domain refers to a term-level binding"),
        (Fix("f", "x", INT, BAD_TY, Var(0)), "fixpoint codomain refers to a term-level binding"),
        (Fix("f", "x", INT, INT, Var(3)), "fixpoint body does not fit its environment"),
        (Fix("f", "x", BAD_TY, BAD_TY, Var(3)), "fixpoint domain refers to a term-level binding"),
        (Fix("f", "x", INT, BAD_TY, Var(3)), "fixpoint codomain refers to a term-level binding"),
    ],
)
def test_a_misfit_part_reports_its_own_error(e, reason):
    r = ev(e, rho=TERM_RHO)
    if reason is None:
        assert isinstance(r, Ok)
    else:
        assert r == EvalError(reason)


def test_a_fitting_node_resolves_its_types_through_type_entries():
    rho = (VTy(INT), VPrim(PInt(0)))
    lam = ok(Lam("x", TVar(0), Var(2)), rho=rho)
    assert lam.env == rho
    assert from_val(lam) == Lam("x", INT, Lit(PInt(0)))
    fix = ok(Fix("f", "x", TVar(0), TArr(TVar(0), INT), Var(3)), rho=rho)
    assert from_val(fix) == Fix("f", "x", INT, TArr(INT, INT), Lit(PInt(0)))
    case = _bool_case(ty_params=(TVar(0),), ret_ty=TVar(0), branch=Var(1))
    assert ok(case, rho=rho) == VPrim(PInt(0))
    assert err(case, rho=(VPrim(PInt(0)), VTy(INT))) == (
        "case return type refers to a term-level binding"
    )


# -- constants ----------------------------------------------------------------

def _with_k():
    env = ENV.copy()
    env.define("k", Lam("x", INT, Var(0)))
    return env


def test_a_kept_constant_value_still_needs_its_fuel():
    env = _with_k()
    assert ev(Const("k"), fuel=1, env=env) is NOT_ENOUGH_FUEL
    warm = ok(Const("k"), fuel=10, env=env)
    assert isinstance(warm, VClos)
    assert ev(Const("k"), fuel=1, env=env) is NOT_ENOUGH_FUEL
    assert ok(Const("k"), fuel=2, env=env) == warm
    assert ev(App(Const("k"), Lit(PInt(4))), fuel=2, env=env) is NOT_ENOUGH_FUEL
    assert ok(App(Const("k"), Lit(PInt(4))), fuel=3, env=env) == VPrim(PInt(4))


def test_define_after_an_evaluation_is_seen_by_the_next_one():
    env = _with_k()
    assert isinstance(ok(Const("k"), env=env), VClos)
    env.define("k", Lit(PInt(7)))
    assert ok(Const("k"), env=env) == VPrim(PInt(7))
    env.define("k", Const("addInt"))
    assert ok(Const("k"), env=env) == VBuiltin("addInt")


def test_a_copy_keeps_constant_values_of_its_own():
    env = _with_k()
    closure = ok(Const("k"), env=env)
    other = env.copy()
    other.define("k", Lit(PInt(7)))
    assert ok(Const("k"), env=other) == VPrim(PInt(7))
    assert ok(Const("k"), env=env) == closure
    assert ok(Const("k"), env=env.copy()) == closure


def test_minimal_fuel_of_corpus_definitions_is_the_same_cold_and_warm():
    checked = kept = 0
    for path in corpus_files(corpus_dir()):
        env, defs = load_module(str(path))
        warm = env.copy()
        for name, _ in defs:
            ev(Const(name), env=warm)
        kept += len(warm.const_values)
        for name, body in defs:
            for e in (Const(name), body):
                assert minimal_fuel(env.copy(), e) == minimal_fuel(warm, e), name
                checked += 1
    assert checked > 200 and kept > 50


# -- constants ----------------------------------------------------------------

def test_constant_bodies_run_in_the_empty_environment():
    env = ENV.copy()
    env.define("leaky", Var(0))
    reason = err(Const("leaky"), rho=(VPrim(PInt(1)),), env=env)
    assert "unbound variable index 0" in reason


def test_negative_variable_index_is_unbound():
    reason = err(Var(-1), rho=(VPrim(PInt(1)),))
    assert "unbound variable index -1" in reason


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
    assert eval_type((), TArr(TVar(0), TInd("Int"))) is None


def old_eval_type(rho, ty, depth=0):
    """The walk `eval_type` made before it became a fit check followed by
    environment substitution, kept as the oracle."""
    match ty:
        case TVar(ref):
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
            b = old_eval_type(rho, body, depth + 1)
            return None if b is None else TForall(hint, b)
        case TApp(fn, arg):
            f = old_eval_type(rho, fn, depth)
            if f is None:
                return None
            a = old_eval_type(rho, arg, depth)
            return None if a is None else TApp(f, a)
        case TArr(dom, cod):
            d = old_eval_type(rho, dom, depth)
            if d is None:
                return None
            c = old_eval_type(rho, cod, depth)
            return None if c is None else TArr(d, c)
    raise TypeError(f"not a type: {ty!r}")


def evaluated_types(e):
    """Every type inside `e` that evaluation resolves against an environment:
    Lam and Fix domains and codomains, type arguments, and Case return types
    and parameters."""
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        match x:
            case Lam(_, dom, body):
                out.append(dom)
                stack.append(body)
            case Fix(_, _, dom, cod, body):
                out += [dom, cod]
                stack.append(body)
            case TyAsExpr(ty):
                out.append(ty)
            case TyLam(_, body):
                stack.append(body)
            case Let(_, _, bound, body):
                stack += [bound, body]
            case App(fn, arg):
                stack += [fn, arg]
            case Case(scrut, _, ty_params, ret_ty, branches):
                out += [ret_ty, *ty_params]
                stack.append(scrut)
                stack += [b for _, b in branches]
    return out


def check_eval_type_agreement(types):
    rng = random.Random(5)
    seen = {"none": 0, "same": 0, "resolved": 0}
    for ty in types:
        bound = next(n for n in range(64) if old_ty_closed(n, ty))
        for length in range(max(0, bound - 1), bound + 2):
            for rho in environments(rng, length):
                want = old_eval_type(rho, ty)
                assert eval_type(rho, ty) == want, (rho, ty)
                seen["none" if want is None else "same" if want == ty else "resolved"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("source", ["corpus", "generated"])
def test_eval_type_agrees_with_the_old_walk(source):
    programs = corpus_definitions() if source == "corpus" else generated_programs()
    types = [t for e in programs for t in evaluated_types(e)]
    assert len(types) > 200
    check_eval_type_agreement(types)


def test_eval_type_agrees_with_the_old_walk_under_binders():
    tv = TVar
    check_eval_type_agreement([
        TForall("A", TArr(tv(0), tv(1))),
        TForall("A", TForall("B", TApp(tv(2), tv(0)))),
        TArr(tv(0), TForall("A", TApp(tv(2), tv(0)))),
        TApp(TForall("A", tv(1)), ty_app(TInd("List"), tv(2))),
        TForall("A", TArr(tv(0), INT)),
    ])


def test_eval_type_shares_closed_types():
    closed = TArr(INT, ty_app(TInd("List"), INT))
    rho = (VTy(INT),)
    assert eval_type(rho, closed) is closed
    open_ty = TArr(closed, TVar(0))
    assert eval_type(rho, open_ty).dom is closed
    assert eval_type(rho, TForall("A", TArr(closed, TVar(1)))).body.dom is closed


def test_negative_type_indices_are_refused():
    assert eval_type((), TVar(-1)) is None
    assert isinstance(ev(Lam("x", TVar(-1), Var(0))), EvalError)
    assert isinstance(ev(TyAsExpr(TVar(-1))), EvalError)


# -- fits / wf_val ------------------------------------------------------------

def test_validate_counts_extra_binders():
    assert fits((), 1, Var(0))
    assert not fits((), 1, Var(1))
    assert fits((VPrim(PInt(1)),), 1, Var(1))
    # type positions must land on type entries
    assert fits((VTy(INT),), 0, TyAsExpr(TVar(0)))
    assert not fits((VPrim(PInt(1)),), 0, TyAsExpr(TVar(0)))


def test_wf_val_closures():
    v = ok(Lam("x", INT, Var(0)))
    assert wf_val(ENV, v)
    bad = VClos((), Lam("x", INT, Var(3)))
    assert not wf_val(ENV, bad)


ONE = (VPrim(PInt(1)),)


@pytest.mark.parametrize(
    "fits_env, misfit",
    [
        # a lambda whose domain reaches a term-level entry
        (VClos(ONE, Lam("x", INT, Var(1))), VClos(ONE, Lam("x", TVar(0), Var(1)))),
        # a fixpoint whose codomain reaches a term-level entry
        (
            VClos(ONE, Fix("f", "x", INT, INT, Var(2))),
            VClos(ONE, Fix("f", "x", INT, TVar(0), Var(2))),
        ),
        # a type abstraction whose body reaches past the environment
        (VClos(ONE, TyLam("A", Var(1))), VClos(ONE, TyLam("A", Var(2)))),
    ],
    ids=["Lam", "Fix", "TyLam"],
)
def test_wf_val_refuses_a_closure_whose_node_does_not_fit_its_environment(fits_env, misfit):
    assert wf_val(ENV, fits_env)
    assert not wf_val(ENV, misfit)


def test_wf_val_constructors():
    assert wf_val(ENV, VConstr("Maybe", "Just", (VPrim(PInt(1)),)))
    assert not wf_val(ENV, VConstr("Maybe", "What", ()))
    too_many = VConstr("Maybe", "Just", (VPrim(PInt(1)),) * 3)
    assert not wf_val(ENV, too_many)


def test_wf_val_builtin_spine():
    assert wf_val(ENV, VBuiltin("addInt", (VPrim(PInt(1)),)))
    assert not wf_val(ENV, VBuiltin("addInt", (VPrim(PInt(1)),) * 5))
    assert not wf_val(ENV, VBuiltin("nosuch", ()))


# -- application spines -------------------------------------------------------

JUST, PAIR = Constr("Maybe", "Just"), Constr("Prod", "Pair")


def z(n):
    return Lit(PInt(n))


# (expression, least fuel, result at that fuel): a spine is applied in one
# pass, each step at its own level's fuel, so each runs out of fuel one below
SPINES = {
    "constructor over-applied": (
        mk_app(JUST, TyAsExpr(INT), z(1), z(2)),
        4, EvalError("constructor 'Just' applied to too many arguments"),
    ),
    "constructor over-applied through a closure": (
        mk_app(Lam("x", INT, PAIR), z(0), TyAsExpr(INT), TyAsExpr(INT), z(1), z(2), z(3)),
        7, EvalError("constructor 'Pair' applied to too many arguments"),
    ),
    "builtin over-applied": (
        mk_app(Const("addInt"), z(1), z(2), z(3)),
        4, EvalError("application of a non-function value"),
    ),
    "builtin's Bool over-applied": (
        mk_app(Const("ltInt"), z(1), z(2), z(3)),
        4, EvalError("constructor 'True' applied to too many arguments"),
    ),
    "partial constructor": (
        mk_app(PAIR, TyAsExpr(INT), TyAsExpr(INT), z(1)),
        4, Ok(VConstr("Prod", "Pair", (VTy(INT), VTy(INT), VPrim(PInt(1))))),
    ),
    "partial builtin": (
        App(Const("addInt"), z(1)),
        2, Ok(VBuiltin("addInt", (VPrim(PInt(1)),))),
    ),
    "partial builtin through a closure": (
        mk_app(Lam("x", INT, Const("addInt")), z(0), z(1)),
        3, Ok(VBuiltin("addInt", (VPrim(PInt(1)),))),
    ),
    "curried lambda whose domain does not fit": (
        mk_app(Lam("x", INT, Lam("y", TVar(0), Var(0))), z(1), z(2)),
        3, EvalError("lambda domain refers to a term-level binding"),
    ),
    "curried lambda whose body does not fit": (
        mk_app(TyLam("A", Lam("x", TVar(0), Lam("y", INT, Var(5)))), TyAsExpr(INT), z(1), z(2)),
        4, EvalError("lambda body does not fit its environment"),
    ),
    "type abstraction applied to a term mid-spine": (
        mk_app(Lam("x", INT, TyLam("A", Lam("y", TVar(0), Var(0)))), z(1), z(2), z(3)),
        4, EvalError("type abstraction applied to a term value"),
    ),
    "curried call of three": (
        mk_app(
            Lam("a", INT, Lam("b", INT, Lam("c", INT, mk_app(Const("addInt"), Var(2), Var(0))))),
            z(1), z(2), z(3),
        ),
        4, Ok(VPrim(PInt(4))),
    ),
}


@pytest.mark.parametrize("name", SPINES)
def test_a_spine_finishes_at_its_least_fuel(name):
    e, fuel, want = SPINES[name]
    assert ev(e, fuel=fuel) == want
    assert ev(e, fuel=fuel - 1) is NOT_ENOUGH_FUEL


def test_a_curried_call_records_each_extension():
    trace = EnvTrace()
    e = SPINES["curried call of three"][0]
    ok(e, trace=trace)
    body = mk_app(Const("addInt"), Var(2), Var(0))
    one, two, three = VPrim(PInt(1)), VPrim(PInt(2)), VPrim(PInt(3))
    assert trace.pairs == [
        ((one,), Lam("b", INT, Lam("c", INT, body))),
        ((two, one), Lam("c", INT, body)),
        ((three, two, one), body),
    ]


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
    assert isinstance(v, VClos) and isinstance(v.fn, Fix)
    shell = from_val(v)
    assert isinstance(shell, Fix)


def test_subst_env_expr_downshifts_out_of_range():
    assert subst_env_expr([Lit(PInt(1))], Var(1)) == Var(0)
    assert subst_env_expr([Lit(PInt(1))], Var(0)) == Lit(PInt(1))


def test_subst_env_expr_respects_binders():
    e = Lam("x", INT, App(Var(0), Var(1)))
    out = subst_env_expr([Lit(PInt(9))], e)
    assert out == Lam("x", INT, App(Var(0), Lit(PInt(9))))


def test_subst_env_expr_refuses_negative_references():
    # the cached footprint's bound is infinite, so the walk never starts
    assert subst_env_expr([Lit(PInt(1))], Var(-1)) is None
    assert subst_env_expr([], Lam("x", INT, App(Var(0), Var(-1)))) is None
    assert subst_env_expr([TyAsExpr(INT)], TyAsExpr(TVar(-1))) is None


def test_subst_env_ty_needs_type_entries():
    # a type position, reached through a type argument
    assert subst_env_expr([TyAsExpr(INT)], TyAsExpr(TVar(0))) == TyAsExpr(INT)
    assert subst_env_expr([Lit(PInt(1))], TyAsExpr(TVar(0))) is None


def test_a_closure_value_applies_to_a_value():
    # the application step runs the body one level down
    f = ok(Lam("x", INT, Var(0)))
    e = App(Var(0), Lit(PInt(8)))
    assert eval_expr(ENV, 2, (f,), e) == Ok(VPrim(PInt(8)))
    assert eval_expr(ENV, 1, (f,), e) is NOT_ENOUGH_FUEL


def test_subst_env_expr_keeps_closed_subtrees():
    closed = Lam("y", INT, App(Var(0), Lit(PInt(2))))
    out = subst_env_expr([Lit(PInt(9))], Lam("x", INT, App(Var(1), closed)))
    assert out == Lam("x", INT, App(Lit(PInt(9)), closed))
    assert out.body.arg is closed
    assert subst_env_expr([Lit(PInt(9))], closed) is closed


# ---------------------------------------------------------------------------
# read-back cache

def _no_readback():
    # the body's domain is a type position that reaches a term-level entry
    return VClos((VPrim(PInt(1)),), Lam("x", INT, Lam("y", TVar(1), Var(0))))


def test_from_val_answers_a_repeated_call_alike():
    f = ok(Lam("x", INT, mk_app(Const("addInt"), Var(0), Lit(PInt(1)))))
    for v in (f, ok(int_list_expr([1, 2, 3])), VBuiltin("addInt", (VPrim(PInt(4)),))):
        first = from_val(v)
        assert first is not None
        assert from_val(v) is first
    for v in (_no_readback(), VConstr("Maybe", "Just", (_no_readback(),))):
        assert from_val(v) is None
        assert from_val(v) is None


def test_read_back_values_compare_hash_and_print_like_fresh_ones():
    v = ok(Let("c", INT, Lit(PInt(3)), Lam("x", INT, mk_app(Const("addInt"), Var(0), Var(1)))))
    # evaluating again builds the very same value, read-back kept
    again = ok(Let("c", INT, Lit(PInt(3)), Lam("x", INT, mk_app(Const("addInt"), Var(0), Var(1)))))
    assert again is v and from_val(again) is from_val(v)
    # a copy built around the intern table has nothing cached: it prints the
    # same and reads back to an equal tree
    fresh = forged_copy(v)
    assert fresh._expr is None
    assert struct_eq(v, fresh) and repr(v) == repr(fresh)
    assert struct_eq(from_val(v), from_val(fresh))


def test_long_lists_read_back_at_the_default_recursion_limit():
    # as in translation, a caching wrapper would halve the reachable length
    v = ok(int_list_expr(range(900)))
    e = from_val(v)
    heads = []
    while isinstance(e, App) and isinstance(e.fn, App):
        heads.append(e.fn.arg.value.value)  # App(App(App(Cons, Int), x), rest)
        e = e.arg
    assert heads == list(range(900))
