import pytest

from acorncore.lang import (
    App,
    BUILTINS,
    Case,
    Const,
    Constr,
    ConstrDecl,
    Fix,
    GlobalEnv,
    InductiveDecl,
    Lam,
    LangError,
    Let,
    Lit,
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
    UnboundName,
    Var,
    app_spine,
    expr_closed_under,
    indexify,
    mk_app,
    resolve_constr,
    ty_app,
    ty_closed_under,
    wf_global_errors,
)

LIST = InductiveDecl(
    "List", 1, (ConstrDecl("Nil", ()), ConstrDecl("Cons", (TVar(0), ty_app(TInd("List"), TVar(0)))))
)
MAYBE = InductiveDecl("Maybe", 1, (ConstrDecl("Nothing", ()), ConstrDecl("Just", (TVar(0),))))


def test_pnat_rejects_negative():
    with pytest.raises(ValueError):
        PNat(-1)
    assert PNat(0).value == 0


def test_mk_app_and_spine_inverse():
    e = mk_app(Const("f"), Var(0), Lit(PInt(1)), Var(2))
    head, args = app_spine(e)
    assert head == Const("f")
    assert args == (Var(0), Lit(PInt(1)), Var(2))
    assert mk_app(head, *args) == e


def test_ty_app_builds_left_nested():
    t = ty_app(TInd("AcornMap"), TInd("Nat"), TInd("Int"))
    assert t == TApp(TApp(TInd("AcornMap"), TInd("Nat")), TInd("Int"))


def test_global_env_rejects_duplicate_inductive():
    env = GlobalEnv([LIST])
    with pytest.raises(LangError):
        env.add_inductive(LIST)


def test_resolvers():
    env = GlobalEnv([LIST, MAYBE])
    assert env.find_inductive("List") is LIST
    assert env.find_inductive("Tree") is None
    idx, decl = resolve_constr(env, "List", "Cons")
    assert idx == 1 and decl.name == "Cons"
    assert resolve_constr(env, "List", "Just") is None


def test_ctor_owner_map():
    env = GlobalEnv([LIST, MAYBE])
    assert env.ctor_owner["Cons"] == "List"
    assert env.ctor_owner["Nothing"] == "Maybe"


# -- closedness ---------------------------------------------------------------

def test_ty_closed_under():
    assert ty_closed_under(1, TVar(0))
    assert not ty_closed_under(0, TVar(0))
    assert ty_closed_under(0, TForall("A", TVar(0)))
    assert not ty_closed_under(0, TForall("A", TVar(1)))
    assert ty_closed_under(0, TArr(TInd("Int"), TInd("Int")))
    # named references never count as closed
    assert not ty_closed_under(3, TVar("A"))


def test_expr_closed_under_binders():
    assert expr_closed_under(0, Lam("x", TInd("Int"), Var(0)))
    assert not expr_closed_under(0, Lam("x", TInd("Int"), Var(1)))
    # fix binds the function and its argument
    fx = Fix("f", "x", TInd("Int"), TInd("Int"), App(Var(1), Var(0)))
    assert expr_closed_under(0, fx)
    assert not expr_closed_under(0, Fix("f", "x", TInd("Int"), TInd("Int"), Var(2)))
    # a let binds one
    assert expr_closed_under(0, Let("v", TInd("Int"), Lit(PInt(1)), Var(0)))
    assert not expr_closed_under(0, Let("v", TInd("Int"), Var(0), Var(0)))


def test_expr_closed_under_case():
    c = Case(
        Var(0),
        "Maybe",
        (TInd("Int"),),
        TInd("Int"),
        ((Pat("Nothing"), Lit(PInt(0))), (Pat("Just", ("v",)), Var(0))),
    )
    assert expr_closed_under(1, c)
    # the return annotation binds nothing
    c2 = Case(Var(0), "Maybe", (), TVar(0), ((Pat("Nothing"), Lit(PInt(0))),))
    assert not expr_closed_under(0, c2)
    # one pattern binder raises the branch cutoff by exactly one
    deep = Case(Lit(PInt(0)), "Maybe", (), TInd("Int"), ((Pat("Just", ("v",)), Var(1)),))
    assert not expr_closed_under(0, deep)
    assert expr_closed_under(1, deep)


# -- indexify -----------------------------------------------------------------

def test_indexify_shadowing():
    e = Lam("x", TInd("Int"), Lam("x", TInd("Int"), Var("x")))
    out = indexify((), e)
    assert out == Lam("x", TInd("Int"), Lam("x", TInd("Int"), Var(0)))


def test_indexify_spans_type_and_term_binders():
    # one shared index space: the lambda pushes the type var one out
    e = TyLam("A", Lam("x", TVar("A"), TyAsExpr(TVar("A"))))
    out = indexify((), e)
    assert out == TyLam("A", Lam("x", TVar(0), TyAsExpr(TVar(1))))


def test_indexify_unbound_raises():
    with pytest.raises(UnboundName) as exc_info:
        indexify((), Var("nope"))
    assert exc_info.value.name == "nope"


def test_indexify_initial_scope():
    assert indexify(("x", "y"), App(Var("x"), Var("y"))) == App(Var(0), Var(1))


def test_indexify_case_binders():
    e = Case(
        Var("m"),
        "Maybe",
        (),
        TInd("Int"),
        ((Pat("Just", ("v",)), App(Var("v"), Var("m"))),),
    )
    out = indexify(("m",), e)
    branch_body = out.branches[0][1]
    assert branch_body == App(Var(0), Var(1))


# -- de Bruijn layout of the parsed fold ------------------------------------

def _foldr_source():
    """The canonical polymorphic fold, with the binder layout the whole
    module stack assumes. Indices here come from hand derivation."""
    from acorncore.parser import parse_expr_text
    from acorncore.programs import stdlib_env

    return stdlib_env().constants["foldr"]


def test_fold_indices_match_hand_derivation():
    foldr = _foldr_source()
    # under /\A /\B \f \i, let go = fix rec xs -> case; Cons hd tl branch:
    # merged space (innermost first): tl=0 hd=1 xs=2 rec=3 i=4 f=5
    body = foldr
    for _ in range(2):
        body = body.body  # strip the two type lambdas
    f_dom = body.dom  # (A -> B -> B) before any term binder applies
    assert f_dom == TArr(TVar(1), TArr(TVar(0), TVar(0)))
    let = body.body.body
    assert isinstance(let, Let)
    # at the let annotation, A and B sit beyond i and f
    assert let.ty == TArr(TApp(TInd("List"), TVar(3)), TVar(2))
    fix = let.bound
    assert isinstance(fix, Fix)
    case = fix.body
    cons_body = dict((p.ctor, b) for p, b in case.branches)["Cons"]
    # f hd (rec tl)
    assert cons_body == mk_app(Var(5), Var(1), App(Var(3), Var(0)))


# -- well-formedness ----------------------------------------------------------

def test_wf_global_errors_duplicate_ctor():
    a = InductiveDecl("A", 0, (ConstrDecl("Mk", ()),))
    b = InductiveDecl("B", 0, (ConstrDecl("Mk", ()),))
    env = GlobalEnv([a, b])
    errors = wf_global_errors(env)
    assert any("Mk" in m for m in errors)


def test_wf_global_errors_open_ctor_arg():
    bad = InductiveDecl("Bad", 1, (ConstrDecl("MkBad", (TVar(1),)),))
    env = GlobalEnv([bad])
    assert wf_global_errors(env)


def test_wf_global_errors_open_constant():
    env = GlobalEnv([LIST])
    env.define("loose", Var(0))
    assert any("loose" in m for m in wf_global_errors(env))


def test_wf_global_accepts_builtin_entries():
    env = GlobalEnv((), dict(BUILTINS))
    assert not wf_global_errors(env)


def test_builtin_table_shape():
    assert set(BUILTINS) >= {
        "addInt", "subInt", "mulInt", "ltInt", "leInt", "eqInt",
        "addNat", "lebNat", "ltbNat", "eqbNat",
    }
    add = BUILTINS["addInt"]
    assert len(add.arg_kinds) == 2
    # aliases share semantics with their originals
    assert BUILTINS["plusInt64"].fn(3, 4) == BUILTINS["addInt"].fn(3, 4) == 7
