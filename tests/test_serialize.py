import json
import random

import pytest

from acorncore.lang import (
    App,
    Case,
    Const,
    Constr,
    Fix,
    Lam,
    Let,
    Lit,
    PInt,
    PNat,
    Pat,
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
from acorncore.serialize import (
    JsonError,
    decl_from_json,
    expr_from_json,
    module_from_json,
    parse_json,
    prim_from_json,
    ty_from_json,
)

from oracles import decl_to_json, expr_to_json, module_to_json, prim_to_json, ty_to_json


def test_prim_round_trip():
    for p in (PInt(-5), PInt(0), PNat(0), PNat(7)):
        assert prim_from_json(prim_to_json(p)) == p


def test_prim_tags_distinguish_kinds():
    assert prim_to_json(PInt(3)) != prim_to_json(PNat(3))


def test_prim_bad_payload():
    with pytest.raises(JsonError):
        prim_from_json({"tag": "PNat", "value": -1})
    with pytest.raises(JsonError):
        prim_from_json({"tag": "PFloat", "value": 1.5})


def test_ty_round_trip():
    tys = [
        TVar(0),
        TInd("Int"),
        TForall("A", TArr(TVar(0), TVar(0))),
        ty_app(TInd("AcornMap"), TInd("Nat"), TInd("Int")),
        TArr(TArr(TInd("Int"), TInd("Bool")), TInd("Int")),
    ]
    for t in tys:
        assert ty_from_json(ty_to_json(t)) == t


def test_expr_round_trip_all_forms():
    e = Let(
        "acc",
        TInd("Int"),
        Lit(PInt(3)),
        Case(
            mk_app(Constr("Maybe", "Just"), TyAsExpr(TInd("Int")), Var(0)),
            "Maybe",
            (TInd("Int"),),
            TInd("Int"),
            (
                (Pat("Nothing", ()), Const("zero")),
                (Pat("Just", ("v",)),
                 App(Fix("f", "x", TInd("Int"), TInd("Int"),
                         mk_app(Var(1), Var(0))), Var(0))),
            ),
        ),
    )
    assert expr_from_json(expr_to_json(e)) == e


def test_tylam_round_trip():
    e = TyLam("A", Lam("x", TVar(0), Var(0)))
    assert expr_from_json(expr_to_json(e)) == e


def test_expr_json_is_json_serializable():
    e = mk_app(Const("addInt"), Lit(PInt(1)), Lit(PInt(2)))
    text = json.dumps(expr_to_json(e))
    assert expr_from_json(json.loads(text)) == e


def test_negative_indices_are_rejected():
    with pytest.raises(JsonError, match="non-negative"):
        expr_from_json({"tag": "Var", "index": -1})
    with pytest.raises(JsonError, match="non-negative"):
        ty_from_json({"tag": "TVar", "index": -2})
    assert expr_from_json({"tag": "Var", "index": 0}) == Var(0)


def test_expr_bad_tag():
    with pytest.raises(JsonError):
        expr_from_json({"tag": "Nope"})
    with pytest.raises(JsonError):
        expr_from_json({"no": "tag"})
    with pytest.raises(JsonError):
        expr_from_json(42)
    case = expr_to_json(
        Case(Var(0), "Bool", (), TInd("Int"), ((Pat("True"), Lit(PInt(1))),))
    )
    with pytest.raises(JsonError, match="case type parameters must be a list"):
        expr_from_json({**case, "tyParams": 5})


def test_decl_round_trip():
    from acorncore.lang import ConstrDecl, InductiveDecl

    d = InductiveDecl(
        "Tree", 1,
        (ConstrDecl("Leaf", ()),
         ConstrDecl("Node", (TVar(0), ty_app(TInd("Tree"), TVar(0))))),
    )
    assert decl_from_json(decl_to_json(d)) == d
    bad = decl_to_json(d)
    bad["constrs"][1]["args"] = 5
    with pytest.raises(JsonError, match="constructor arguments must be a list"):
        decl_from_json(bad)


def test_a_negative_parameter_count_is_rejected():
    box = {"name": "Box", "numParams": -1, "constrs": [{"name": "MkBox", "args": [ty_to_json(TVar(0))]}]}
    with pytest.raises(JsonError, match="numParams must be non-negative"):
        decl_from_json(box)
    assert decl_from_json({**box, "numParams": 1}).num_params == 1


def test_module_round_trip():
    from acorncore.programs import load_module, stdlib_env

    env, defs = load_module("mapops")
    own = [d for d in env.inductives if d not in stdlib_env().inductives]
    data = module_to_json(env, own, [n for n, _ in defs])
    decls2, defs2 = module_from_json(json.loads(json.dumps(data)), "module")
    assert decls2 == own
    assert defs2 == defs


def test_json_nested_past_the_recursion_limit_is_rejected():
    with pytest.raises(JsonError, match="'deep' is nested too deeply"):
        parse_json("[" * 100_000 + "]" * 100_000, "'deep'")
    body = {"tag": "Lit", "value": prim_to_json(PInt(1))}
    for _ in range(3000):
        body = {"tag": "App", "fn": body, "arg": body}
    with pytest.raises(JsonError, match="'deep' is nested too deeply"):
        module_from_json({"inductives": [], "defs": [{"name": "x", "body": body}]}, "'deep'")


def test_corpus_json_twins_do_not_drift():
    """The shipped .json modules must stay regenerable from their sources."""
    from acorncore.programs import corpus_dir, load_module, stdlib_env

    stdlib_inds = {d.name for d in stdlib_env().inductives}
    for stem in ("listops", "counter"):
        env, defs = load_module(stem)
        own = [d for d in env.inductives if d.name not in stdlib_inds]
        regenerated = module_to_json(env, own, [n for n, _ in defs])
        shipped = json.loads((corpus_dir() / f"{stem}.json").read_text())
        assert shipped == regenerated, f"{stem}.json is stale"


def test_generated_exprs_round_trip():
    from acorncore.soundness import gen_expr

    rng = random.Random(5)
    for _ in range(200):
        e = gen_expr(rng, 12)
        assert expr_from_json(json.loads(json.dumps(expr_to_json(e)))) == e
