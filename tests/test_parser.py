import random
import sys
from pathlib import Path

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
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    TyAsExpr,
    TyLam,
    UnboundName,
    Var,
    mk_app,
)
from acorncore.parser import (
    KEYWORDS,
    ParseError,
    parse_expr_text,
    parse_module,
    pretty_expr,
    tokenize,
)
from acorncore.programs import base_env, corpus_dir, load_module, stdlib_env

import oracles
from oracles import pretty_ty


def parse(text, names=()):
    return parse_expr_text(text, stdlib_env(), names)


def erase_hints(e):
    """Strip binder hints for comparisons. The printer may rename a binder
    to dodge a collision; indices and structure are what must survive."""
    import dataclasses

    from acorncore.lang import Expr, Pat, Ty

    match e:
        case Lam(_, dom, body):
            return Lam("_", erase_hints(dom), erase_hints(body))
        case TyLam(_, body):
            return TyLam("_", erase_hints(body))
        case Let(_, ty, bound, body):
            return Let("_", erase_hints(ty), erase_hints(bound), erase_hints(body))
        case Fix(_, _, dom, cod, body):
            return Fix("_", "_", erase_hints(dom), erase_hints(cod), erase_hints(body))
        case Case(scrut, ind, tps, ret, branches):
            return Case(
                erase_hints(scrut),
                ind,
                tuple(erase_hints(t) for t in tps),
                erase_hints(ret),
                tuple(
                    (Pat(p.ctor, ("_",) * len(p.binders)), erase_hints(b))
                    for p, b in branches
                ),
            )
        case TForall(_, body):
            return TForall("_", erase_hints(body))
        case TyAsExpr(ty):
            return TyAsExpr(erase_hints(ty))
        case App(fn, arg):
            return App(erase_hints(fn), erase_hints(arg))
        case TApp(fn, arg):
            return TApp(erase_hints(fn), erase_hints(arg))
        case TArr(dom, cod):
            return TArr(erase_hints(dom), erase_hints(cod))
        case _:
            return e


# -- expressions --------------------------------------------------------------

def test_literals():
    assert parse("3") == Lit(PNat(3))
    assert parse("3z") == Lit(PInt(3))
    assert parse("-3z") == Lit(PInt(-3))


def test_negative_needs_int_marker():
    with pytest.raises(ParseError):
        parse("-3")


def test_application_left_nested():
    e = parse("f a b", names=("b", "a", "f"))
    assert e == App(App(Var(2), Var(1)), Var(0))


def test_lambda_and_arrow_domains():
    e = parse(r"\x : Int -> x")
    assert e == Lam("x", TInd("Int"), Var(0))
    # arrow domains need parentheses; app-level types do not
    e2 = parse(r"\f : (Int -> Int) -> f 1z")
    assert e2 == Lam("f", TArr(TInd("Int"), TInd("Int")), App(Var(0), Lit(PInt(1))))
    e3 = parse(r"\l : List Int -> l")
    assert e3.dom == TApp(TInd("List"), TInd("Int"))


def test_type_lambda_and_type_atom():
    e = parse(r"/\A -> \x : A -> x")
    assert e == TyLam("A", Lam("x", TVar(0), Var(0)))
    e2 = parse("Nil [Int]")
    assert e2 == App(Constr("List", "Nil"), TyAsExpr(TInd("Int")))


def test_let_binding():
    e = parse("let x : Int = 1z in addInt x x")
    assert e == Let(
        "x", TInd("Int"), Lit(PInt(1)), mk_app(Const("addInt"), Var(0), Var(0))
    )


def test_fix_syntax():
    e = parse("fix f (x : Int) : Int = f x")
    assert e == Fix("f", "x", TInd("Int"), TInd("Int"), App(Var(1), Var(0)))


def test_case_with_type_params():
    e = parse(
        "case Just 1z : Maybe Int return Int of | Nothing -> 0z | Just v -> v"
    )
    assert e == Case(
        App(Constr("Maybe", "Just"), Lit(PInt(1))),
        "Maybe",
        (TInd("Int"),),
        TInd("Int"),
        ((Pat("Nothing", ()), Lit(PInt(0))), (Pat("Just", ("v",)), Var(0))),
    )


def test_case_branch_order_preserved():
    e = parse("case True : Bool return Int of | False -> 0z | True -> 1z")
    assert [p.ctor for p, _ in e.branches] == ["False", "True"]


def test_if_sugar_is_a_bool_case():
    e = parse("if ltInt 1z 2z return Int then 3z else 4z")
    assert isinstance(e, Case)
    assert e.ind == "Bool"
    assert e.branches[0][0] == Pat("True") and e.branches[1][0] == Pat("False")
    assert e.branches[0][1] == Lit(PInt(3))


def test_unknown_case_inductive_rejected():
    with pytest.raises(UnboundName, match="1:11: unbound inductive 'Wat'"):
        parse("case 1z : Wat return Int of | C -> 1z")


def test_comments_and_whitespace():
    assert parse("addInt 1z 2z -- trailing\n") == parse("addInt 1z  2z")


def test_unbound_name_raises_through():
    with pytest.raises(UnboundName):
        parse("missing 1z")


def test_unbound_names_carry_the_token_position():
    with pytest.raises(UnboundName) as exc_info:
        parse("addInt 1z\n  missing")
    assert (exc_info.value.line, exc_info.value.col) == (2, 3)
    assert str(exc_info.value) == "2:3: unbound variable 'missing'"
    # one error for an unknown type name, wherever the type is written
    for text, col, kind in [
        ("def x = \\y : Foo -> y", 14, "type variable"),
        ("type T = Foo", 10, "type variable"),
        ("data D #0 = C [Foo]", 16, "type variable"),
        ("def x = case 1z : Foo return Int of | C -> 1z", 19, "inductive"),
    ]:
        with pytest.raises(UnboundName) as exc_info:
            parse_module(text, stdlib_env())
        assert str(exc_info.value) == f"1:{col}: unbound {kind} 'Foo'"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc_info:
        parse("let x : Int = in x")
    assert "1:" in str(exc_info.value)


ACORN_FILES = sorted(corpus_dir().glob("*.acorn")) + sorted(
    Path(__file__).parent.glob("**/*.acorn")
)


def _lexed(tokenizer, text):
    # the tokens as (kind, text, line, col), or the error the text raises
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenizer(text)]
    except ParseError as err:
        return ("error", str(err), err.line, err.col)


def _edits(text, rng):
    yield text
    yield text.replace("\n", "\r\n")
    yield text.replace("    ", "\t").replace("  ", "\t ")
    yield text.rstrip("\n") + "\n-- a comment at the end, with no newline"
    yield ""
    ends = [end for _, end in oracles.token_spans(text)]
    for bad in "@$é":
        # right after a token, so never inside a comment; and anywhere
        for at in (rng.choice(ends), rng.randrange(len(text) + 1)):
            yield text[:at] + bad + text[at:]


@pytest.mark.parametrize("path", ACORN_FILES, ids=lambda p: p.name)
def test_tokenize_matches_the_match_at_a_time_tokenizer(path):
    # one pass over `finditer` gives the tokens, lines, columns and errors
    # that a `match` call per token gave
    rng = random.Random(path.name)
    text = path.read_text()
    errors = 0
    for edited in _edits(text, rng):
        expected = _lexed(oracles.tokenize, edited)
        assert _lexed(tokenize, edited) == expected
        errors += expected[0] == "error"
    assert errors >= 3  # each stray character, at least after a token


def test_tokenize_edge_cases_match_the_match_at_a_time_tokenizer():
    cases = ["", "\n", "x", "-- only a comment", "a\r\nb", "\tx\n\t\ty", "1z -2z ->"]
    cases += ["é", "x\n  $", "f @", "\u00a0x", "a\x0cb\x0bc", "--x\n--y\nz", "- 1"]
    for text in cases:
        assert _lexed(tokenize, text) == _lexed(oracles.tokenize, text), repr(text)
    assert _lexed(tokenize, "x\n  $") == ("error", "2:3: unexpected character '$'", 2, 3)


def test_input_nested_past_the_recursion_limit_is_a_parse_error():
    deep = "(" * 3000 + "1z" + ")" * 3000
    with pytest.raises(ParseError, match="input nested too deeply"):
        parse(deep)
    with pytest.raises(ParseError, match="input nested too deeply"):
        parse_module(f"def x = {deep}\n", stdlib_env())
    with pytest.raises(ParseError, match="input nested too deeply"):
        parse_module("type T = " + "(" * 3000 + "Int" + ")" * 3000 + "\n", stdlib_env())


@pytest.mark.parametrize("binder", ["let x : Int = 1z in ", r"\x : Int -> "])
def test_binder_chains_800_deep_parse_at_the_default_recursion_limit(binder):
    # Under pytest the deepest chain that parses is about 950. A binder
    # that cost the parser a second frame would halve that.
    assert sys.getrecursionlimit() == 1000
    e = parse(binder * 800 + "x")
    for _ in range(800):
        assert isinstance(e, (Let, Lam))
        e = e.body
    assert e == Var(0)


def test_keywords_not_usable_as_binders():
    with pytest.raises(ParseError):
        parse(r"\case : Int -> 1z")
    assert {"let", "in", "case", "of", "fix", "if", "forall"} <= KEYWORDS


def test_forall_type_parses():
    e = parse(r"\f : (forall A . A -> A) -> f")
    assert e.dom == TForall("A", TArr(TVar(0), TVar(0)))


# -- modules ------------------------------------------------------------------

def test_module_data_and_defs():
    env, defs = parse_module(
        """
data Pairish #2 = MkPairish [^1, ^0]
def p = MkPairish 1z 2z
def q = p
""",
        stdlib_env(),
    )
    d = env.find_inductive("Pairish")
    assert d.num_params == 2
    assert d.constrs[0].arg_tys == (TVar(1), TVar(0))
    assert dict(defs)["q"] == Const("p")


def test_module_self_referential_data():
    env, _ = parse_module("data T #1 = L [] | N [^0, T ^0, T ^0]", stdlib_env())
    d = env.find_inductive("T")
    n = d.constrs[1]
    assert n.arg_tys == (TVar(0), TApp(TInd("T"), TVar(0)), TApp(TInd("T"), TVar(0)))


def test_module_alias_expands_at_parse_time():
    env, defs = parse_module(
        "type M = AcornMap Nat Int\ndef e = MNil\ndef f = \\m : M -> m",
        stdlib_env(),
    )
    assert dict(defs)["f"].dom == TApp(TApp(TInd("AcornMap"), TInd("Nat")), TInd("Int"))


def test_module_def_sees_earlier_defs_only():
    with pytest.raises(UnboundName):
        parse_module("def a = b\ndef b = 1z", stdlib_env())


def test_module_duplicate_data_rejected():
    with pytest.raises(Exception):
        parse_module("data Bool #0 = Yes []", stdlib_env())


def test_base_env_has_no_inductives():
    assert base_env().inductives == []


# -- pretty printing ----------------------------------------------------------

def test_pretty_ty_round_trips_arrows():
    t = TArr(TArr(TInd("Int"), TInd("Int")), TApp(TInd("List"), TInd("Int")))
    assert pretty_ty(t) == "(Int -> Int) -> List Int"


def test_pretty_out_of_context_tvar():
    assert pretty_ty(TVar(2)) == "^2"


def test_pretty_expr_avoids_keywords_and_globals():
    # binder hints that collide with live names get freshened
    e = Lam("case", TInd("Int"), Var(0))
    s = pretty_expr(e, (), stdlib_env())
    assert "\\case" not in s
    reparsed = parse_expr_text(s, stdlib_env())
    assert erase_hints(reparsed) == erase_hints(e)
    # a global constant name is dodged too
    s2 = pretty_expr(Lam("foldr", TInd("Int"), Var(0)), (), stdlib_env())
    assert s2.split(" ")[0] != "\\foldr"


def _round_trip(e, env):
    printed = pretty_expr(e, (), env)
    reparsed = parse_expr_text(printed, env)
    return erase_hints(reparsed), printed


@pytest.mark.parametrize(
    "module",
    ["stdlib", "basics", "listops", "mapops", "counter", "crowdfunding",
     "crowdfunding_overrecord", "forwarder"],
)
def test_pretty_round_trip_whole_corpus(module):
    """Printing any corpus definition and reparsing it must reproduce the
    same indexed syntax. Binder hints may be freshened on collision, so the
    comparison erases them; everything else is exact."""
    env, defs = load_module(module)
    for name, body in defs:
        reparsed, printed = _round_trip(body, env)
        expected = erase_hints(body)
        assert reparsed == expected, f"{module}.{name} changed through print/parse:\n{printed}"


def test_pretty_round_trip_generated():
    import random

    from acorncore.soundness import gen_expr

    env = stdlib_env()
    rng = random.Random(99)
    for _ in range(300):
        e = gen_expr(rng, 10)
        reparsed, printed = _round_trip(e, env)
        assert reparsed == erase_hints(e), printed
