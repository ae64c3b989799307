import copy
import dataclasses
import pickle

import pytest

from acorncore import interp, lang
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
    closed_under,
    mk_app,
    ty_app,
    wf_global_errors,
)
from acorncore import kernel as k
from acorncore.parser import parse_expr_text, parse_module
from acorncore.programs import stdlib_env
from acorncore.translate import expr_to_term

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
    idx, decl, ind = env.constrs[("List", "Cons")]
    assert idx == 1 and decl.name == "Cons" and ind is LIST
    assert ("List", "Just") not in env.constrs


def test_a_repeated_constructor_resolves_to_its_first_declaration():
    # ill-formed (`wf_global_errors` says so), but still resolved the way a
    # scan of the declaration would: the first one wins
    twice = InductiveDecl("Twice", 1, (ConstrDecl("C", ()), ConstrDecl("C", (TVar(0),))))
    env = GlobalEnv([twice])
    assert env.constrs[("Twice", "C")] == (0, ConstrDecl("C", ()), twice)
    assert env.copy().constrs == env.constrs
    assert expr_to_term(env, Constr("Twice", "C")) == k.Construct("Twice", 0)


def test_ctor_owner_map():
    env = GlobalEnv([LIST, MAYBE])
    assert env.ctor_owner["Cons"] == "List"
    assert env.ctor_owner["Nothing"] == "Maybe"


# -- closedness ---------------------------------------------------------------

def test_ty_closed_under():
    assert closed_under(1, TVar(0))
    assert not closed_under(0, TVar(0))
    assert closed_under(0, TForall("A", TVar(0)))
    assert not closed_under(0, TForall("A", TVar(1)))
    assert closed_under(0, TArr(TInd("Int"), TInd("Int")))


def test_expr_closed_under_binders():
    assert closed_under(0, Lam("x", TInd("Int"), Var(0)))
    assert not closed_under(0, Lam("x", TInd("Int"), Var(1)))
    # fix binds the function and its argument
    fx = Fix("f", "x", TInd("Int"), TInd("Int"), App(Var(1), Var(0)))
    assert closed_under(0, fx)
    assert not closed_under(0, Fix("f", "x", TInd("Int"), TInd("Int"), Var(2)))
    # a let binds one
    assert closed_under(0, Let("v", TInd("Int"), Lit(PInt(1)), Var(0)))
    assert not closed_under(0, Let("v", TInd("Int"), Var(0), Var(0)))


def test_expr_closed_under_case():
    c = Case(
        Var(0),
        "Maybe",
        (TInd("Int"),),
        TInd("Int"),
        ((Pat("Nothing"), Lit(PInt(0))), (Pat("Just", ("v",)), Var(0))),
    )
    assert closed_under(1, c)
    # the return annotation binds nothing
    c2 = Case(Var(0), "Maybe", (), TVar(0), ((Pat("Nothing"), Lit(PInt(0))),))
    assert not closed_under(0, c2)
    # one pattern binder raises the branch cutoff by exactly one
    deep = Case(Lit(PInt(0)), "Maybe", (), TInd("Int"), ((Pat("Just", ("v",)), Var(1)),))
    assert not closed_under(0, deep)
    assert closed_under(1, deep)


# -- indexify: the parser turns names into de Bruijn indices ----------------

def _parse(text, names=()):
    return parse_expr_text(text, stdlib_env(), names)


def test_indexify_shadowing():
    out = _parse("\\x : Int -> \\x : Int -> x")
    assert out == Lam("x", TInd("Int"), Lam("x", TInd("Int"), Var(0)))


def test_indexify_spans_type_and_term_binders():
    # one shared index space: the lambda pushes the type var one out
    out = _parse("/\\A -> \\x : A -> [A]")
    assert out == TyLam("A", Lam("x", TVar(0), TyAsExpr(TVar(1))))


def test_indexify_unbound_raises():
    with pytest.raises(UnboundName) as exc_info:
        _parse("nope")
    assert exc_info.value.name == "nope"
    with pytest.raises(UnboundName, match="unbound type variable 'B'") as exc_info:
        _parse("\\x : B -> x")
    assert exc_info.value.name == "B"


def test_indexify_initial_scope():
    assert _parse("x y", ("x", "y")) == App(Var(0), Var(1))


def test_indexify_case_binders():
    # the last pattern binder is innermost
    out = _parse("case p : Prod Int Int return Int of | Pair a b -> subInt a b", ("p",))
    assert out.branches[0][1] == App(App(Const("subInt"), Var(1)), Var(0))
    # a branch's binders sit in front of the enclosing scope
    out = _parse("case m : Maybe Int return Int of | Just v -> addInt v n", ("m", "n"))
    assert out.branches[0][1] == App(App(Const("addInt"), Var(0)), Var(2))


def test_indexify_alias_with_a_forall_under_a_binder():
    _, defs = parse_module(
        "type Id = forall A . A -> A\n"
        "def k = /\\B -> \\y : B -> \\f : Id -> y\n",
        stdlib_env(),
    )
    # the alias is closed, so its indices do not move under B and y
    idty = TForall("A", TArr(TVar(0), TVar(0)))
    assert dict(defs)["k"] == TyLam("B", Lam("y", TVar(0), Lam("f", idty, Var(1))))


# -- de Bruijn layout of the parsed fold ------------------------------------

def _foldr_source():
    """The canonical polymorphic fold, with the binder layout the whole
    module stack assumes. Indices here come from hand derivation."""
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


# ---------------------------------------------------------------------------
# tree nodes: the classes `tree_node` makes

# cache slots each node base declares; a node without them keeps a dictionary
CACHES = {
    lang.Ty: ("_fp", "_term"),
    lang.Expr: ("_fp", "_term"),
    interp.Val: ("_expr",),
}
TREE_NODES = [PInt, PNat, Pat] + [
    c
    for module, base in ((lang, lang.Ty), (lang, lang.Expr), (interp, interp.Val), (k, k.Term))
    for c in vars(module).values()
    if isinstance(c, type) and issubclass(c, base) and c is not base
]


def _node_id(kind):
    return f"{kind.__module__.rsplit('.', 1)[-1]}.{kind.__name__}"


def _sample(kind, offset=0):
    # a distinct positive int per field, which every field takes
    return {f.name: i + 1 + offset for i, f in enumerate(dataclasses.fields(kind))}


def test_every_tree_node_class_is_listed():
    # 2 literals, the pattern, 5 types, 11 expressions, 5 values and 12
    # kernel terms
    assert len(TREE_NODES) == 36


@pytest.mark.parametrize("kind", TREE_NODES, ids=_node_id)
def test_a_tree_node_is_the_frozen_dataclass_it_replaces(kind):
    # the same fields, repr and class patterns as the plain frozen dataclass,
    # but built once per distinct value: `==` is `is` and `hash` is the
    # identity hash
    names = [f.name for f in dataclasses.fields(kind)]
    twin = dataclasses.make_dataclass(kind.__name__, names, frozen=True)
    args = _sample(kind)
    node = kind(**args)
    assert kind(*args.values()) is node
    assert kind.__eq__ is object.__eq__ and kind.__hash__ is object.__hash__
    assert node == kind(**args) and hash(node) == object.__hash__(node)
    assert repr(node) == repr(twin(**args))
    assert kind.__match_args__ == twin.__match_args__ == tuple(names)
    if names:
        other = kind(**_sample(kind, 10))
        assert node != other and other is not node
        match node:
            case kind(first):
                assert first == 1
            case _:
                pytest.fail("class pattern did not match")


@pytest.mark.parametrize("kind", TREE_NODES, ids=_node_id)
def test_a_tree_node_class_has_no_method_dataclass_generated(kind):
    # `tree_node` compiles `__new__` and `__repr__` itself and freezes with
    # `_frozen`; dataclass's own methods (`__init__`, `__eq__`, the frozen
    # `__setattr__`, the recursion-guarded `__repr__`) would each cost a
    # compile at import
    own = vars(kind)
    assert "__init__" not in own and "__eq__" not in own
    assert own["__setattr__"] is lang._frozen and own["__delattr__"] is lang._frozen
    assert not hasattr(kind.__repr__, "__wrapped__")
    assert kind.__repr__.__qualname__ == f"{kind.__qualname__}.__repr__"
    # still a dataclass: `replace` builds through `__new__`, so it interns
    node = kind(**_sample(kind))
    assert dataclasses.replace(node) is node
    if _sample(kind):
        first = dataclasses.fields(kind)[0].name
        other = dataclasses.replace(node, **{first: 90})
        assert other is kind(**{**_sample(kind), first: 90}) and other is not node


@pytest.mark.parametrize(
    "kind", [c for c in TREE_NODES if c.__module__ == k.__name__], ids=_node_id
)
def test_a_kernel_node_shows_its_fields_as_the_benchmark_counts_them(kind):
    # `bench/layers.py::term_nodes` counts an object as a kernel node when it
    # has `__dataclass_fields__` and walks its children through `vars()`
    assert hasattr(kind, "__dataclass_fields__")
    args = _sample(kind, 8_000_000)
    node = kind(**args)
    assert {name: vars(node).get(name) for name in args} == args


def test_no_class_has_a_docstring_that_dataclass_wrote():
    # `dataclass` writes `Name(field: type, ...)` into a class without a
    # docstring, and reads the class's signature to do it: every node and
    # record brings its own docstring instead
    import importlib
    import pkgutil

    import acorncore

    written = []
    for info in pkgutil.iter_modules(acorncore.__path__):
        module = importlib.import_module(f"acorncore.{info.name}")
        for c in vars(module).values():
            if isinstance(c, type) and c.__module__ == module.__name__:
                if (c.__doc__ or "").startswith(f"{c.__name__}("):
                    written.append(f"{info.name}.{c.__name__}")
    assert written == []


@pytest.mark.parametrize("kind", TREE_NODES, ids=_node_id)
def test_a_tree_node_starts_with_its_caches_empty(kind):
    # values no other test builds, so that the node is new here
    args = _sample(kind, 7_000_000)
    if not args:
        # a class without fields has one node, built with its module
        assert kind() is kind() is k.SORT_SET
        return
    node = kind(**args)
    base = kind.__mro__[1]
    if base in CACHES:
        assert not hasattr(node, "__dict__")
        for name in CACHES[base]:
            assert getattr(node, name) is None  # a read that does not miss
        cache = CACHES[base][0]
    else:
        assert vars(node) == args
        cache = "_bound"
    # building it again finds it, and leaves what is cached on it alone
    object.__setattr__(node, cache, 5)
    assert kind(**args) is node and getattr(node, cache) == 5


@pytest.mark.parametrize(
    "node",
    [TVar(3), k.App(k.Rel(0), k.SORT_SET)],
    ids=["slotted surface node", "kernel term"],
)
@pytest.mark.parametrize("name", ["ref", "fn", "_fp", "_bound", "unknown"])
def test_no_attribute_of_a_shared_node_can_be_written(node, name):
    # a field, a cache name or any other name; caches are written with
    # `object.__setattr__`
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(node, name)


def test_a_literal_keys_on_the_type_of_its_value():
    # True == 1 and both hash alike, but they are different literals
    assert PInt(True) is not PInt(1) and PInt(1) is PInt(1)
    assert PInt(True).value is True and PInt(1).value == 1
    assert Lit(PInt(True)) is not Lit(PInt(1))


def test_copying_or_pickling_a_node_gives_the_node_itself():
    e = Case(Var(0), "Bool", (), TInd("Int"), ((Pat("True"), Lit(PInt(1))),))
    for node in (e, k.App(k.Rel(0), k.SORT_SET), interp.VConstr("Bool", "True")):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


def test_tree_node_defaults_and_post_init_hold():
    defaulted = []
    for kind in TREE_NODES:
        fields = dataclasses.fields(kind)
        required = {f.name: 1 for f in fields if f.default is dataclasses.MISSING}
        for f in fields:
            if f.default is not dataclasses.MISSING:
                assert getattr(kind(**required), f.name) == f.default
                defaulted.append(f"{kind.__name__}.{f.name}")
    assert defaulted == ["Pat.binders", "VConstr.args", "VBuiltin.args"]
    assert interp.VConstr("Bool", "True").args == ()
    with pytest.raises(ValueError):
        PNat(value=-1)
    # a node whose `__post_init__` raises is not filed
    assert not [key for key in lang._NODES if key[0] is PNat and key[1] == -1]
