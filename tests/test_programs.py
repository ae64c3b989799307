"""Module loading, the contract registry, and the native conversion oracles
the evaluation results get compared against."""

import random

import pytest

from acorncore.interp import VConstr, VPrim, VTy, eval_expr
from acorncore.lang import GlobalEnv, Ok, PInt, PNat, TInd
from acorncore.programs import (
    CONTRACTS,
    ConversionError,
    base_env,
    constr_payload,
    contract,
    corpus_dir,
    from_acorn_list,
    int_list_expr,
    load_module,
    map_entries,
    native_foldr,
    native_sum_map,
    nat_val,
    resolve_module_path,
    scenario_dir,
    stdlib_env,
    val_to_bool,
    val_to_int,
    val_to_nat,
)
from acorncore.parser import parse_module
from acorncore.translate import translate_env

from oracles import (
    bool_val,
    deep_foldr_int,
    deep_sum_map,
    foldr_concat_check,
    int_val,
    to_acorn_list,
    to_acorn_map,
)

INT = TInd("Int")


# ---------------------------------------------------------------------------
# environments and module loading

def test_base_env_is_builtins_only():
    env = base_env()
    assert list(env.inductives) == []
    assert "addInt" in env.constants
    assert env.find_inductive("Bool") is None


def test_stdlib_env_holds_the_prelude():
    env = stdlib_env()
    for name in ("Bool", "Maybe", "Prod", "List", "AcornMap", "SimpleActionBody"):
        assert env.find_inductive(name) is not None
    for name in ("foldr", "concat", "mfind", "madd", "mdel", "sum_map", "maxInt"):
        assert name in env.constants
    # cached and shared
    assert stdlib_env() is env


def test_resolve_module_path():
    direct = corpus_dir() / "listops.acorn"
    assert resolve_module_path(str(direct)) == direct
    assert resolve_module_path("listops") == direct
    assert resolve_module_path("listops.acorn") == direct
    assert resolve_module_path("listops.json") == corpus_dir() / "listops.json"
    # a corpus/ prefix reaches the packaged files from any working directory
    assert resolve_module_path("corpus/listops.acorn") == direct
    with pytest.raises(FileNotFoundError, match="no module at"):
        resolve_module_path("does_not_exist")
    with pytest.raises(FileNotFoundError, match="no module at"):
        resolve_module_path("elsewhere/listops.acorn")


def test_load_module_builds_on_a_prelude_copy():
    env, defs = load_module("crowdfunding")
    assert "cf_init" in env.constants
    assert "cf_receive" in env.constants
    assert env is not stdlib_env()
    assert "cf_init" not in stdlib_env().constants
    assert dict(defs).keys() <= env.constants.keys()


def test_load_module_accepts_the_prelude_itself():
    env, _ = load_module("stdlib")
    assert sorted(d.name for d in env.inductives) == sorted(
        d.name for d in stdlib_env().inductives
    )


def test_json_twin_loads_like_the_source_module():
    env_a, defs_a = load_module("listops")
    env_j, defs_j = load_module("listops.json")
    assert [n for n, _ in defs_a] == [n for n, _ in defs_j]
    assert dict(defs_a) == dict(defs_j)


# ---------------------------------------------------------------------------
# contract registry

def test_registry_entries_load_and_expose_entry_points():
    for name, prog in CONTRACTS.items():
        lc = contract(name)
        assert lc.program is prog
        assert prog.init_name in lc.env.constants
        assert prog.receive_name in lc.env.constants
        assert prog.init_name in translate_env(lc.env).constants


def test_contract_is_cached():
    assert contract("counter") is contract("counter")


def test_contracts_load_from_the_packaged_corpus_only(monkeypatch, tmp_path):
    # module arguments resolve against the working directory first; a
    # contract's module never does
    (tmp_path / "dir" / "counter").mkdir(parents=True)
    (tmp_path / "file").mkdir()
    (tmp_path / "file" / "counter").write_text("def counter_init = 5z\n")
    want = parse_module((corpus_dir() / "counter.acorn").read_text(), stdlib_env())[0]
    for decoy in ("dir", "file"):
        monkeypatch.chdir(tmp_path / decoy)
        assert contract.__wrapped__("counter").env.constants == want.constants, decoy


def test_unknown_contract():
    with pytest.raises(ConversionError, match="unknown contract 'nope'"):
        contract("nope")


def test_setup_values():
    cf = CONTRACTS["crowdfunding"].make_setup({"deadline": 12, "goal": 60})
    assert cf == VConstr("Prod", "Pair", (VPrim(PNat(12)), VPrim(PInt(60))))
    assert CONTRACTS["counter"].make_setup({"start": 5}) == int_val(5)
    assert CONTRACTS["counter"].make_setup({}) == int_val(0)
    assert CONTRACTS["forwarder"].make_setup({"target": 7}) == nat_val(7)


def test_generated_calls_are_well_formed():
    rng = random.Random(11)
    for name in CONTRACTS:
        gen = CONTRACTS[name].gen_call
        for slot in (0, 5, 20):
            msg, amount = gen(rng, slot)
            assert amount >= 0
            assert msg is None or isinstance(msg, VConstr)


# ---------------------------------------------------------------------------
# scalar conversions

def test_scalar_round_trips():
    assert val_to_int(int_val(-4)) == -4
    assert val_to_nat(nat_val(9)) == 9
    assert val_to_bool(bool_val(True)) is True
    assert val_to_bool(bool_val(False)) is False


def test_scalar_conversions_check_their_kind():
    with pytest.raises(ConversionError, match="expected an integer"):
        val_to_int(nat_val(1))
    with pytest.raises(ConversionError, match="expected a natural"):
        val_to_nat(int_val(1))
    with pytest.raises(ConversionError, match="expected a boolean"):
        val_to_bool(int_val(1))
    with pytest.raises(ConversionError):
        val_to_bool(VConstr("Bool", "True", (int_val(1),)))


def test_constr_payload_strips_leading_type_arguments():
    v = VConstr("List", "Cons", (VTy(INT), int_val(1), int_val(2)))
    assert constr_payload(v) == (int_val(1), int_val(2))
    # only the leading block is a parameter prefix
    v = VConstr("X", "C", (VTy(INT), int_val(1), VTy(INT)))
    assert constr_payload(v) == (int_val(1), VTy(INT))
    assert constr_payload(VConstr("Maybe", "Nothing"), expect="Nothing") == ()


def test_constr_payload_failures():
    with pytest.raises(ConversionError, match="expected a constructor"):
        constr_payload(int_val(3))
    with pytest.raises(ConversionError, match="expected 'Just', got 'Nothing'"):
        constr_payload(VConstr("Maybe", "Nothing"), expect="Just")


# ---------------------------------------------------------------------------
# lists and maps

def test_list_round_trip():
    items = [int_val(3), int_val(1), int_val(2)]
    v = to_acorn_list(items, INT)
    assert from_acorn_list(v) == items
    assert from_acorn_list(to_acorn_list([], INT)) == []


def test_list_decoding_failures():
    with pytest.raises(ConversionError, match="expected a list"):
        from_acorn_list(int_val(1))
    with pytest.raises(ConversionError, match="unknown list constructor"):
        from_acorn_list(VConstr("List", "Snoc"))
    with pytest.raises(ConversionError, match="head and a tail"):
        from_acorn_list(VConstr("List", "Cons", (int_val(1),)))
    with pytest.raises(ConversionError, match="empty list with value arguments"):
        from_acorn_list(VConstr("List", "Nil", (int_val(1),)))


def test_map_round_trip_preserves_order_and_duplicates():
    pairs = [(2, 25), (1, 7), (2, 10)]
    assert map_entries(to_acorn_map(pairs)) == pairs
    assert map_entries(to_acorn_map([])) == []


def test_native_sum_map_counts_first_occurrences():
    assert native_sum_map(to_acorn_map([(2, 25), (2, 10), (3, 5)])) == 30
    assert native_sum_map(to_acorn_map([(1, 5), (2, 7), (1, 100)])) == 12
    assert native_sum_map(to_acorn_map([])) == 0


def test_native_foldr_is_right_associated():
    sub = lambda a, b: a - b
    # 1 - (2 - (3 - 0))
    assert native_foldr(sub, 0, [1, 2, 3]) == 2
    assert native_foldr(sub, 0, []) == 0


# ---------------------------------------------------------------------------
# evaluated values against the native oracles

def test_int_list_expr_evaluates_to_the_canonical_value():
    r = eval_expr(stdlib_env(), 1000, (), int_list_expr([1, 2]))
    assert isinstance(r, Ok)
    assert r.value == to_acorn_list([int_val(1), int_val(2)], INT)


def test_deep_foldr_matches_native_foldr():
    env = stdlib_env()
    for xs in ([], [5], [1, 2, 3], list(range(-4, 9))):
        assert deep_foldr_int(env, "addInt", 0, xs) == native_foldr(
            lambda a, b: a + b, 0, xs
        )
        assert deep_foldr_int(env, "maxInt", -99, xs) == native_foldr(max, -99, xs)
        assert deep_foldr_int(env, "subInt", 7, xs) == native_foldr(
            lambda a, b: a - b, 7, xs
        )


def test_deep_foldr_reports_exhaustion():
    with pytest.raises(ConversionError, match="fold did not finish"):
        deep_foldr_int(stdlib_env(), "addInt", 0, list(range(50)), fuel=20)


def test_foldr_concat_identity_holds():
    env = stdlib_env()
    assert foldr_concat_check(env, "addInt", 0, [1, 2], [3, 4])
    assert foldr_concat_check(env, "maxInt", -5, [9, -2], [0, 4, 4])
    assert foldr_concat_check(env, "subInt", 3, [], [1])


def test_deep_sum_map_matches_the_native_oracle():
    env = stdlib_env()
    for pairs in (
        [],
        [(1, 5)],
        [(1, 5), (2, 7), (1, 100)],
        [(2, 25), (2, 10), (3, 5), (2, -4)],
    ):
        v = to_acorn_map(pairs)
        assert deep_sum_map(env, v) == native_sum_map(v)


def test_scenario_dir_is_packaged():
    assert (scenario_dir() / "crowdfunding.json").exists()
    assert (scenario_dir() / "counter.json").exists()
