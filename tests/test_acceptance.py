"""Acceptance suite: one test per shipped guarantee, end to end.

Each test exercises a whole pipeline (parse -> interpret -> translate ->
kernel, or scenario -> chain -> invariant) at desk scale and prints one
pass/fail line under `pytest -v`. Everything is integer-exact; the only
tolerances are the pinned wall-clock budgets below, sized so they trip on
real regressions rather than machine noise.
"""

import random
import time

import pytest

from acorncore import kernel as k
from acorncore.chainsim import (
    CONTRACT_BASE,
    DEFAULT_CALL_FUEL,
    BlockHeader,
    Call,
    Deploy,
    add_block,
    cf_backed,
    cf_balance_consistent,
    cf_state_fields,
    crowdfunding_scenario,
    gen_trace,
    genesis,
    money_conserved,
    replay,
)
from acorncore.interp import VConstr, eval_expr
from acorncore.lang import App, Const, Constr, Lit, Ok, PInt, PNat, mk_app
from acorncore.programs import (
    constr_payload,
    contract,
    corpus_dir,
    load_module,
    map_entries,
    nat_val,
    native_foldr,
    native_sum_map,
    stdlib_env,
    val_to_int,
    val_to_nat,
)
from acorncore.soundness import corpus_files, gen_expr, run_corpus
from acorncore.translate import decl_to_kernel, expr_to_term, translate_env

from oracles import deep_foldr_int, foldr_concat_check, int_val, minimal_fuel

FUEL = 10_000
GEN_COUNT = 1_000
GEN_SEED = 7
GEN_SIZE = 12

N_TRACES = 100
MAX_BLOCKS = 20
CF = CONTRACT_BASE

DIFF_BUDGET_S = 60.0
FOLD_BUDGET_S = 10.0
CHAIN_BUDGET_S = 60.0

DONATE = VConstr("Msg", "Donate")
CLAIM = VConstr("Msg", "Claim")
GETFUNDS = VConstr("Msg", "GetFunds")

# wall-clock spent across the trace fixture and the tests that consume it
_CHAIN_CLOCK = {"spent": 0.0}


@pytest.fixture(scope="module")
def diff_run():
    t0 = time.perf_counter()
    report = run_corpus(
        corpus_dir(), fuel=FUEL, gen_count=GEN_COUNT, seed=GEN_SEED, size=GEN_SIZE
    )
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def chain_runs():
    t0 = time.perf_counter()
    clean, mutant = [], []
    for seed in range(N_TRACES):
        tr = gen_trace(seed, MAX_BLOCKS, crowdfunding_scenario())
        clean.append((tr, replay(tr)))
    for seed in range(N_TRACES):
        tr = gen_trace(
            seed, MAX_BLOCKS, crowdfunding_scenario(name="crowdfunding_overrecord")
        )
        mutant.append((tr, replay(tr)))
    _CHAIN_CLOCK["spent"] += time.perf_counter() - t0
    return clean, mutant


def _gen_rows(report):
    return [name for name, _ in report.rows if name.startswith("gen[")]


def _corpus_rows(report):
    return [name for name, _ in report.rows if not name.startswith("gen[")]


def test_a01_interpreter_and_kernel_agree_on_corpus_and_generated_programs(diff_run):
    report, elapsed = diff_run
    corpus_rows = _corpus_rows(report)
    assert len(corpus_rows) >= 30
    # the shipped corpus spans plain stdlib runs, map workouts and both contracts
    for module in ("stdlib.acorn", "mapops.acorn", "counter.acorn", "crowdfunding.acorn"):
        assert any(name.startswith(module + ":") for name in corpus_rows), module
    assert len(_gen_rows(report)) == GEN_COUNT
    assert report.disagree == 0
    assert report.inconclusive == 0
    assert report.agree == len(report.rows)
    assert elapsed < DIFF_BUDGET_S, f"differential run took {elapsed:.1f}s"
    print(f"agree on all {len(report.rows)} programs in {elapsed:.2f}s")


def test_a02_reports_and_kernel_runs_are_deterministic(diff_run):
    report, _ = diff_run
    again = run_corpus(
        corpus_dir(), fuel=FUEL, gen_count=GEN_COUNT, seed=GEN_SEED, size=GEN_SIZE
    )
    assert again.render().encode("utf-8") == report.render().encode("utf-8")

    # evaluating any corpus definition twice in the kernel gives the same term
    checked = 0
    for f in corpus_files(corpus_dir()):
        genv, defs = load_module(str(f))
        kenv = translate_env(genv)
        for _name, body in defs:
            t = expr_to_term(genv, body)
            r1 = k.cbv_eval(kenv, FUEL, t)
            r2 = k.cbv_eval(kenv, FUEL, t)
            assert r1 == r2
            if isinstance(r1, Ok):
                assert repr(r1.value) == repr(r2.value)
            checked += 1
    assert checked >= 30
    print(f"byte-identical report; {checked} kernel runs repeated exactly")


def test_a03_substitution_commutes_with_translation_on_harvested_pairs(diff_run):
    report, _ = diff_run
    assert report.subst_checked >= 200
    assert report.subst_failed == 0
    print(f"{report.subst_checked} (env, expr) pairs, zero mismatches")


def test_a04_interpreter_results_are_well_formed_and_read_back(diff_run):
    report, _ = diff_run
    assert report.readback_checked > 0
    assert report.readback_failed == 0
    # with zero disagreements, every non-error row produced an Ok value
    assert report.readback_checked == report.agree - report.agree_err
    print(f"{report.readback_checked} values pass wf_val and read back")


def test_a05_successful_runs_are_stable_under_extra_fuel():
    genv = stdlib_env()
    rng = random.Random(501)
    kept = attempts = 0
    while kept < 500:
        attempts += 1
        assert attempts <= 2_000, "generator kept producing non-Ok programs"
        e = gen_expr(rng, GEN_SIZE)
        mf = minimal_fuel(genv, e, cap=FUEL)
        if mf is None:
            continue
        # half the samples sit exactly on the completion boundary
        n = mf if kept % 2 == 0 else mf + rng.randint(1, 7)
        r1 = eval_expr(genv, n, (), e)
        if not isinstance(r1, Ok):
            continue
        r2 = eval_expr(genv, n + 1, (), e)
        assert isinstance(r2, Ok)
        assert r2.value == r1.value
        assert repr(r2.value) == repr(r1.value)
        kept += 1
    print(f"{kept} (program, fuel) samples stable under one extra unit")


def test_a06_map_declaration_translates_to_the_fixed_indices():
    ki = decl_to_kernel(stdlib_env().find_inductive("AcornMap"))
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
    print("MNil and MCons land on the exact de Bruijn indices")


def test_a07_fold_append_identity_and_native_agreement():
    genv = stdlib_env()
    rng = random.Random(701)
    t0 = time.perf_counter()
    for _ in range(500):
        f_name = rng.choice(("addInt", "maxInt"))
        pyf = (lambda a, b: a + b) if f_name == "addInt" else max
        init = rng.randint(-40, 40)
        l1 = [rng.randint(-50, 50) for _ in range(rng.randint(0, 30))]
        l2 = [rng.randint(-50, 50) for _ in range(rng.randint(0, 30))]
        assert foldr_concat_check(genv, f_name, init, l1, l2)
        assert deep_foldr_int(genv, f_name, init, l1) == native_foldr(pyf, init, l1)
        assert deep_foldr_int(genv, f_name, init, l2) == native_foldr(pyf, init, l2)
    elapsed = time.perf_counter() - t0
    assert elapsed < FOLD_BUDGET_S, f"fold identities took {elapsed:.1f}s"
    print(f"500 fold/append identities in {elapsed:.2f}s")


def _first_accepted_donation(trace):
    for i, step in enumerate(trace.steps):
        if step.accepted and any(
            isinstance(a, Call) and isinstance(a.msg, VConstr) and a.msg.ctor == "Donate"
            for a in step.actions
        ):
            return i
    return None


def test_a08_donation_ledger_matches_balance_and_overrecording_is_caught(chain_runs):
    t0 = time.perf_counter()
    clean, mutant = chain_runs
    states_seen = 0
    for tr, states in clean:
        for i, st in enumerate(states):
            assert cf_balance_consistent(tr, i, st) is None
            states_seen += 1
    assert states_seen >= N_TRACES

    caught = 0
    for tr, states in mutant:
        first = _first_accepted_donation(tr)
        bad = next(
            (i for i, st in enumerate(states) if cf_balance_consistent(tr, i, st)),
            None,
        )
        if first is None:
            assert bad is None
            continue
        # the doubled ledger entry must surface in the very block that wrote it
        assert bad == first
        caught += 1
    assert caught >= 90
    _CHAIN_CLOCK["spent"] += time.perf_counter() - t0
    print(f"{states_seen} clean states consistent; mutant caught in {caught} traces")


def test_a09_ledger_claims_are_backed_by_held_funds(chain_runs):
    t0 = time.perf_counter()
    clean, _mutant = chain_runs
    checked = 0
    for tr, states in clean:
        for i, st in enumerate(states):
            if tr.steps[i].accepted:
                assert cf_backed(tr, i, st) is None
                checked += 1
    assert checked >= N_TRACES
    _CHAIN_CLOCK["spent"] += time.perf_counter() - t0
    assert _CHAIN_CLOCK["spent"] < CHAIN_BUDGET_S, (
        f"chain suite at {_CHAIN_CLOCK['spent']:.1f}s"
    )
    print(f"{checked} accepted blocks leave the contract solvent")


def _cf_chain(goal, deadline):
    st = genesis({1: 200, 2: 200, 3: 200})
    setup = VConstr("Prod", "Pair", (nat_val(deadline), int_val(goal)))
    new, log = add_block(st, BlockHeader(1), [Deploy(1, "crowdfunding", setup, 0)])
    assert new is not None, log
    return new


def _accepted(st, slot, actions):
    new, log = add_block(st, BlockHeader(slot), actions)
    assert new is not None, log
    return new


def test_a10_refund_donation_record_and_post_collection_claim_scenarios():
    # unfunded past the deadline: the donor gets the exact amount back
    st = _cf_chain(goal=100, deadline=12)
    st = _accepted(st, 2, [Call(2, CF, DONATE, 75)])
    assert st.balances[2] == 125 and st.balances[CF] == 75
    st = _accepted(st, 13, [Call(2, CF, CLAIM, 0)])
    assert st.balances[2] == 200 and st.balances[CF] == 0
    balance, donations, *_ = cf_state_fields(st.contracts[CF].state)
    assert balance == 0
    assert map_entries(donations)[0] == (2, 0)

    # the ledger records exactly what a call paid, fresh and repeat
    st = _cf_chain(goal=60, deadline=12)
    st = _accepted(st, 2, [Call(2, CF, DONATE, 50)])
    balance, donations, *_ = cf_state_fields(st.contracts[CF].state)
    assert balance == 50 and map_entries(donations) == [(2, 50)]
    st = _accepted(st, 3, [Call(2, CF, DONATE, 25)])
    balance, donations, *_ = cf_state_fields(st.contracts[CF].state)
    assert balance == 75
    assert map_entries(donations)[0] == (2, 75)
    assert native_sum_map(donations) == 75

    # once the owner collected, claims bounce off the completion flag
    st = _cf_chain(goal=60, deadline=12)
    st = _accepted(st, 2, [Call(2, CF, DONATE, 40)])
    st = _accepted(st, 3, [Call(3, CF, DONATE, 30)])
    st = _accepted(st, 13, [Call(1, CF, GETFUNDS, 0)])
    assert st.balances[1] == 270 and st.balances[CF] == 0
    fields = cf_state_fields(st.contracts[CF].state)
    assert fields[0] == 0 and fields[4] is True
    new, reason = add_block(st, BlockHeader(14), [Call(2, CF, CLAIM, 0)])
    assert new is None
    assert "rejected the call" in reason
    print("refund, exact recording and post-collection rejection all hold")


def test_a11_counter_messages_shift_the_balance_in_both_evaluators():
    loaded = contract("counter")
    genv = loaded.env
    kenv = translate_env(genv)
    rng = random.Random(1101)
    for _ in range(30):
        n = rng.randint(-200, 200)
        i = rng.randint(-60, 60)
        for ctor, want in (("Inc", n + i), ("Dec", n - i)):
            e = mk_app(
                Const("count"),
                Constr("ReceiveContext", "MkReceiveContext"),
                mk_app(Constr("CState", "MkCState"), Lit(PInt(n)), Lit(PNat(9))),
                Constr("Caller", "MkCaller"),
                Lit(PNat(0)),
                App(Constr("Maybe", "Just"), App(Constr("Msg", ctor), Lit(PInt(i)))),
            )
            r = eval_expr(genv, FUEL, (), e)
            assert isinstance(r, Ok)
            new_state, _tx = constr_payload(r.value, "Pair")
            bal, owner = constr_payload(new_state, "MkCState")
            assert val_to_int(bal) == want
            assert val_to_nat(owner) == 9

            kr = k.cbv_eval(kenv, FUEL, expr_to_term(genv, e))
            assert isinstance(kr, Ok)
            head, spine = k.spine_view(kr.value)
            assert head == k.Construct("Prod", 0)
            k_state = spine[-2]
            k_head, k_spine = k.spine_view(k_state)
            assert k_head == k.Construct("CState", 0)
            assert k_spine[-2] == k.PrimLit(PInt(want))
            assert k_spine[-1] == k.PrimLit(PNat(9))
    print("60 counter calls agree across interpreter and kernel")


def test_a12_money_is_conserved_and_rejected_blocks_leave_no_trace(chain_runs):
    t0 = time.perf_counter()
    clean, mutant = chain_runs
    rejected_seen = 0
    for tr, states in clean + mutant:
        total0 = sum(tr.genesis.balances.values())
        for i, st in enumerate(states):
            assert sum(st.balances.values()) == total0
            assert money_conserved(tr, i, st) is None
            if not tr.steps[i].accepted:
                rejected_seen += 1
                # a rejected block repeats the previous state exactly...
                assert states[i] is states[i - 1]
                # ...and re-applying it still fails without touching its input
                prev = states[i - 1]
                before = repr(prev)
                new, log = add_block(prev, tr.steps[i].header, tr.steps[i].actions)
                assert new is None and log
                assert repr(prev) == before
    assert rejected_seen > 0, "traces should include failing blocks"
    _CHAIN_CLOCK["spent"] += time.perf_counter() - t0
    assert _CHAIN_CLOCK["spent"] < CHAIN_BUDGET_S, (
        f"chain suite at {_CHAIN_CLOCK['spent']:.1f}s"
    )
    print(f"supply constant everywhere; {rejected_seen} rejected blocks were no-ops")
