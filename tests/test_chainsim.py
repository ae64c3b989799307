"""Block execution semantics: atomicity, deployment, the shipped contracts'
behavior under deterministic scenarios, random traces, replay, and the
ledger invariants."""

from dataclasses import FrozenInstanceError, replace

import pytest

from acorncore import chainsim
from acorncore.chainsim import (
    BlockHeader,
    CONTRACT_BASE,
    Call,
    ChainError,
    ChainState,
    Deploy,
    DeployedContract,
    INVARIANTS,
    ReplayError,
    Scenario,
    Trace,
    TraceStep,
    Transfer,
    Violation,
    add_block,
    cf_backed,
    cf_balance_consistent,
    cf_state_fields,
    check_invariant,
    check_invariants,
    clone,
    consistent_balance,
    crowdfunding_scenario,
    final_state,
    gen_trace,
    genesis,
    load_scenario,
    money_conserved,
    replay,
    scenario_from_json,
)
from acorncore.interp import VConstr, VPrim, eval_expr
from acorncore.lang import Const, EvalError, PInt, PNat, Var, mk_app
from acorncore.programs import (
    CONTRACTS,
    constr_payload,
    contract,
    map_entries,
    nat_val,
)

from oracles import (
    bool_val,
    counter_scenario,
    funded_outcome,
    gen_trace_by_retries,
    int_val,
    to_acorn_map,
)

DONATE = VConstr("Msg", "Donate")
CLAIM = VConstr("Msg", "Claim")
GETFUNDS = VConstr("Msg", "GetFunds")

CF = CONTRACT_BASE  # first deployed address


def _accept(prev, slot, actions):
    new, reason = add_block(prev, BlockHeader(slot), actions)
    assert new is not None, reason
    return new


def _reject(prev, slot, actions):
    new, reason = add_block(prev, BlockHeader(slot), actions)
    assert new is None
    return reason


def _cf_deploy(goal=60, deadline=12, name="crowdfunding"):
    st = genesis({1: 200, 2: 200, 3: 200})
    setup = CONTRACTS[name].make_setup({"deadline": deadline, "goal": goal})
    return _accept(st, 1, [Deploy(1, name, setup, 0)])


# ---------------------------------------------------------------------------
# states and blocks

def test_clone_is_independent():
    st = genesis({1: 50})
    st.contracts[CF] = DeployedContract("counter", int_val(0))
    c = clone(st)
    c.balances[1] = 0
    c.contracts[CF] = DeployedContract("counter", int_val(9))
    c.slot = 99
    assert st.balances[1] == 50
    assert st.contracts[CF].state == int_val(0)
    assert st.slot == 0
    # records are shared between clones, so none may change in place
    with pytest.raises(FrozenInstanceError):
        c.contracts[CF].state = int_val(7)


def test_block_must_advance_the_slot():
    st = genesis({1: 10})
    for bad in (0, -1):
        new, reason = add_block(st, BlockHeader(bad), [])
        assert new is None
        assert "does not advance" in reason
    assert _accept(st, 1, []).slot == 1


def test_transfer_between_accounts():
    st = genesis({1: 100, 2: 0})
    new = _accept(st, 1, [Transfer(1, 2, 30)])
    assert new.balances == {1: 70, 2: 30}
    assert st.balances == {1: 100, 2: 0}


def test_blocks_apply_atomically():
    st = genesis({1: 100, 2: 0})
    assert "holds" in _reject(st, 1, [Transfer(1, 2, 30), Transfer(2, 1, 500)])
    # the successful first action must not leak
    assert st.balances == {1: 100, 2: 0}


def test_transfers_reject_negative_and_overdraft():
    st = genesis({1: 10})
    assert "negative amount" in _reject(st, 1, [Transfer(1, 2, -1)])
    assert "holds 10" in _reject(st, 1, [Transfer(1, 2, 11)])


# ---------------------------------------------------------------------------
# deployment

def test_deploy_allocates_addresses_and_moves_the_endowment():
    st = genesis({1: 100})
    setup = CONTRACTS["counter"].make_setup({"start": 7})
    new = _accept(st, 1, [Deploy(1, "counter", setup, 30), Deploy(1, "counter", setup, 0)])
    assert sorted(new.contracts) == [CF, CF + 1]
    assert new.next_address == CF + 2
    assert new.balances[1] == 70
    assert new.balances[CF] == 30
    state = new.contracts[CF].state
    assert constr_payload(state, "MkCState") == (int_val(7), nat_val(1))


def test_deploy_unknown_contract():
    st = genesis({1: 10})
    assert "unknown contract" in _reject(st, 1, [Deploy(1, "nope", int_val(0), 0)])


def test_deploy_with_a_bad_setup_shape_fails():
    st = genesis({1: 10})
    # crowdfunding expects a pair, not a bare integer
    reason = _reject(st, 1, [Deploy(1, "crowdfunding", int_val(3), 0)])
    assert "init of 'crowdfunding' failed" in reason


def test_deploy_needs_the_endowment_in_hand():
    st = genesis({1: 10})
    setup = CONTRACTS["counter"].make_setup({})
    assert "needs 50" in _reject(st, 1, [Deploy(1, "counter", setup, 50)])


# ---------------------------------------------------------------------------
# crowdfunding, deterministically

def test_fresh_donation_is_recorded():
    st = _cf_deploy()
    new = _accept(st, 2, [Call(2, CF, DONATE, 50)])
    balance, donations, owner, deadline, done, goal = cf_state_fields(
        new.contracts[CF].state
    )
    assert (balance, owner, deadline, done, goal) == (50, 1, 12, False, 60)
    assert map_entries(donations) == [(2, 50)]
    assert new.balances[2] == 150
    assert new.balances[CF] == 50


def test_repeat_donation_accumulates_in_the_ledger():
    st = _cf_deploy()
    st = _accept(st, 2, [Call(2, CF, DONATE, 50)])
    st = _accept(st, 3, [Call(2, CF, DONATE, 25)])
    balance, donations, *_ = cf_state_fields(st.contracts[CF].state)
    assert balance == 75
    # the fresh total shadows the stale entry
    assert map_entries(donations) == [(2, 75), (2, 50)]
    assert consistent_balance(st.contracts[CF].state)


def test_claim_before_the_deadline_is_rejected():
    st = _cf_deploy()
    st = _accept(st, 2, [Call(2, CF, DONATE, 50)])
    assert "rejected the call" in _reject(st, 3, [Call(2, CF, CLAIM, 0)])


def test_bare_payment_to_crowdfunding_is_rejected():
    st = _cf_deploy()
    assert _reject(st, 2, [Transfer(3, CF, 10)]) == f"receive at {CF} rejected the call"


def test_stranger_cannot_collect():
    st = _cf_deploy()
    st = _accept(st, 2, [Call(2, CF, DONATE, 80)])
    assert "rejected the call" in _reject(st, 13, [Call(2, CF, GETFUNDS, 0)])


def test_refund_after_the_deadline_when_unfunded():
    st = _cf_deploy(goal=100)
    st = _accept(st, 2, [Call(2, CF, DONATE, 75)])
    st = _accept(st, 13, [Call(2, CF, CLAIM, 0)])
    assert st.balances[2] == 200
    assert st.balances[CF] == 0
    balance, donations, *_ = cf_state_fields(st.contracts[CF].state)
    assert balance == 0
    assert map_entries(donations)[0] == (2, 0)
    assert consistent_balance(st.contracts[CF].state)


def test_claim_by_a_non_donor_is_rejected():
    st = _cf_deploy(goal=100)
    st = _accept(st, 2, [Call(2, CF, DONATE, 75)])
    assert "rejected the call" in _reject(st, 13, [Call(3, CF, CLAIM, 0)])


def test_owner_collects_when_funded_and_later_claims_stop():
    st = _cf_deploy(goal=60)
    st = _accept(st, 2, [Call(2, CF, DONATE, 50), Call(3, CF, DONATE, 25)])
    st = _accept(st, 13, [Call(1, CF, GETFUNDS, 0)])
    assert st.balances[1] == 275
    assert st.balances[CF] == 0
    fields = cf_state_fields(st.contracts[CF].state)
    assert fields[0] == 0 and fields[4] is True
    # the completion flag blocks refunds afterwards
    assert "rejected the call" in _reject(st, 14, [Call(2, CF, CLAIM, 0)])
    assert funded_outcome(_trace_of(st)) is True


def _trace_of(st):
    # wrap an already-built state as a single-step trace for the decoders
    t = Trace(clone(st))
    return t


def test_rejected_blocks_are_reproducible_and_leave_no_trace():
    st = _cf_deploy()
    before = repr(st)
    header = BlockHeader(3)
    actions = [Call(2, CF, DONATE, 20), Call(2, CF, CLAIM, 0)]
    out1 = add_block(st, header, actions)
    out2 = add_block(st, header, actions)
    assert out1[0] is None and out2[0] is None
    assert out1[1] == out2[1]
    assert repr(st) == before
    # accepted blocks reproduce bit-for-bit as well
    ok1, _ = add_block(st, header, actions[:1])
    ok2, _ = add_block(st, header, actions[:1])
    assert repr(ok1) == repr(ok2)


# ---------------------------------------------------------------------------
# other contracts

def test_counter_inc_and_dec_through_the_chain():
    st = genesis({1: 100, 2: 100})
    st = _accept(st, 1, [Deploy(1, "counter", CONTRACTS["counter"].make_setup({"start": 10}), 0)])
    st = _accept(st, 2, [Call(2, CF, VConstr("Msg", "Inc", (int_val(5),)), 0)])
    assert constr_payload(st.contracts[CF].state, "MkCState")[0] == int_val(15)
    st = _accept(st, 3, [Call(2, CF, VConstr("Msg", "Dec", (int_val(9),)), 0)])
    assert constr_payload(st.contracts[CF].state, "MkCState")[0] == int_val(6)


def test_counter_accepts_bare_payments():
    st = genesis({1: 100})
    st = _accept(st, 1, [Deploy(1, "counter", CONTRACTS["counter"].make_setup({}), 0)])
    st = _accept(st, 2, [Transfer(1, CF, 25)])
    assert st.balances[CF] == 25
    assert constr_payload(st.contracts[CF].state, "MkCState")[0] == int_val(0)


def test_forwarder_bounces_a_payment_to_its_target():
    st = genesis({1: 100, 2: 0})
    st = _accept(st, 1, [Deploy(1, "forwarder", nat_val(2), 0)])
    st = _accept(st, 2, [Transfer(1, CF, 40)])
    assert st.balances == {1: 60, 2: 40, CF: 0}


def test_forwarder_pair_hits_the_call_depth_limit():
    st = genesis({1: 100})
    st = _accept(
        st,
        1,
        [Deploy(1, "forwarder", nat_val(CF + 1), 0), Deploy(1, "forwarder", nat_val(CF), 0)],
    )
    before = repr(st)
    new, reason = add_block(st, BlockHeader(2), [Transfer(1, CF, 5)])
    assert new is None
    assert "call depth above 10" in reason
    assert repr(st) == before


# ---------------------------------------------------------------------------
# traces, replay, invariants

def test_gen_trace_is_deterministic():
    a = gen_trace(5, 15, crowdfunding_scenario())
    b = gen_trace(5, 15, crowdfunding_scenario())
    assert a == b
    assert len(a.steps) <= 15
    assert a.steps[0].accepted and isinstance(a.steps[0].actions[0], Deploy)


GEN_SCENARIOS = (
    crowdfunding_scenario(),
    crowdfunding_scenario(name="crowdfunding_overrecord"),
    load_scenario("counter"),
)


@pytest.mark.parametrize("scenario", GEN_SCENARIOS, ids=lambda s: s.deploys[0].contract)
def test_gen_trace_records_what_whole_blocks_and_retries_record(scenario):
    for seed in range(30):
        assert repr(gen_trace(seed, 20, scenario)) == repr(
            gen_trace_by_retries(seed, 20, scenario)
        )


def _is_retry(prev: TraceStep, step: TraceStep) -> bool:
    # the accepted survivors of a rejected block, under the same header
    return not prev.accepted and all(
        any(a is b for b in prev.actions) for a in step.actions
    )


def test_gen_trace_runs_each_generated_action_once(monkeypatch):
    counts = {"actions": 0, "blocks": 0}
    exec_action, add_block_ = chainsim._exec_action, chainsim.add_block

    def counting_exec(st, act, depth):
        if depth == 0:
            counts["actions"] += 1
        return exec_action(st, act, depth)

    def counting_add_block(*args, **kwargs):
        counts["blocks"] += 1
        return add_block_(*args, **kwargs)

    monkeypatch.setattr(chainsim, "_exec_action", counting_exec)
    monkeypatch.setattr(chainsim, "add_block", counting_add_block)
    for seed in range(40):
        counts.update(actions=0, blocks=0)
        t = gen_trace(seed, 20, crowdfunding_scenario())
        steps = t.steps
        generated = len(steps[0].actions) + sum(
            len(step.actions)
            for prev, step in zip(steps, steps[1:])
            if not _is_retry(prev, step)
        )
        assert counts == {"actions": generated, "blocks": 1}, seed


@pytest.mark.parametrize("blocks", [0, -3])
def test_gen_trace_needs_at_least_one_block(blocks):
    with pytest.raises(ValueError, match=f"at least 1 block, got {blocks}"):
        gen_trace(7, blocks, crowdfunding_scenario())


def test_gen_trace_needs_at_least_one_actor(monkeypatch):
    blocks = []
    monkeypatch.setattr(chainsim, "add_block", lambda *a: blocks.append(a))
    with pytest.raises(ValueError, match="at least 1 actor"):
        gen_trace(0, 5, Scenario((), load_scenario("counter").deploys))
    assert blocks == []


def test_gen_trace_slots_advance_across_accepted_steps():
    # rejected headers never enter the chain, so only the accepted ones
    # have to climb
    for seed in (8, 9):
        t = gen_trace(seed, 20, crowdfunding_scenario())
        accepted = [s.header.slot for s in t.steps if s.accepted]
        assert all(a < b for a, b in zip(accepted, accepted[1:]))


def test_replay_tracks_recorded_acceptance():
    t = gen_trace(12, 18, crowdfunding_scenario())
    states = replay(t)
    assert len(states) == len(t.steps)
    for i, step in enumerate(t.steps):
        if i and not step.accepted:
            # a rejected step repeats the previous state
            assert states[i].balances == states[i - 1].balances


def test_a_rejected_block_logs_one_reason_and_an_accepted_one_none():
    # a block is rejected by its first failing action, whose reason is the
    # one string returned beside no state
    rejected = 0
    for seed in range(20):
        t = gen_trace(seed, 50, crowdfunding_scenario())
        st = clone(t.genesis)
        for step in t.steps:
            new, reason = add_block(st, step.header, step.actions)
            if step.accepted:
                assert new is not None and reason is None, (seed, reason)
                st = new
            else:
                assert new is None and isinstance(reason, str) and reason, (seed, reason)
                rejected += 1
    assert rejected > 100, rejected


def test_replay_rejects_a_tampered_flag():
    t = gen_trace(12, 18, crowdfunding_scenario())
    flipped = [i for i, s in enumerate(t.steps) if not s.accepted]
    assert flipped, "seed 12 should produce at least one rejected block"
    i = flipped[0]
    t.steps[i] = TraceStep(t.steps[i].header, t.steps[i].actions, True)
    with pytest.raises(ReplayError, match=f"step {i} acceptance changed"):
        replay(t)


def test_invariants_hold_on_generated_traces():
    for seed in (1, 2, 3):
        t = gen_trace(seed, 12, crowdfunding_scenario())
        for name, inv in INVARIANTS.items():
            assert check_invariant(t, inv) is None, (seed, name)


def test_overrecording_mutant_is_caught_at_the_first_donation():
    for seed in (1, 2, 7):
        t = gen_trace(seed, 12, crowdfunding_scenario(name="crowdfunding_overrecord"))
        expected = next(
            i
            for i, s in enumerate(t.steps)
            if s.accepted
            and any(
                isinstance(a, Call) and isinstance(a.msg, VConstr) and a.msg.ctor == "Donate"
                for a in s.actions
            )
        )
        v = check_invariant(t, cf_balance_consistent)
        assert v is not None
        assert v.block_index == expected
        assert check_invariant(t, money_conserved) is None


def test_check_invariants_replays_once_for_all_invariants(monkeypatch):
    import acorncore.chainsim as chainsim

    def first_violation(t, states, inv):
        msgs = ((i, inv(t, i, st)) for i, st in enumerate(states))
        return next((Violation(i, m) for i, m in msgs if m is not None), None)

    invs = list(INVARIANTS.values())
    mutant = crowdfunding_scenario(name="crowdfunding_overrecord")
    traces = [gen_trace(seed, 12, mutant) for seed in (1, 2, 7)]
    expected = [[first_violation(t, replay(t), inv) for inv in invs] for t in traces]
    assert all(any(v is not None for v in vs) for vs in expected)
    replays = []
    monkeypatch.setattr(chainsim, "replay", lambda *a: replays.append(a) or replay(*a))
    for t, vs in zip(traces, expected):
        assert check_invariants(t, invs) == vs
        assert check_invariants(t, invs, states=replay(t)) == vs
    assert len(replays) == len(traces)


# ---------------------------------------------------------------------------
# kept entry-point calls

def _count_evaluations(monkeypatch) -> list:
    """The entry points `chainsim` evaluates from now on, in order."""
    evaluated = []
    evaluate = chainsim.eval_expr

    def counting(*args):
        evaluated.append(args[2])
        return evaluate(*args)

    monkeypatch.setattr(chainsim, "eval_expr", counting)
    return evaluated


def test_a_kept_call_result_equals_a_cold_evaluation(monkeypatch):
    call_entry = chainsim._call_entry
    evaluated = _count_evaluations(monkeypatch)
    kinds = {"calls": 0, "hits": 0}

    def checked(st, prog, entry, sender, amount, *args):
        before = len(evaluated)
        out = call_entry(st, prog, entry, sender, amount, *args)
        kinds["hits"] += len(evaluated) == before
        kinds["calls"] += 1
        # the entry point applied to its arguments, built here afresh
        chain = VConstr("SimpleChain", "MkSimpleChain", (VPrim(PNat(st.slot)),))
        ctx = VConstr(
            "SimpleContractCallContext",
            "MkSimpleContractCallContext",
            (VPrim(PNat(sender)), VPrim(PInt(amount))),
        )
        if entry == prog.receive_name:
            msg, state = args
            args = (VConstr("Maybe", "Nothing") if msg is None else VConstr("Maybe", "Just", (msg,)), state)
        rho = (chain, ctx, *args)
        env = contract(prog.name).env
        cold = eval_expr(env, st.fuel, rho, mk_app(Const(entry), *map(Var, range(len(rho)))))
        assert out == chainsim._decode(cold, entry == prog.init_name, st.fuel), (prog.name, entry, rho)
        return out

    monkeypatch.setattr(chainsim, "_call_entry", checked)
    for scenario in GEN_SCENARIOS:
        for seed in range(10):
            replay(gen_trace(seed, 20, scenario))
    # generation misses and replay hits, so both sides were compared
    assert 0 < kinds["hits"] < kinds["calls"]


def test_replay_after_gen_trace_evaluates_no_call(monkeypatch):
    evaluated = _count_evaluations(monkeypatch)
    runs = [(scenario, seed, 20) for scenario in GEN_SCENARIOS for seed in (0, 3, 7)]
    # a trace's memo keeps every call its generation made, however many
    runs += [(load_scenario("crowdfunding"), 0, blocks) for blocks in (100, 300)]
    for scenario, seed, blocks in runs:
        t = gen_trace(seed, blocks, scenario)
        assert evaluated, "generation meets calls it has not made before"
        evaluated.clear()
        replay(t)
        assert evaluated == [], (scenario.deploys[0].contract, seed, blocks)


def test_replay_after_gen_trace_builds_no_chain_or_context_value(monkeypatch):
    built = []
    for name in ("_chain_val", "_ctx_val", "_maybe_val"):
        make = getattr(chainsim, name)
        monkeypatch.setattr(chainsim, name, lambda *a, name=name, make=make: built.append(name) or make(*a))
    for blocks in (20, 100, 300):
        t = gen_trace(0, blocks, load_scenario("crowdfunding"))
        assert built, "generation builds the arguments of the calls it evaluates"
        built.clear()
        replay(t)
        # the memo is found by the call's plain inputs alone
        assert built == [], blocks


def test_replay_after_gen_trace_decodes_no_call(monkeypatch):
    decoded = []
    for name in ("constr_payload", "from_acorn_list"):
        decode = getattr(chainsim, name)
        monkeypatch.setattr(chainsim, name, lambda *a, name=name, f=decode: decoded.append(name) or f(*a))
    for blocks in (20, 100, 300):
        t = gen_trace(0, blocks, load_scenario("crowdfunding"))
        assert decoded, "generation decodes the calls it evaluates"
        decoded.clear()
        replay(t)
        # the memo keeps each call's outcome, not the value it decodes from
        assert decoded == [], blocks


def test_the_call_key_covers_every_input(monkeypatch):
    evaluated = _count_evaluations(monkeypatch)
    st = _cf_deploy()
    assert len(evaluated) == 1
    donated = _accept(st, 2, [Call(2, CF, DONATE, 10)])
    evaluated.clear()
    # each differs from the first in one input only: slot, sender, amount,
    # message (a bare payment, Donate, Claim) or state
    calls = [
        (st, 3, Call(2, CF, DONATE, 10)),
        (st, 4, Call(2, CF, DONATE, 10)),
        (st, 3, Call(3, CF, DONATE, 10)),
        (st, 3, Call(2, CF, DONATE, 11)),
        (st, 3, Transfer(2, CF, 10)),
        (st, 3, Call(2, CF, CLAIM, 10)),
        (donated, 3, Call(2, CF, DONATE, 10)),
    ]
    for i, (prev, slot, act) in enumerate(calls):
        add_block(prev, BlockHeader(slot), [act])
        assert len(evaluated) == i + 1, act
    for prev, slot, act in calls:
        add_block(prev, BlockHeader(slot), [act])
    assert len(evaluated) == len(calls)
    # init: another setup is another call
    evaluated.clear()
    for _ in range(2):
        for goal in (60, 61):
            setup = CONTRACTS["crowdfunding"].make_setup({"deadline": 12, "goal": goal})
            add_block(st, BlockHeader(2), [Deploy(1, "crowdfunding", setup, 0)])
    assert len(evaluated) == 2


def test_a_separate_genesis_evaluates_its_calls_again(monkeypatch):
    evaluated = _count_evaluations(monkeypatch)
    deploy = [Deploy(1, "counter", int_val(0), 0)]
    first = genesis({1: 0})
    assert add_block(first, BlockHeader(1), deploy)[0] is not None
    assert add_block(first, BlockHeader(1), deploy)[0] is not None
    assert len(evaluated) == 1
    second = genesis({1: 0})
    assert add_block(second, BlockHeader(1), deploy)[0] is not None
    assert len(evaluated) == 2
    assert len(first.calls) == len(second.calls) == 1
    assert first.calls is not second.calls


def test_programs_that_share_entry_names_share_no_results():
    # both crowdfunding programs get the same donation with the same
    # arguments; only the over-recording one writes it down twice
    setup = CONTRACTS["crowdfunding"].make_setup({"deadline": 12, "goal": 60})
    st = genesis({2: 100})
    st, log = add_block(
        st, BlockHeader(1), [Deploy(2, n, setup, 0) for n in ("crowdfunding", "crowdfunding_overrecord")]
    )
    assert st is not None, log
    st, log = add_block(st, BlockHeader(2), [Call(2, CF, DONATE, 10), Call(2, CF + 1, DONATE, 10)])
    assert st is not None, log
    assert consistent_balance(st.contracts[CF].state)
    assert not consistent_balance(st.contracts[CF + 1].state)
    assert {key[0] for key in st.calls} == {"crowdfunding", "crowdfunding_overrecord"}


def test_errors_are_kept_and_logged_as_evaluated(monkeypatch):
    # 5 units of fuel cannot run init; the shortfall is kept like a value
    st = genesis({1: 0}, fuel=5)
    deploy = [Deploy(1, "counter", int_val(0), 0)]
    new, reason = add_block(st, BlockHeader(1), deploy)
    assert new is None and reason == "init of 'counter' failed: out of fuel (5)"
    assert len(st.calls) == 1
    # a kept failure is not evaluated again, and reads as it did
    monkeypatch.setattr(chainsim, "eval_expr", lambda *a: EvalError("evaluated again"))
    assert add_block(st, BlockHeader(1), deploy) == (None, reason)
    # another fuel on the same memo is another call
    new, reason = add_block(replace(st, fuel=6), BlockHeader(1), deploy)
    assert reason == "init of 'counter' failed: evaluated again"
    assert len(st.calls) == 2


def test_a_call_on_a_ledger_too_deep_for_structural_hashing_is_kept(monkeypatch):
    # a ledger of 3,000 donations nests deeper than a structural hash could
    # recurse; tree nodes hash by identity, so its call is kept like any other
    ledger = _cf_state(3000, [(1 + i % 3, 1) for i in range(3000)])
    st = ChainState(5, {2: 10, CF: 3000}, {CF: DeployedContract("crowdfunding", ledger)}, CF + 1, {})
    evaluated = _count_evaluations(monkeypatch)
    block = [Call(2, CF, VConstr("Msg", "Donate"), 7)]
    new, reason = add_block(st, BlockHeader(6), block)
    assert new is not None, reason
    assert cf_state_fields(new.contracts[CF].state)[0] == 3007
    assert len(st.calls) == 1 and len(evaluated) == 1
    again, reason_again = add_block(st, BlockHeader(6), block)
    assert len(evaluated) == 1
    assert again.contracts[CF].state is new.contracts[CF].state and reason_again is None


def _cf_state(balance, pairs, done=False, goal=60):
    return VConstr(
        "State",
        "MkState",
        (
            int_val(balance),
            to_acorn_map(pairs),
            nat_val(1),
            nat_val(12),
            bool_val(done),
            int_val(goal),
        ),
    )


def test_invariant_messages_name_the_drift():
    st = ChainState(5, {1: 10, CF: 30}, {CF: DeployedContract("crowdfunding", _cf_state(50, [(2, 50)]))}, CF + 1, {})
    t = Trace(genesis({1: 40}))
    msg = cf_backed(t, 0, st)
    assert msg == f"contract {CF} holds 30, ledger claims 50"
    st.contracts[CF] = DeployedContract("crowdfunding", _cf_state(50, [(2, 40)]))
    msg = cf_balance_consistent(t, 0, st)
    assert msg == f"contract {CF}: recorded donations sum to 40, balance says 50"


def test_money_conservation_message():
    t = Trace(genesis({1: 40}))
    st = ChainState(1, {1: 41}, {}, CF, {})
    assert money_conserved(t, 0, st) == "total supply drifted from 40 to 41"
    st = ChainState(1, {1: 40}, {}, CF, {})
    assert money_conserved(t, 0, st) is None


def test_completed_instances_are_historical():
    # after collection the ledger no longer has to add up
    assert consistent_balance(_cf_state(0, [(2, 50)], done=True))
    assert not consistent_balance(_cf_state(10, [(2, 50)]))
    assert consistent_balance(_cf_state(50, [(2, 50), (2, 10)]))


# ---------------------------------------------------------------------------
# scenarios

def test_scenario_constructors():
    s = crowdfunding_scenario(goal=80, deadline=9)
    setup = CONTRACTS["crowdfunding"].make_setup({"deadline": 9, "goal": 80})
    assert s.deploys == (Deploy(1, "crowdfunding", setup, 0),)
    assert s.actors == ((1, 200), (2, 200), (3, 200))
    assert counter_scenario(4).deploys[0].setup == int_val(4)


def test_scenario_json_round_trip():
    data = {
        "actors": [[1, 200], [2, 50]],
        "deploys": [{"contract": "counter", "deployer": 1, "setup": {"start": 3}}],
    }
    s = scenario_from_json(data)
    assert s == Scenario(((1, 200), (2, 50)), (Deploy(1, "counter", int_val(3), 0),))


def test_load_scenario_resolves_packaged_names(tmp_path):
    s = load_scenario("crowdfunding")
    assert s.deploys[0].contract == "crowdfunding"
    assert s.deploys[0].setup == CONTRACTS["crowdfunding"].make_setup({"deadline": 12, "goal": 60})
    assert load_scenario("counter").deploys[0].contract == "counter"
    p = tmp_path / "own.json"
    p.write_text('{"actors": [[1, 9]], "deploys": []}')
    assert load_scenario(str(p)) == Scenario(((1, 9),), ())
    with pytest.raises(FileNotFoundError, match="no scenario at"):
        load_scenario("missing")


def test_each_setup_value_is_built_once(monkeypatch):
    prog = CONTRACTS["crowdfunding"]
    calls = []

    def counting(args):
        calls.append(args)
        return prog.make_setup(args)

    monkeypatch.setitem(CONTRACTS, "crowdfunding", replace(prog, make_setup=counting))
    s = load_scenario("crowdfunding")
    gen_trace(0, 5, s)
    assert len(calls) == len(s.deploys) == 1


def test_final_state_and_funded_outcome_on_a_counter_trace():
    t = gen_trace(4, 10, counter_scenario())
    st = final_state(t)
    assert st.slot == max(s.header.slot for s in t.steps if s.accepted)
    assert funded_outcome(t) is False


def test_deployment_failure_raises():
    bad = Scenario(((1, 0),), (Deploy(1, "counter", int_val(0), 50),))
    # the message ends with the deployment block's one reason
    with pytest.raises(ChainError, match=r"^deployment block failed: account 1 holds 0, needs 50$"):
        gen_trace(1, 5, bad)
