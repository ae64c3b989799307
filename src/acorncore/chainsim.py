"""Block-structured execution harness for the shipped contracts.

A chain state tracks a slot number, account balances, and deployed contract
instances. Blocks apply atomically: any failing action rolls the whole block
back, leaving the previous state untouched. Actions emitted by a contract run
depth-first, before the remaining queued actions, with a bounded call depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from .interp import Ok, VConstr, VPrim, Val, eval_expr
from .lang import EvalError, EvalResult, PInt, PNat
from .parser import read_source
from .programs import (
    CONTRACTS,
    ContractProgram,
    ConversionError,
    constr_payload,
    contract,
    from_acorn_list,
    native_sum_map,
    scenario_dir,
    val_to_bool,
    val_to_int,
    val_to_nat,
)
from .serialize import JsonError, _index, _int, _list, _need, _str, parse_json

CONTRACT_BASE = 1000
DEFAULT_CALL_FUEL = 100_000
MAX_CALL_DEPTH = 10


class ChainError(Exception):
    pass


class Rejected(Exception):
    """An action failed, which rejects its block; `args[0]` says why."""


@dataclass(frozen=True)
class BlockHeader:
    """A block's header: the slot the block is added at."""

    slot: int


@dataclass(frozen=True)
class Transfer:
    """An action that moves `amount` from `sender` to the account `target`."""

    sender: int
    target: int
    amount: int


@dataclass(frozen=True)
class Deploy:
    """A deploy action: the contract's name, its setup value and its funds."""

    sender: int
    contract: str
    setup: Val
    amount: int


@dataclass(frozen=True)
class Call:
    """A call action: `msg` is None for a call without a message."""

    sender: int
    target: int
    msg: Optional[Val]
    amount: int


Action = Union[Transfer, Deploy, Call]


@dataclass(frozen=True)
class DeployedContract:
    """A contract on the chain: the program's name and its current state."""

    program: str
    state: Val


# a call's decoded outcome: (new state, emitted transfers), or why it failed
Outcome = Union[tuple[Val, tuple[tuple[int, int], ...]], str]


@dataclass
class ChainState:
    """`calls` is the chain's call memo, keyed on each call's plain inputs
    and holding each call's decoded outcome (see `_call_entry`): every
    clone of a state shares it, and each `genesis` makes a new one. `fuel`
    is the fuel every contract call on this chain is evaluated at."""

    slot: int
    balances: dict[int, int]
    contracts: dict[int, DeployedContract]
    next_address: int
    calls: dict[tuple, Outcome] = field(repr=False, compare=False)
    fuel: int = DEFAULT_CALL_FUEL


def genesis(balances: dict[int, int], fuel: int = DEFAULT_CALL_FUEL) -> ChainState:
    return ChainState(0, dict(balances), {}, CONTRACT_BASE, {}, fuel)


def clone(st: ChainState) -> ChainState:
    # contract records are immutable, so the two dicts are all there is to copy
    return ChainState(
        st.slot, dict(st.balances), dict(st.contracts), st.next_address, st.calls, st.fuel
    )


def _chain_val(st: ChainState) -> Val:
    return VConstr("SimpleChain", "MkSimpleChain", (VPrim(PNat(st.slot)),))


def _ctx_val(sender: int, amount: int) -> Val:
    return VConstr(
        "SimpleContractCallContext",
        "MkSimpleContractCallContext",
        (VPrim(PNat(sender)), VPrim(PInt(amount))),
    )


def _maybe_val(v: Optional[Val]) -> Val:
    if v is None:
        return VConstr("Maybe", "Nothing")
    return VConstr("Maybe", "Just", (v,))


def _move(st: ChainState, sender: int, target: int, amount: int) -> None:
    if amount < 0:
        raise Rejected(f"negative amount {amount} from {sender}")
    if st.balances.get(sender, 0) < amount:
        raise Rejected(f"account {sender} holds {st.balances.get(sender, 0)}, needs {amount}")
    st.balances[sender] = st.balances.get(sender, 0) - amount
    st.balances[target] = st.balances.get(target, 0) + amount


def _decode(result: EvalResult, init: bool, fuel: int) -> Outcome:
    """A call's outcome: its new state and emitted (amount, recipient)
    transfers, or why it failed, worded as `acorn run` words it at `fuel`.
    init returns Maybe state and emits nothing; receive returns
    Maybe (Prod state (List SimpleActionBody))."""
    if isinstance(result, EvalError):
        return f"failed: {result.reason}"
    if not isinstance(result, Ok):
        return f"failed: out of fuel ({fuel})"
    out = result.value
    try:
        if not isinstance(out, VConstr) or out.ind != "Maybe":
            kind = "init" if init else "receive"
            raise ConversionError(f"{kind} returned a non-option value: {out!r}")
        if out.ctor == "Nothing":
            return "rejected the setup" if init else "rejected the call"
        (new_state,) = constr_payload(out, "Just")
        if init:
            return new_state, ()
        new_state, actions = constr_payload(new_state, "Pair")
        emitted = []
        for act in from_acorn_list(actions):
            amt, recipient = constr_payload(act, "Transfer")
            emitted.append((val_to_int(amt), val_to_nat(recipient)))
    except ConversionError as err:
        return f"returned a bad shape: {err}"
    return new_state, tuple(emitted)


def _call_entry(
    st: ChainState, prog: ContractProgram, entry: str, sender: int, amount: int, *args
) -> Outcome:
    """The outcome of the entry point `entry` of `prog`, called by `sender`
    with `amount` at the slot of `st` and evaluated at its fuel; `args` are
    init's setup, or receive's message (None for a bare payment) and state.

    The chain value depends only on the slot and the context only on sender
    and amount, so a call is a pure function of these plain inputs. Its
    decoded outcome, a failure as much as a success, is kept in `st.calls`
    under them and the program's name; the program is loaded and the Acorn
    arguments are built only on a miss. The state and message are tree
    nodes, which hash and compare by identity, so a key costs the same
    however deep the state nests."""
    key = (prog.name, entry, st.fuel, st.slot, sender, amount, *args)
    out = st.calls.get(key)
    if out is None:
        loaded = contract(prog.name)
        init = entry == prog.init_name
        if not init:
            args = (_maybe_val(args[0]), args[1])
        rho = (_chain_val(st), _ctx_val(sender, amount), *args)
        out = _decode(eval_expr(loaded.env, st.fuel, rho, loaded.entries[entry]), init, st.fuel)
        st.calls[key] = out
    return out


def _run_entry(
    st: ChainState, prog: ContractProgram, address: int, entry: str, sender: int, amount: int,
    args: tuple, depth: int,
) -> None:
    """Pay `amount` from `sender` to `address`, call `entry` of `prog` there
    on `args` (as `_call_entry` takes them), commit the state it returns and
    run the transfers it emits depth-first. Mutates `st` and raises
    `Rejected` at the first failure; the caller checks `depth` against
    MAX_CALL_DEPTH and provides rollback."""
    _move(st, sender, address, amount)
    out = _call_entry(st, prog, entry, sender, amount, *args)
    if isinstance(out, str):
        who = f"init of '{prog.name}'" if entry == prog.init_name else f"receive at {address}"
        raise Rejected(f"{who} {out}")
    new_state, emitted = out
    st.contracts[address] = DeployedContract(prog.name, new_state)
    for out_amount, recipient in emitted:
        _exec_action(st, Transfer(address, recipient, out_amount), depth + 1)


def _exec_action(st: ChainState, act: Action, depth: int) -> None:
    if depth > MAX_CALL_DEPTH:
        raise Rejected(f"call depth above {MAX_CALL_DEPTH}")
    match act:
        case Transfer(sender, target, amount):
            if target not in st.contracts:
                return _move(st, sender, target, amount)
            # paying a contract delivers an empty message
            msg = None
        case Call(sender, target, msg, amount):
            if target not in st.contracts:
                raise Rejected(f"no contract deployed at {target}")
        case Deploy(sender, name, setup, amount):
            prog = CONTRACTS.get(name)
            if prog is None:
                raise Rejected(f"unknown contract '{name}'")
            address = st.next_address
            st.next_address += 1
            # the endowment lands before init runs
            return _run_entry(st, prog, address, prog.init_name, sender, amount, (setup,), depth)
        case _:
            raise TypeError(f"not an action: {act!r}")
    con = st.contracts[target]
    prog = CONTRACTS[con.program]
    _run_entry(st, prog, target, prog.receive_name, sender, amount, (msg, con.state), depth)


def add_block(
    prev: ChainState, header: BlockHeader, actions: Sequence[Action]
) -> Union[tuple[ChainState, None], tuple[None, str]]:
    """Apply a block. Returns (new state, None) on success and (None, reason)
    when the header or an action fails, with the `Rejected` reason of the
    first failure; `prev` is never modified."""
    if header.slot <= prev.slot:
        return None, f"slot {header.slot} does not advance past {prev.slot}"
    st = clone(prev)
    st.slot = header.slot
    try:
        for act in actions:
            _exec_action(st, act, 0)
    except Rejected as err:
        return None, err.args[0]
    return st, None


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class TraceStep:
    """One block of a trace: header, actions and whether it was accepted."""

    header: BlockHeader
    actions: tuple[Action, ...]
    accepted: bool


@dataclass
class Trace:
    """A genesis state and the blocks proposed after it, in order."""

    genesis: ChainState
    steps: list[TraceStep] = field(default_factory=list)


class ReplayError(Exception):
    pass


def replay(trace: Trace) -> list[ChainState]:
    """Re-run a trace at the fuel of its genesis, returning the state after
    each step (rejected steps repeat the previous state). A mismatch with the
    recorded acceptance flags is an error."""
    st = clone(trace.genesis)
    states: list[ChainState] = []
    for i, step in enumerate(trace.steps):
        new, _ = add_block(st, step.header, step.actions)
        if (new is not None) != step.accepted:
            raise ReplayError(f"step {i} acceptance changed on replay")
        if new is not None:
            st = new
        states.append(st)
    return states


@dataclass(frozen=True)
class Violation:
    """An invariant that failed after the block at `block_index`."""

    block_index: int
    message: str


Invariant = Callable[[Trace, int, ChainState], Optional[str]]


def check_invariants(
    trace: Trace, invs: Sequence[Invariant], states: Optional[list[ChainState]] = None
) -> list[Optional[Violation]]:
    """For each invariant, the first step (by index) whose post-state
    violates it, or None. The trace is replayed once for all of them, or not
    at all when `states` already holds its replay."""
    if states is None:
        states = replay(trace)
    found: list[Optional[Violation]] = [None] * len(invs)
    for i, st in enumerate(states):
        for j, inv in enumerate(invs):
            if found[j] is None:
                msg = inv(trace, i, st)
                if msg is not None:
                    found[j] = Violation(i, msg)
    return found


def check_invariant(trace: Trace, inv: Invariant) -> Optional[Violation]:
    """First step (by index) whose post-state violates the invariant."""
    return check_invariants(trace, (inv,))[0]


# ---------------------------------------------------------------------------
# crowdfunding state decoding and invariants

def cf_state_fields(state: Val) -> tuple[int, Val, int, int, bool, int]:
    """(balance, donations, owner, deadline, done, goal) of a ledger state."""
    payload = constr_payload(state, "MkState")
    if len(payload) != 6:
        raise ConversionError("ledger state must carry six fields")
    balance, donations, owner, deadline, done, goal = payload
    return (
        val_to_int(balance),
        donations,
        val_to_nat(owner),
        val_to_nat(deadline),
        val_to_bool(done),
        val_to_int(goal),
    )


def consistent_balance(state: Val) -> bool:
    """Once collection happened the ledger is historical; before that the
    recorded donations must add up to the held balance."""
    balance, donations, _, _, done, _ = cf_state_fields(state)
    if done:
        return True
    return native_sum_map(donations) == balance


def _cf_contracts(st: ChainState):
    for addr, con in st.contracts.items():
        if CONTRACTS[con.program].init_name == "cf_init":
            yield addr, con


def cf_balance_consistent(trace: Trace, index: int, st: ChainState) -> Optional[str]:
    del trace, index
    for addr, con in _cf_contracts(st):
        if not consistent_balance(con.state):
            balance, donations, *_ = cf_state_fields(con.state)
            return (
                f"contract {addr}: recorded donations sum to"
                f" {native_sum_map(donations)}, balance says {balance}"
            )
    return None


def cf_backed(trace: Trace, index: int, st: ChainState) -> Optional[str]:
    del trace, index
    for addr, con in _cf_contracts(st):
        internal = cf_state_fields(con.state)[0]
        held = st.balances.get(addr, 0)
        if held < internal:
            return f"contract {addr} holds {held}, ledger claims {internal}"
    return None


def money_conserved(trace: Trace, index: int, st: ChainState) -> Optional[str]:
    del index
    total0 = sum(trace.genesis.balances.values())
    total = sum(st.balances.values())
    if total != total0:
        return f"total supply drifted from {total0} to {total}"
    return None


INVARIANTS: dict[str, Invariant] = {
    "cf_balance_consistent": cf_balance_consistent,
    "cf_backed": cf_backed,
    "money_conserved": money_conserved,
}


# ---------------------------------------------------------------------------
# trace generation

@dataclass(frozen=True)
class Scenario:
    """The actors and their starting funds, and the block of `Deploy`
    actions that deploys its contracts at genesis."""

    actors: tuple[tuple[int, int], ...]  # (address, starting funds)
    deploys: tuple[Deploy, ...]


def crowdfunding_scenario(
    goal: int = 60, deadline: int = 12, name: str = "crowdfunding"
) -> Scenario:
    setup = CONTRACTS[name].make_setup({"deadline": deadline, "goal": goal})
    return Scenario(((1, 200), (2, 200), (3, 200)), (Deploy(1, name, setup, 0),))


def scenario_from_json(data: Any) -> Scenario:
    """Decode a scenario, raising JsonError on anything malformed. Each
    deployment's setup value is built here, once, and kept in its `Deploy`,
    so that a missing or out-of-range setup field is reported before any
    block runs."""
    actors = []
    for a in _list(_need(data, "actors"), "scenario actors"):
        if not isinstance(a, list) or len(a) != 2:
            raise JsonError("each actor must be an [address, funds] pair")
        addr = _index(a[0], "actor address")
        if any(addr == b for b, _ in actors):
            raise JsonError(f"actor {addr} is listed twice")
        actors.append((addr, _index(a[1], "actor funds")))
    if not actors:
        # every generated action draws its sender from the actors
        raise JsonError("scenario actors must not be empty")
    deploys = []
    for d in _list(_need(data, "deploys"), "scenario deploys"):
        name = _str(_need(d, "contract"), "contract name")
        if name not in CONTRACTS:
            raise JsonError(f"unknown contract '{name}'")
        setup = d.get("setup", {})
        if not isinstance(setup, dict):
            raise JsonError(f"setup of '{name}' must be an object")
        for key, value in setup.items():
            _int(value, f"setup field '{key}' of '{name}'")
        try:
            setup_val = CONTRACTS[name].make_setup(setup)
        except KeyError as err:
            raise JsonError(f"setup of '{name}' lacks field {err}") from None
        except (TypeError, ValueError) as err:
            raise JsonError(f"setup of '{name}' is invalid: {err}") from None
        deployer = _index(_need(d, "deployer"), "deployer")
        amount = _index(d.get("amount", 0), "deploy amount")
        deploys.append(Deploy(deployer, name, setup_val, amount))
    return Scenario(tuple(actors), tuple(deploys))


def load_scenario(name_or_path: str) -> Scenario:
    """Scenario from a JSON file; bare names resolve to the packaged set."""
    # a directory of the same name does not shadow a packaged scenario
    p = Path(name_or_path)
    if not p.is_file() and "/" not in name_or_path:
        cand = scenario_dir() / f"{name_or_path}.json"
        if cand.is_file():
            p = cand
    if not p.is_file():
        raise FileNotFoundError(f"no scenario at '{name_or_path}'")
    return scenario_from_json(parse_json(read_source(p), f"scenario '{p}'"))


def _rand_action(rng: random.Random, st: ChainState, actors: list[int]) -> Action:
    addrs = sorted(st.contracts)
    roll = rng.random()
    sender = rng.choice(actors)
    if addrs and roll < 0.75:
        target = rng.choice(addrs)
        prog = CONTRACTS[st.contracts[target].program]
        msg, amount = prog.gen_call(rng, st.slot)
        if msg is None:
            return Transfer(sender, target, amount)
        return Call(sender, target, msg, amount)
    if roll < 0.9:
        target = rng.choice(actors)
        # occasionally larger than the balance, which rejects the block
        return Transfer(sender, target, rng.randint(0, 250))
    if addrs:
        return Transfer(sender, rng.choice(addrs), rng.randint(0, 5))
    return Transfer(sender, rng.choice(actors), rng.randint(0, 5))


def gen_trace(
    seed: int, max_blocks: int, scenario: Scenario, fuel: int = DEFAULT_CALL_FUEL
) -> Trace:
    """A reproducible random trace of `max_blocks` blocks (at least 1, as
    are the actors): one deployment block, then random blocks, on a chain
    whose contract calls run at `fuel`.

    Each random block is run once, action by action, each action on a clone
    of the state after the actions kept before it. An action that fails is
    dropped and its clone discarded. When every action is kept the block is
    accepted. Otherwise it stays in the trace as rejected, followed (if
    there is room) by an accepted block of the kept actions under the same
    header, so the chain keeps moving."""
    if max_blocks < 1:
        raise ValueError(f"a trace needs at least 1 block, got {max_blocks}")
    if not scenario.actors:
        # every generated action draws its sender from the actors
        raise ValueError("a trace needs at least 1 actor")
    rng = random.Random(seed)
    st = genesis(dict(scenario.actors), fuel)
    trace = Trace(clone(st))
    header = BlockHeader(st.slot + 1)
    new, reason = add_block(st, header, scenario.deploys)
    if new is None:
        raise ChainError(f"deployment block failed: {reason}")
    trace.steps.append(TraceStep(header, scenario.deploys, True))
    st = new
    actors = [a for a, _ in scenario.actors]
    while len(trace.steps) < max_blocks:
        header = BlockHeader(st.slot + rng.choice((1, 1, 2, 3)))
        actions = [_rand_action(rng, st, actors) for _ in range(rng.randint(1, 3))]
        cur = clone(st)
        cur.slot = header.slot
        kept: list[Action] = []
        for act in actions:
            try:
                _exec_action(trial := clone(cur), act, 0)
            except Rejected:
                continue
            kept.append(act)
            cur = trial
        if len(kept) == len(actions):
            trace.steps.append(TraceStep(header, tuple(actions), True))
            st = cur
            continue
        trace.steps.append(TraceStep(header, tuple(actions), False))
        if kept and len(trace.steps) < max_blocks:
            trace.steps.append(TraceStep(header, tuple(kept), True))
            st = cur
    return trace


def final_state(trace: Trace) -> ChainState:
    states = replay(trace)
    return states[-1] if states else clone(trace.genesis)
