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
from .lang import EvalResult, PInt, PNat
from .programs import (
    CONTRACTS,
    ConversionError,
    LoadedContract,
    constr_payload,
    contract,
    from_acorn_list,
    native_sum_map,
    val_to_bool,
    val_to_int,
    val_to_nat,
)
from .serialize import JsonError, _index, _list, _need, _str, parse_json

CONTRACT_BASE = 1000
DEFAULT_CALL_FUEL = 100_000
MAX_CALL_DEPTH = 10
# Entry-point call results kept per loaded contract. A 50-block crowdfunding
# trace makes at most 72 distinct calls, so the replays of a trace find every
# call its generation made. A cap of 4,096 ran the `chain` benchmark 3 %
# faster at 1.6 times its peak memory.
CALL_MEMO_CAP = 128


class ChainError(Exception):
    pass


@dataclass(frozen=True)
class BlockHeader:
    slot: int


@dataclass(frozen=True)
class Transfer:
    sender: int
    target: int
    amount: int


@dataclass(frozen=True)
class Deploy:
    sender: int
    contract: str
    setup: Val
    amount: int


@dataclass(frozen=True)
class Call:
    sender: int
    target: int
    msg: Optional[Val]
    amount: int


Action = Union[Transfer, Deploy, Call]


@dataclass(frozen=True)
class DeployedContract:
    program: str
    state: Val


@dataclass
class ChainState:
    slot: int
    balances: dict[int, int]
    contracts: dict[int, DeployedContract]
    next_address: int


def genesis(balances: dict[int, int]) -> ChainState:
    return ChainState(0, dict(balances), {}, CONTRACT_BASE)


def clone(st: ChainState) -> ChainState:
    # contract records are immutable, so the two dicts are all there is to copy
    return ChainState(st.slot, dict(st.balances), dict(st.contracts), st.next_address)


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


def _move(st: ChainState, sender: int, target: int, amount: int, log: list[str]) -> bool:
    if amount < 0:
        log.append(f"negative amount {amount} from {sender}")
        return False
    if st.balances.get(sender, 0) < amount:
        log.append(f"account {sender} holds {st.balances.get(sender, 0)}, needs {amount}")
        return False
    st.balances[sender] = st.balances.get(sender, 0) - amount
    st.balances[target] = st.balances.get(target, 0) + amount
    return True


def _decode_receive(result: Val) -> Optional[tuple[Val, list[tuple[int, int]]]]:
    """Unpack Maybe (Prod state (List SimpleActionBody)); None for a refusal.
    Emitted transfers decode to (amount, recipient) pairs."""
    if not isinstance(result, VConstr) or result.ind != "Maybe":
        raise ConversionError(f"receive returned a non-option value: {result!r}")
    if result.ctor == "Nothing":
        return None
    (pair,) = constr_payload(result, "Just")
    new_state, actions = constr_payload(pair, "Pair")
    emitted = []
    for act in from_acorn_list(actions):
        amt, recipient = constr_payload(act, "Transfer")
        emitted.append((val_to_int(amt), val_to_nat(recipient)))
    return new_state, emitted


def _call_entry(
    loaded: LoadedContract, entry: str, fuel: int, rho: tuple[Val, ...]
) -> EvalResult:
    """The entry point `entry` applied to `rho`, evaluated at `fuel`. A call
    is a pure function of these and the contract's program, so its result,
    an error as much as a value, is kept in `loaded.calls` and returned to
    the same call later. Past CALL_MEMO_CAP results the oldest goes."""
    key = (entry, fuel, rho)
    calls = loaded.calls
    try:
        r = calls.get(key)
    except RecursionError:
        # hashing recurses once per level not hashed before; arguments too
        # deep for that (a long ledger built elsewhere) are evaluated, not kept
        return eval_expr(loaded.env, fuel, rho, loaded.entries[entry])
    if r is None:
        r = eval_expr(loaded.env, fuel, rho, loaded.entries[entry])
        if len(calls) >= CALL_MEMO_CAP:
            del calls[next(iter(calls))]
        calls[key] = r
    return r


def call_contract(
    st: ChainState,
    sender: int,
    target: int,
    msg: Optional[Val],
    amount: int,
    depth: int,
    log: list[str],
    fuel: int = DEFAULT_CALL_FUEL,
) -> bool:
    """Deliver a message (or a bare payment when msg is None) to a deployed
    contract, committing its new state and running any emitted transfers
    depth-first. Mutates `st`; the caller checks `depth` against
    MAX_CALL_DEPTH and provides rollback."""
    con = st.contracts.get(target)
    if con is None:
        log.append(f"no contract deployed at {target}")
        return False
    loaded = contract(con.program)
    if not _move(st, sender, target, amount, log):
        return False
    rho = (_chain_val(st), _ctx_val(sender, amount), _maybe_val(msg), con.state)
    r = _call_entry(loaded, loaded.program.receive_name, fuel, rho)
    if not isinstance(r, Ok):
        log.append(f"receive at {target} failed: {r!r}")
        return False
    try:
        decoded = _decode_receive(r.value)
    except ConversionError as err:
        log.append(f"receive at {target} returned a bad shape: {err}")
        return False
    if decoded is None:
        log.append(f"contract {target} rejected the call")
        return False
    new_state, emitted = decoded
    st.contracts[target] = DeployedContract(con.program, new_state)
    for out_amount, recipient in emitted:
        if not _exec_action(st, Transfer(target, recipient, out_amount), depth + 1, log, fuel):
            return False
    return True


def _exec_action(
    st: ChainState, act: Action, depth: int, log: list[str], fuel: int
) -> bool:
    if depth > MAX_CALL_DEPTH:
        log.append(f"call depth above {MAX_CALL_DEPTH}")
        return False
    match act:
        case Transfer(sender, target, amount):
            if target in st.contracts:
                # paying a contract delivers an empty message
                return call_contract(st, sender, target, None, amount, depth, log, fuel)
            return _move(st, sender, target, amount, log)
        case Deploy(sender, name, setup, amount):
            try:
                loaded = contract(name)
            except ConversionError:
                log.append(f"unknown contract '{name}'")
                return False
            address = st.next_address
            st.next_address += 1
            # the endowment lands before init runs
            if not _move(st, sender, address, amount, log):
                return False
            rho = (_chain_val(st), _ctx_val(sender, amount), setup)
            r = _call_entry(loaded, loaded.program.init_name, fuel, rho)
            if not isinstance(r, Ok):
                log.append(f"init of '{name}' failed: {r!r}")
                return False
            out = r.value
            if not isinstance(out, VConstr) or out.ind != "Maybe":
                log.append(f"init of '{name}' returned a bad shape")
                return False
            if out.ctor == "Nothing":
                log.append(f"init of '{name}' rejected the setup")
                return False
            (state,) = constr_payload(out, "Just")
            st.contracts[address] = DeployedContract(name, state)
            return True
        case Call(sender, target, msg, amount):
            return call_contract(st, sender, target, msg, amount, depth, log, fuel)
    raise TypeError(f"not an action: {act!r}")


def add_block(
    prev: ChainState,
    header: BlockHeader,
    actions: Sequence[Action],
    fuel: int = DEFAULT_CALL_FUEL,
) -> tuple[Optional[ChainState], list[str]]:
    """Apply a block. Returns (new state, log) on success and (None, log)
    when any action fails; `prev` is never modified."""
    log: list[str] = []
    if header.slot <= prev.slot:
        log.append(f"slot {header.slot} does not advance past {prev.slot}")
        return None, log
    st = clone(prev)
    st.slot = header.slot
    for act in actions:
        if not _exec_action(st, act, 0, log, fuel):
            return None, log
    return st, log


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class TraceStep:
    header: BlockHeader
    actions: tuple[Action, ...]
    accepted: bool


@dataclass
class Trace:
    genesis: ChainState
    steps: list[TraceStep] = field(default_factory=list)


class ReplayError(Exception):
    pass


def replay(trace: Trace, fuel: int = DEFAULT_CALL_FUEL) -> list[ChainState]:
    """Re-run a trace, returning the state after each step (rejected steps
    repeat the previous state). A mismatch with the recorded acceptance flags
    is an error."""
    st = clone(trace.genesis)
    states: list[ChainState] = []
    for i, step in enumerate(trace.steps):
        new, _ = add_block(st, step.header, step.actions, fuel)
        if (new is not None) != step.accepted:
            raise ReplayError(f"step {i} acceptance changed on replay")
        if new is not None:
            st = new
        states.append(st)
    return states


@dataclass(frozen=True)
class Violation:
    block_index: int
    message: str


Invariant = Callable[[Trace, int, ChainState], Optional[str]]


def check_invariants(
    trace: Trace,
    invs: Sequence[Invariant],
    fuel: int = DEFAULT_CALL_FUEL,
    states: Optional[list[ChainState]] = None,
) -> list[Optional[Violation]]:
    """For each invariant, the first step (by index) whose post-state
    violates it, or None. The trace is replayed once for all of them, or not
    at all when `states` already holds its replay."""
    if states is None:
        states = replay(trace, fuel)
    found: list[Optional[Violation]] = [None] * len(invs)
    for i, st in enumerate(states):
        for j, inv in enumerate(invs):
            if found[j] is None:
                msg = inv(trace, i, st)
                if msg is not None:
                    found[j] = Violation(i, msg)
    return found


def check_invariant(trace: Trace, inv: Invariant, fuel: int = DEFAULT_CALL_FUEL) -> Optional[Violation]:
    """First step (by index) whose post-state violates the invariant."""
    return check_invariants(trace, (inv,), fuel)[0]


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
        if contract(con.program).program.init_name == "cf_init":
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
class DeployPlan:
    contract: str
    deployer: int
    amount: int
    setup: dict


@dataclass(frozen=True)
class Scenario:
    actors: tuple[tuple[int, int], ...]  # (address, starting funds)
    deploys: tuple[DeployPlan, ...]


def crowdfunding_scenario(
    goal: int = 60, deadline: int = 12, name: str = "crowdfunding"
) -> Scenario:
    return Scenario(
        actors=((1, 200), (2, 200), (3, 200)),
        deploys=(DeployPlan(name, 1, 0, {"deadline": deadline, "goal": goal}),),
    )


def scenario_from_json(data: Any) -> Scenario:
    """Decode a scenario, raising JsonError on anything malformed. Each
    deployment's setup value is built here once, so that a missing or
    out-of-range setup field is reported before any block runs."""
    actors = []
    for a in _list(_need(data, "actors"), "scenario actors"):
        if not isinstance(a, list) or len(a) != 2:
            raise JsonError("each actor must be an [address, funds] pair")
        addr = _index(a[0], "actor address")
        if any(addr == b for b, _ in actors):
            raise JsonError(f"actor {addr} is listed twice")
        actors.append((addr, _index(a[1], "actor funds")))
    deploys = []
    for d in _list(_need(data, "deploys"), "scenario deploys"):
        name = _str(_need(d, "contract"), "contract name")
        if name not in CONTRACTS:
            raise JsonError(f"unknown contract '{name}'")
        setup = d.get("setup", {})
        if not isinstance(setup, dict):
            raise JsonError(f"setup of '{name}' must be an object")
        try:
            CONTRACTS[name].make_setup(setup)
        except KeyError as err:
            raise JsonError(f"setup of '{name}' lacks field {err}") from None
        except (TypeError, ValueError) as err:
            raise JsonError(f"setup of '{name}' is invalid: {err}") from None
        deploys.append(
            DeployPlan(
                name,
                _index(_need(d, "deployer"), "deployer"),
                _index(d.get("amount", 0), "deploy amount"),
                dict(setup),
            )
        )
    return Scenario(tuple(actors), tuple(deploys))


def load_scenario(name_or_path: str) -> Scenario:
    """Scenario from a JSON file; bare names resolve to the packaged set."""
    from .programs import scenario_dir

    p = Path(name_or_path)
    if not p.exists() and "/" not in name_or_path:
        cand = scenario_dir() / f"{name_or_path}.json"
        if cand.exists():
            p = cand
    if not p.exists():
        raise FileNotFoundError(f"no scenario at '{name_or_path}'")
    return scenario_from_json(parse_json(p.read_text(), f"scenario '{p}'"))


def _rand_action(rng: random.Random, st: ChainState, actors: list[int]) -> Action:
    addrs = sorted(st.contracts)
    roll = rng.random()
    sender = rng.choice(actors)
    if addrs and roll < 0.75:
        target = rng.choice(addrs)
        prog = contract(st.contracts[target].program).program
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
    seed: int,
    max_blocks: int,
    scenario: Scenario,
    fuel: int = DEFAULT_CALL_FUEL,
) -> Trace:
    """A reproducible random trace of `max_blocks` blocks (at least 1): one
    deployment block, then random blocks.

    Each random block is run once, action by action, each action on a clone
    of the state after the actions kept before it. An action that fails is
    dropped and its clone discarded. When every action is kept the block is
    accepted. Otherwise it stays in the trace as rejected, followed (if
    there is room) by an accepted block of the kept actions under the same
    header, so the chain keeps moving."""
    if max_blocks < 1:
        raise ValueError(f"a trace needs at least 1 block, got {max_blocks}")
    rng = random.Random(seed)
    st = genesis(dict(scenario.actors))
    trace = Trace(clone(st))
    deploy_acts: list[Action] = [
        Deploy(p.deployer, p.contract, CONTRACTS[p.contract].make_setup(p.setup), p.amount)
        for p in scenario.deploys
    ]
    header = BlockHeader(st.slot + 1)
    new, log = add_block(st, header, deploy_acts, fuel)
    if new is None:
        raise ChainError(f"deployment block failed: {log}")
    trace.steps.append(TraceStep(header, tuple(deploy_acts), True))
    st = new
    actors = [a for a, _ in scenario.actors]
    while len(trace.steps) < max_blocks:
        header = BlockHeader(st.slot + rng.choice((1, 1, 2, 3)))
        actions = [_rand_action(rng, st, actors) for _ in range(rng.randint(1, 3))]
        cur = clone(st)
        cur.slot = header.slot
        kept: list[Action] = []
        for act in actions:
            if _exec_action(trial := clone(cur), act, 0, [], fuel):
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


def final_state(trace: Trace, fuel: int = DEFAULT_CALL_FUEL) -> ChainState:
    states = replay(trace, fuel)
    return states[-1] if states else clone(trace.genesis)
