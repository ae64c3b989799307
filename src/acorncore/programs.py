"""Shipped modules and the bridge between language values and Python values.

Loads the prelude and the contract modules from the packaged corpus, exposes
the contract registry the chain simulator runs against, and provides native
oracles (list/map decoding, deduplicating map sums, folds) that tests compare
evaluation results with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from .interp import VConstr, VPrim, VTy, Val
from .lang import (
    App,
    BUILTINS,
    Const,
    Constr,
    EvalResult,
    Expr,
    GlobalEnv,
    Lit,
    PInt,
    PNat,
    TInd,
    TyAsExpr,
    Var,
    mk_app,
)
from .parser import parse_module
from .serialize import module_from_json, parse_json


class ConversionError(Exception):
    pass


def corpus_dir() -> Path:
    return Path(__file__).parent / "corpus"


def scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def base_env() -> GlobalEnv:
    """A fresh environment holding only the primitive constants."""
    return GlobalEnv((), dict(BUILTINS))


@functools.lru_cache(maxsize=None)
def stdlib_env() -> GlobalEnv:
    """The shared prelude. Treated as read-only; modules parse on a copy."""
    text = (corpus_dir() / "stdlib.acorn").read_text()
    env, _ = parse_module(text, base_env())
    return env


def resolve_module_path(name_or_path: str) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    #  bare names and corpus/-prefixed paths fall back to the packaged corpus
    parts = p.parts
    if len(parts) == 1 or (len(parts) == 2 and parts[0] == "corpus"):
        cand = corpus_dir() / parts[-1]
        if cand.exists():
            return cand
        cand = corpus_dir() / f"{parts[-1]}.acorn"
        if cand.exists():
            return cand
    raise FileNotFoundError(f"no module at '{name_or_path}'")


def load_module(name_or_path: str) -> tuple[GlobalEnv, list[tuple[str, Expr]]]:
    """Load a module (concrete syntax or JSON AST) on top of the prelude."""
    path = resolve_module_path(name_or_path)
    if path.resolve() == (corpus_dir() / "stdlib.acorn").resolve():
        # the prelude itself sits on the bare builtins
        return parse_module(path.read_text(), base_env())
    if path.suffix == ".json":
        decls, defs = module_from_json(parse_json(path.read_text(), f"module '{path}'"))
        env = stdlib_env().copy()
        for d in decls:
            env.add_inductive(d)
        for name, body in defs:
            env.define(name, body)
        return env, defs
    return parse_module(path.read_text(), stdlib_env())


@dataclass(frozen=True)
class ContractProgram:
    """A deployable program: its module plus the two wrapped entry points
    (init: chain -> ctx -> setup -> Maybe state; receive: chain -> ctx ->
    Maybe msg -> state -> Maybe (Prod state (List actions)))."""

    name: str
    module: str
    init_name: str
    receive_name: str
    make_setup: Callable[[dict], Val]
    gen_call: Callable[[object, int], tuple[Optional[Val], int]]


@dataclass
class LoadedContract:
    """A contract program on its loaded module. `entries` maps each entry
    point's name to its application to the first indices of the environment
    it is called in (`init #0 #1 #2`, `receive #0 #1 #2 #3`); `calls` keeps
    results of such calls, for `chainsim` to read and fill."""

    program: ContractProgram
    env: GlobalEnv
    entries: dict[str, Expr]
    calls: dict[tuple, EvalResult] = field(default_factory=dict, repr=False, compare=False)


def _cf_setup(args: dict) -> Val:
    return VConstr(
        "Prod",
        "Pair",
        (VPrim(PNat(int(args["deadline"]))), VPrim(PInt(int(args["goal"])))),
    )


def _counter_setup(args: dict) -> Val:
    return VPrim(PInt(int(args.get("start", 0))))


def _cf_gen_call(rng, slot: int) -> tuple[Optional[Val], int]:
    """A random crowdfunding interaction: mostly donations early on, tilting
    toward collection and refund attempts once slots grow past a deadline's
    usual range. Bare transfers stay in the mix."""
    roll = rng.random()
    late = slot > 10
    if roll < (0.25 if late else 0.60):
        return VConstr("Msg", "Donate"), rng.randint(1, 40)
    if roll < (0.55 if late else 0.75):
        return VConstr("Msg", "Claim"), 0
    if roll < 0.9:
        return VConstr("Msg", "GetFunds"), 0
    return None, rng.randint(0, 10)


def _counter_gen_call(rng, _slot: int) -> tuple[Optional[Val], int]:
    ctor = "Inc" if rng.random() < 0.6 else "Dec"
    msg = VConstr("Msg", ctor, (VPrim(PInt(rng.randint(0, 9))),))
    return msg, 0


def _fwd_setup(params: dict) -> Val:
    return nat_val(int(params["target"]))


def _fwd_gen_call(rng, _slot: int) -> tuple[Optional[Val], int]:
    return None, rng.randint(0, 5)


CONTRACTS: dict[str, ContractProgram] = {
    "crowdfunding": ContractProgram(
        "crowdfunding", "crowdfunding", "cf_init", "cf_receive", _cf_setup, _cf_gen_call
    ),
    "crowdfunding_overrecord": ContractProgram(
        "crowdfunding_overrecord",
        "crowdfunding_overrecord",
        "cf_init",
        "cf_receive",
        _cf_setup,
        _cf_gen_call,
    ),
    "counter": ContractProgram(
        "counter", "counter", "counter_init", "counter_receive", _counter_setup,
        _counter_gen_call,
    ),
    "forwarder": ContractProgram(
        "forwarder", "forwarder", "fwd_init", "fwd_receive", _fwd_setup, _fwd_gen_call
    ),
}


@functools.lru_cache(maxsize=None)
def contract(name: str) -> LoadedContract:
    prog = CONTRACTS.get(name)
    if prog is None:
        raise ConversionError(f"unknown contract '{name}'")
    env, _ = load_module(prog.module)
    entries = {
        entry: mk_app(Const(entry), *map(Var, range(arity)))
        for entry, arity in ((prog.init_name, 3), (prog.receive_name, 4))
    }
    return LoadedContract(prog, env, entries)


# ---------------------------------------------------------------------------
# value <-> Python conversions

def nat_val(n: int) -> Val:
    return VPrim(PNat(n))


def val_to_int(v: Val) -> int:
    if isinstance(v, VPrim) and isinstance(v.prim, PInt):
        return v.prim.value
    raise ConversionError(f"expected an integer value, got {v!r}")


def val_to_nat(v: Val) -> int:
    if isinstance(v, VPrim) and isinstance(v.prim, PNat):
        return v.prim.value
    raise ConversionError(f"expected a natural value, got {v!r}")


def val_to_bool(v: Val) -> bool:
    if isinstance(v, VConstr) and v.ind == "Bool" and not v.args:
        return v.ctor == "True"
    raise ConversionError(f"expected a boolean value, got {v!r}")


def constr_payload(v: Val, expect: Optional[str] = None) -> tuple[Val, ...]:
    """Value arguments of a constructor, with any leading type arguments
    stripped."""
    if not isinstance(v, VConstr):
        raise ConversionError(f"expected a constructor value, got {v!r}")
    if expect is not None and v.ctor != expect:
        raise ConversionError(f"expected '{expect}', got '{v.ctor}'")
    args = list(v.args)
    while args and isinstance(args[0], VTy):
        args.pop(0)
    return tuple(args)


def from_acorn_list(v: Val) -> list[Val]:
    items: list[Val] = []
    while True:
        if not isinstance(v, VConstr) or v.ind != "List":
            raise ConversionError(f"expected a list value, got {v!r}")
        if v.ctor == "Nil":
            if constr_payload(v):
                raise ConversionError("empty list with value arguments")
            return items
        if v.ctor != "Cons":
            raise ConversionError(f"unknown list constructor '{v.ctor}'")
        payload = constr_payload(v)
        if len(payload) != 2:
            raise ConversionError("list node must carry a head and a tail")
        items.append(payload[0])
        v = payload[1]


def map_entries(v: Val) -> list[tuple[int, int]]:
    entries: list[tuple[int, int]] = []
    while True:
        if not isinstance(v, VConstr) or v.ind != "AcornMap":
            raise ConversionError(f"expected a map value, got {v!r}")
        if v.ctor == "MNil":
            return entries
        if v.ctor != "MCons":
            raise ConversionError(f"unknown map constructor '{v.ctor}'")
        payload = constr_payload(v)
        if len(payload) != 3:
            raise ConversionError("map node must carry key, value and tail")
        entries.append((val_to_nat(payload[0]), val_to_int(payload[1])))
        v = payload[2]


def native_sum_map(v: Val) -> int:
    """Sum of the live entries: the first occurrence of a key shadows the
    rest, matching lookup order."""
    seen: set[int] = set()
    total = 0
    for key, value in map_entries(v):
        if key not in seen:
            seen.add(key)
            total += value
    return total


def native_foldr(f: Callable[[int, int], int], init: int, xs: Sequence[int]) -> int:
    acc = init
    for x in reversed(xs):
        acc = f(x, acc)
    return acc


# ---------------------------------------------------------------------------
# integer list expressions

_INT = TInd("Int")


def int_list_expr(xs: Sequence[int]) -> Expr:
    e: Expr = App(Constr("List", "Nil"), TyAsExpr(_INT))
    for x in reversed(xs):
        e = mk_app(Constr("List", "Cons"), TyAsExpr(_INT), Lit(PInt(x)), e)
    return e
