"""Print, for a fixed set of programs, the least fuel each evaluator needs.

Both evaluators are fuel-limited, and a result reached at some fuel is
reached identically at any larger amount. So each program has a least fuel
at which an evaluator finishes, with a value, an evaluation error or a
`RecursionError`, and the evaluator runs out of fuel one below it. This
script finds that fuel by bisection up to `CAP` and prints one line per
program and evaluator:

    <program> <interp|kernel> fuel=<least fuel> at=<result> below=<result>

with `fuel=none` when the evaluator is still out of fuel at `CAP`. A value
is shown by the read-back expression (interpreter) or the result term
(kernel), so the table does not depend on how values are represented. The
programs are every definition of the packaged corpus, 400 `gen_expr`
programs (`random.Random(4)`, size 12), `foldr addInt 0z` over 0 to 60
elements and over `concat` of two lists of 0 to 20 elements in all
(`CONCAT_CUTS`), where the fold's and `concat`'s fixpoints both unfold,
and the distinct `init` and `receive` calls of four generated crowdfunding
traces (`CHAIN_TRACES`), clean and mutant, each run in the environment
`chainsim._call_entry` builds for it. A contract call has an interpreter
row only: the kernel runs closed terms. Run it on two checkouts and `diff`
the outputs: any line that differs is a change in what some fuel buys.
Standard library only.
`tests/test_golden.py::test_fuel_table_is_unchanged` compares its output
with `tests/golden/fuel_table.txt`.

    python3 scripts/fuel_table.py > fuel.txt
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from acorncore import chainsim  # noqa: E402
from acorncore.interp import Val, eval_expr, from_val  # noqa: E402
from acorncore.kernel import cbv_eval  # noqa: E402
from acorncore.lang import (  # noqa: E402
    Const, EvalError, Expr, GlobalEnv, Lit, NotEnoughFuel, PInt, TInd, TyAsExpr, mk_app,
)
from acorncore.programs import (  # noqa: E402
    CONTRACTS, contract, corpus_dir, int_list_expr, load_module, stdlib_env,
)
from acorncore.soundness import corpus_files, gen_expr  # noqa: E402
from acorncore.translate import expr_to_term, translate_env  # noqa: E402
from pinned import foldr_add_int  # noqa: E402

CAP = 10_000  # the default fuel of `acorn diff-eval`
OUT_OF_FUEL = "out of fuel"
# (contract, trace seed) of the traces whose calls the table holds, each of
# `CHAIN_BLOCKS` blocks
CHAIN_TRACES = [(c, seed) for c in ("crowdfunding", "crowdfunding_overrecord") for seed in (0, 1)]
CHAIN_BLOCKS = 20
# (length, cut) of the lists `foldr_concat` folds
CONCAT_CUTS = [(0, 0), (1, 0), (1, 1), (2, 1), (7, 0), (7, 3), (7, 7), (20, 1), (20, 10), (20, 20)]


def programs() -> Iterator[tuple[str, GlobalEnv, Sequence[Val], Expr]]:
    for f in corpus_files(corpus_dir()):
        genv, defs = load_module(str(f))
        for name, body in defs:
            yield f"{f.name}:{name}", genv, (), body
    genv = stdlib_env()
    rng = random.Random(4)
    for i in range(400):
        yield f"gen[{i}]", genv, (), gen_expr(rng, 12)
    for n in range(61):
        yield f"foldr[{n}]", genv, (), foldr_add_int(n)
    for n, cut in CONCAT_CUTS:
        yield f"foldr_concat[{n}/{cut}]", genv, (), foldr_concat(n, cut)
    yield from chain_calls()


def foldr_concat(n: int, cut: int) -> Expr:
    """`foldr addInt 0z (concat l1 l2)`, where `l1` holds the integers 0
    to cut - 1 and `l2` those from cut to n - 1."""
    INT = TyAsExpr(TInd("Int"))
    lst = mk_app(Const("concat"), INT, int_list_expr(range(cut)), int_list_expr(range(cut, n)))
    return mk_app(Const("foldr"), INT, INT, Const("addInt"), Lit(PInt(0)), lst)


def chain_calls() -> Iterator[tuple[str, GlobalEnv, Sequence[Val], Expr]]:
    """The distinct contract calls of each trace of `CHAIN_TRACES`, in the
    order the trace first made them: the keys of the trace's call memo,
    each turned back into the environment `chainsim._call_entry` builds."""
    for name, seed in CHAIN_TRACES:
        prog = CONTRACTS[name]
        loaded = contract(name)
        trace = chainsim.gen_trace(seed, CHAIN_BLOCKS, chainsim.crowdfunding_scenario(name=name))
        for i, key in enumerate(trace.genesis.calls):
            _, entry, _, slot, sender, amount, *args = key
            if entry != prog.init_name:
                args = (chainsim._maybe_val(args[0]), args[1])
            at = chainsim.genesis({})
            at.slot = slot
            rho = (chainsim._chain_val(at), chainsim._ctx_val(sender, amount), *args)
            yield f"{name}[{seed}].call[{i}]:{entry}", loaded.env, rho, loaded.entries[entry]


def show(r: object, readback: Callable[[object], object]) -> str:
    if isinstance(r, NotEnoughFuel):
        return OUT_OF_FUEL
    if isinstance(r, EvalError):
        return f"error {r.reason!r}"
    return repr(readback(r.value))


def least_fuel(run: Callable[[int], str]) -> str:
    """The table's columns for `run`, which maps a fuel to a shown result."""
    seen: dict[int, str] = {}

    def at(fuel: int) -> str:
        if fuel not in seen:
            try:
                seen[fuel] = run(fuel) if fuel > 0 else OUT_OF_FUEL
            except RecursionError:
                seen[fuel] = "RecursionError"
        return seen[fuel]

    if at(CAP) == OUT_OF_FUEL:
        return "fuel=none"
    lo, hi = 0, CAP  # out of fuel at lo, finished at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at(mid) == OUT_OF_FUEL:
            lo = mid
        else:
            hi = mid
    return f"fuel={hi} at={at(hi)} below={at(hi - 1)}"


def main() -> int:
    last = kenv = None
    for name, genv, rho, e in programs():
        interp = least_fuel(lambda f: show(eval_expr(genv, f, rho, e), from_val))
        print(f"{name} interp {interp}")
        if rho:
            continue
        if genv is not last:
            last, kenv = genv, translate_env(genv)
        term = expr_to_term(genv, e)
        kernel = least_fuel(lambda f: show(cbv_eval(kenv, f, term), lambda t: t))
        print(f"{name} kernel {kernel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
