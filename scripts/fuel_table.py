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
programs (`random.Random(4)`, size 12) and `foldr addInt 0z` over 0 to 60
elements. Run it on two checkouts and `diff` the outputs: any line that
differs is a change in what some fuel buys. Standard library only; it is
not part of the test suite.

    python3 scripts/fuel_table.py > fuel.txt
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from acorncore.interp import eval_expr, from_val  # noqa: E402
from acorncore.kernel import cbv_eval  # noqa: E402
from acorncore.lang import EvalError, Expr, GlobalEnv, NotEnoughFuel  # noqa: E402
from acorncore.programs import corpus_dir, load_module, stdlib_env  # noqa: E402
from acorncore.soundness import corpus_files, gen_expr  # noqa: E402
from acorncore.translate import expr_to_term, translate_env  # noqa: E402
from pinned import foldr_add_int  # noqa: E402

CAP = 10_000  # the default fuel of `acorn diff-eval`
OUT_OF_FUEL = "out of fuel"


def programs() -> Iterator[tuple[str, GlobalEnv, Expr]]:
    for f in corpus_files(corpus_dir()):
        genv, defs = load_module(str(f))
        for name, body in defs:
            yield f"{f.name}:{name}", genv, body
    genv = stdlib_env()
    rng = random.Random(4)
    for i in range(400):
        yield f"gen[{i}]", genv, gen_expr(rng, 12)
    for n in range(61):
        yield f"foldr[{n}]", genv, foldr_add_int(n)


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
    for name, genv, e in programs():
        if genv is not last:
            last, kenv = genv, translate_env(genv)
        term = expr_to_term(genv, e)
        interp = least_fuel(lambda f: show(eval_expr(genv, f, (), e), from_val))
        kernel = least_fuel(lambda f: show(cbv_eval(kenv, f, term), lambda t: t))
        print(f"{name} interp {interp}")
        print(f"{name} kernel {kernel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
