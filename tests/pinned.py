"""What the golden reports and the depth test pin, kept free of pytest so
that `scripts/check_pythons.py` runs the very same commands and probe under
every installed Python: the CLI commands whose output `tests/golden/` holds,
and the search for the first `foldr addInt` list whose `diff_check`
overflows Python's stack."""

from __future__ import annotations

import threading
from typing import Optional

from acorncore.lang import Const, Lit, PInt, TInd, TyAsExpr, mk_app
from acorncore.programs import int_list_expr, stdlib_env
from acorncore.soundness import diff_check
from acorncore.translate import translate_env

# (file in tests/golden/, CLI arguments that print it)
CASES = [
    ("diff_eval_gen1000_seed7.txt", ["diff-eval", "--gen", "1000", "--seed", "7", "--fuel", "10000"]),
    ("chain_blocks50_seed3.txt", ["chain", "--blocks", "50", "--seed", "3", "--fuel", "10000"]),
    *[(f"translate_{m}.txt", ["translate", m]) for m in ("crowdfunding", "counter", "listops", "mapops")],
    (
        "chain_counter_blocks50_seed3.txt",
        ["chain", "--scenario", "counter", "--blocks", "50", "--seed", "3", "--fuel", "10000"],
    ),
    ("chain_blocks300_seed0.txt", ["chain", "--blocks", "300", "--seed", "0", "--fuel", "10000"]),
]


def first_recursion_error(timeout: float) -> Optional[int]:
    """The shortest `foldr addInt` list, of 236 to 299 elements, whose
    `diff_check` raises `RecursionError`, or None if none does. It runs in
    a new daemon thread, so that the caller's depth does not count; raises
    `TimeoutError` if that thread has not ended within `timeout` seconds."""
    found = []

    def probe():
        genv = stdlib_env()
        kenv = translate_env(genv)
        INT = TInd("Int")
        for n in range(236, 300):
            e = mk_app(
                Const("foldr"), TyAsExpr(INT), TyAsExpr(INT), Const("addInt"),
                Lit(PInt(0)), int_list_expr(range(n)),
            )
            try:
                diff_check(genv, 100_000, e, kenv)
            except RecursionError:
                found.append(n)
                return

    t = threading.Thread(target=probe, daemon=True)
    t.start()
    t.join(timeout=timeout)
    if t.is_alive():
        raise TimeoutError(f"depth probe still running after {timeout} s")
    return found[0] if found else None
