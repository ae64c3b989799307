"""What the golden reports, the depth test and the intern test pin, kept
free of pytest so that `scripts/check_pythons.py` runs the very same
commands and probes under every installed Python: the CLI commands whose
output `tests/golden/` holds, the search for the first `foldr addInt` list
whose `diff_check` overflows Python's stack and the first list the two
printers cannot print, each with the length it should find, and the check
of the intern table after a `diff-eval` run."""

from __future__ import annotations

import gc
import sys
import threading
from typing import Optional

from acorncore import kernel, lang
from acorncore.interp import Val
from acorncore.lang import Const, Expr, Lit, Pat, PInt, PNat, TInd, Ty, TyAsExpr, mk_app
from acorncore.parser import pretty_expr
from acorncore.programs import corpus_dir, int_list_expr, stdlib_env
from acorncore.soundness import diff_check, run_corpus
from acorncore.translate import translate_env
from oracles import kernel_int_list, struct_duplicates

# the classes `lang.tree_node` makes, by their bases
TREE_NODE_KINDS = (Ty, Expr, Val, kernel.Term, PInt, PNat, Pat)

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


def foldr_add_int(n: int) -> Expr:
    """`foldr addInt 0z` over the integers 0 to n - 1."""
    INT = TInd("Int")
    return mk_app(
        Const("foldr"), TyAsExpr(INT), TyAsExpr(INT), Const("addInt"),
        Lit(PInt(0)), int_list_expr(range(n)),
    )


# what `first_recursion_error` reads at the default recursion limit, by
# Python version: the deepest recursion takes one frame per element, so the
# frames each version keeps below a new thread's first one, and the frames
# of the innermost step, move it by a few. On every version the interpreter
# overflows first; the kernel's innermost step, which puts the pending
# substitution into a match's scrutinee alone, takes fewer frames.
FIRST_RECURSION_ERRORS = {"3.10": 987, "3.11": 988, "3.12": 990, "3.13": 990}
# the reading the depth test asserts, on 3.11
FIRST_RECURSION_ERROR = FIRST_RECURSION_ERRORS["3.11"]


def first_recursion_error(timeout: float) -> Optional[int]:
    """The shortest `foldr addInt` list, of 972 to 1,035 elements, whose
    `diff_check` raises `RecursionError`, or None if none does. It runs in
    a new daemon thread, so that the caller's depth does not count; raises
    `TimeoutError` if that thread has not ended within `timeout` seconds."""
    found = []

    def probe():
        genv = stdlib_env()
        kenv = translate_env(genv)
        for n in range(972, 1036):
            e = foldr_add_int(n)
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


# what `first_printer_recursion_error` reads at the default recursion limit,
# by Python version: each printer takes one frame per element of a list, on
# every version as long as its `App` arm holds no comprehension, which is a
# frame of its own before 3.12
FIRST_PRINTER_RECURSION_ERRORS = {"3.10": 992, "3.11": 992, "3.12": 992, "3.13": 992}


def first_printer_recursion_error(timeout: float) -> Optional[int]:
    """The shortest `Int` list, of 1 to 4,095 elements, that `pretty_expr`
    or `pretty_term` cannot print for `RecursionError`, or None if both
    print every one. Found by bisection, as a longer list takes no fewer
    frames, in a new daemon thread as `first_recursion_error` is."""
    found = []

    def overflows(n: int) -> bool:
        try:
            pretty_expr(int_list_expr(range(n)))
            kernel.pretty_term(kernel_int_list(range(n)))
        except RecursionError:
            return True
        return False

    def probe():
        # the empty list prints; the answer is above `lo` and at most `hi`
        lo, hi = 0, 4095
        if not overflows(hi):
            return
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if overflows(mid):
                hi = mid
            else:
                lo = mid
        found.append(hi)

    t = threading.Thread(target=probe, daemon=True)
    t.start()
    t.join(timeout=timeout)
    if t.is_alive():
        raise TimeoutError(f"printer depth probe still running after {timeout} s")
    return found[0] if found else None


def lone_entries() -> int:
    """Entries of the intern table that nothing but the table holds: the
    table's reference and `getrefcount`'s argument. The key list holds each
    node's children, so a lone node's children are not counted; the node
    itself is."""
    table = lang._NODES
    return sum(1 for key in list(table) if sys.getrefcount(table[key]) == 2)


def intern_probe() -> tuple[int, int, int]:
    """Run `diff-eval` on the corpus and 100 generated programs, then collect
    garbage twice: the first collection frees reference cycles, which may
    hold nodes, and sweeps; the second sweeps what that released. Returns
    the number of entries left in the table, how many of them only the table
    holds, and how many pairs of distinct structurally equal nodes are
    reachable from them. The last two should be 0."""
    report = run_corpus(corpus_dir(), gen_count=100)
    assert report.ok
    del report
    gc.collect()
    gc.collect()
    lone = lone_entries()
    dups = struct_duplicates(list(lang._NODES.values()), TREE_NODE_KINDS)
    return len(lang._NODES), lone, len(dups)
