"""The intern table behind `lang.tree_node`: two live tree nodes that are
structurally equal are one object, the table keeps no node that only it
holds once garbage is collected, and equality and hashing take no recursion."""

import gc
import random
import subprocess
import sys
import threading

from acorncore import kernel as k
from acorncore import lang
from acorncore.interp import eval_expr, from_val
from acorncore.kernel import cbv_eval
from acorncore.lang import (
    NOT_ENOUGH_FUEL, App, Const, Constr, EvalError, Lit, Ok, PInt, PNat, TInd, TyAsExpr, mk_app,
)
from acorncore.programs import corpus_dir, load_module, stdlib_env
from acorncore.soundness import corpus_files, gen_expr
from acorncore.translate import expr_to_term, translate_env

from oracles import child_env, forged_copy, struct_duplicates, to_acorn_map
from pinned import TREE_NODE_KINDS, intern_probe


def _programs():
    for f in corpus_files(corpus_dir()):
        genv, defs = load_module(str(f))
        kenv = translate_env(genv)
        for _, body in defs:
            yield genv, kenv, body
    genv = stdlib_env()
    kenv = translate_env(genv)
    rng = random.Random(4)
    for _ in range(200):
        yield genv, kenv, gen_expr(rng)


def test_structurally_equal_live_nodes_are_one_object():
    # every program, its translation, both evaluators' results and the
    # interpreter's result read back and translated, all alive at once
    roots = []
    for genv, kenv, e in _programs():
        roots.append(e)
        t = expr_to_term(genv, e)
        roots.append(t)
        kr = cbv_eval(kenv, 10_000, t)
        if isinstance(kr, Ok):
            roots.append(kr.value)
        ir = eval_expr(genv, 10_000, (), e)
        if isinstance(ir, Ok):
            roots.append(ir.value)
            back = from_val(ir.value)
            if back is not None:
                roots += [back, expr_to_term(genv, back)]
    assert len(roots) > 1000
    assert struct_duplicates(roots, TREE_NODE_KINDS) == []
    # the check can fail: a copy built around the table is found, node by node
    copy = forged_copy(roots[-1])
    assert len(struct_duplicates([roots[-1], copy], TREE_NODE_KINDS)) > 1


def test_a_collection_leaves_no_node_that_only_the_table_holds():
    entries, lone, duplicates = intern_probe()
    assert entries > 0
    assert lone == 0
    assert duplicates == 0


def test_a_sweep_slice_from_either_end_holds_the_same_keys_in_order():
    # the sweep takes each slice of the table from its nearer end
    for n in (0, 1, 2, 7):
        table = {("key", i): i for i in range(n)}
        for start in range(n + 1):
            for stop in range(start, n + 1):
                assert lang._keys(table, start, stop) == list(table)[start:stop]


def test_a_fresh_import_replaces_the_earlier_sweep_hook():
    # each stale hook would keep its import's whole intern table alive
    code = """
import gc, sys
for _ in range(3):
    for name in [m for m in sys.modules if m.split(".")[0] == "acorncore"]:
        del sys.modules[name]
    import acorncore.lang
print(sum(getattr(f, "__name__", None) == "_sweep" for f in gc.callbacks))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1"]


def test_equality_and_hash_take_no_recursion():
    # structural `==` overflowed on kernel lists of 330 elements, and hashing
    # a ledger a few hundred entries deep; run in a new thread, so that the
    # caller's depth does not count
    results = {}

    def kernel_list(n):
        # bottom-up, as translation and evaluation build it
        lst = k.App(k.Construct("List", 0), k.Ind("Int"))
        for i in range(n):
            cons = k.App(k.Construct("List", 1), k.Ind("Int"))
            lst = k.App(k.App(cons, k.PrimLit(PInt(i))), lst)
        return lst

    def probe():
        for name, build in (
            ("list", lambda: kernel_list(5000)),
            ("ledger", lambda: to_acorn_map([(1 + i % 3, i) for i in range(5000)])),
        ):
            a, b = build(), build()
            results[name] = (a is b, a == b, hash(a) == hash(b), {a: name}.get(b))

    t = threading.Thread(target=probe)
    t.start()
    t.join()
    assert results == {"list": (True, True, True, "list"), "ledger": (True, True, True, "ledger")}


def _foldr_add_int(heads):
    # `foldr addInt 0z` over a list of the literals `heads`
    INT = TyAsExpr(TInd("Int"))
    lst = App(Constr("List", "Nil"), INT)
    for h in reversed(heads):
        lst = mk_app(Constr("List", "Cons"), INT, Lit(h), lst)
    return mk_app(Const("foldr"), INT, INT, Const("addInt"), Lit(PInt(0)), lst)


def test_a_failed_evaluation_leaves_nothing_alive():
    # a failure raises from the deepest frame, and the exception's traceback
    # holds every frame's environment, arguments and terms; once an entry
    # point has turned it into its result, nothing may keep it
    genv = stdlib_env()
    kenv = translate_env(genv)
    n = 300

    def evaluate(heads, fuel_i, fuel_k):
        e = _foldr_add_int(heads)
        return eval_expr(genv, fuel_i, (), e), cbv_eval(kenv, fuel_k, expr_to_term(genv, e))

    # what the environments keep (a constant's value) is made before the
    # count
    assert all(isinstance(r, Ok) for r in evaluate([PInt(1)], 100, 100))
    gc.collect()
    gc.collect()
    baseline = len(lang._NODES)

    def fail():
        # a fresh list, whose nodes the table holds for this call alone
        heads = [PInt(1_000_000 + i) for i in range(n)]
        # one unit below each evaluator's least fuel, out of fuel at the
        # deepest element
        assert evaluate(heads, 3 * n + 2, 3 * n + 3) == (NOT_ENOUGH_FUEL, NOT_ENOUGH_FUEL)
        assert all(isinstance(r, Ok) for r in evaluate(heads, 3 * n + 3, 3 * n + 4))
        # stuck at the deepest element, which is not an integer
        stuck = EvalError("primitive 'addInt' applied to the wrong literal kind")
        assert evaluate(heads[:-1] + [PNat(0)], 10_000, 10_000) == (stuck, stuck)

    fail()
    gc.collect()
    gc.collect()
    assert len(lang._NODES) == baseline
    assert sys.exc_info() == (None, None, None)
