"""The intern table behind `lang.tree_node`: two live tree nodes that are
structurally equal are one object, the table keeps no node that only it
holds once garbage is collected, and equality and hashing take no recursion."""

import random
import threading

from acorncore import kernel as k
from acorncore.interp import eval_expr, from_val
from acorncore.kernel import cbv_eval
from acorncore.lang import Ok, PInt
from acorncore.programs import corpus_dir, load_module, stdlib_env
from acorncore.soundness import corpus_files, gen_expr
from acorncore.translate import expr_to_term, translate_env

from oracles import forged_copy, struct_duplicates, to_acorn_map
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
