"""The differential harness itself: outcome classification, the
substitution-commutation property, fuel search, the generator's guarantees,
and report rendering."""

import random
import sys
import threading

import pytest

from acorncore import kernel as k
from acorncore.interp import EnvTrace, VClosLam, VPrim, eval_expr
from acorncore.lang import (
    App,
    Const,
    Fix,
    Lam,
    Let,
    Lit,
    NotEnoughFuel,
    Ok,
    PInt,
    TInd,
    TVar,
    TyAsExpr,
    Var,
    expr_closed_under,
    mk_app,
)
from acorncore.programs import corpus_dir, int_list_expr, int_val, stdlib_env
from acorncore.soundness import (
    Agree,
    Disagree,
    Inconclusive,
    Report,
    corpus_files,
    diff_check,
    gen_expr,
    minimal_fuel,
    run_corpus,
    subst_commutes,
)
from acorncore.translate import expr_to_term, translate_env

GENV = stdlib_env()
KENV = translate_env(GENV)

INT = TInd("Int")


def _kenv_override(**constants):
    out = k.KernelEnv(dict(KENV.inductives), dict(KENV.constants), dict(KENV.builtins))
    out.constants.update(constants)
    return out


# ---------------------------------------------------------------------------
# outcome classification

def test_agreement_carries_the_common_term():
    e = mk_app(Const("addInt"), Lit(PInt(1)), Lit(PInt(2)))
    assert diff_check(GENV, 1000, e, KENV) == Agree(k.PrimLit(PInt(3)))


def test_agreement_on_shared_failure():
    e = App(Lit(PInt(1)), Lit(PInt(2)))
    assert diff_check(GENV, 1000, e, KENV) == Agree(None)


def test_fuel_exhaustion_is_inconclusive_not_disagreement():
    e = App(Lam("x", INT, Var(0)), Lit(PInt(1)))
    assert diff_check(GENV, 1, e, KENV) == Inconclusive("both")


def test_one_sided_fuel_exhaustion_names_the_side():
    genv = GENV.copy()
    genv.define("c0", Lit(PInt(1)))
    # give the kernel a longer unfolding chain for the same name
    kenv = translate_env(genv)
    kenv.constants["c1"] = k.PrimLit(PInt(1))
    kenv.constants["c0"] = k.Const("c1")
    assert diff_check(genv, 2, Const("c0"), kenv) == Inconclusive("kernel")
    # and the mirror image
    genv2 = GENV.copy()
    genv2.define("d1", Lit(PInt(1)))
    genv2.define("d0", Const("d1"))
    kenv2 = translate_env(genv2)
    kenv2.constants["d0"] = k.PrimLit(PInt(1))
    assert diff_check(genv2, 2, Const("d0"), kenv2) == Inconclusive("interp")


def test_one_sided_failure_is_a_disagreement():
    genv = GENV.copy()
    genv.define("present", Lit(PInt(1)))
    kenv = translate_env(genv)
    del kenv.constants["present"]
    out = diff_check(genv, 1000, Const("present"), kenv)
    assert isinstance(out, Disagree)
    assert out.detail == "only the kernel failed"

    kenv2 = _kenv_override(ghost=k.PrimLit(PInt(1)))
    out = diff_check(GENV, 1000, Const("ghost"), kenv2)
    assert isinstance(out, Disagree)
    assert out.detail == "only the interpreter failed"


def test_differing_results_are_a_disagreement():
    genv = GENV.copy()
    genv.define("answer", Lit(PInt(1)))
    kenv = translate_env(genv)
    kenv.constants["answer"] = k.PrimLit(PInt(999))
    out = diff_check(genv, 1000, Const("answer"), kenv)
    assert isinstance(out, Disagree)
    assert out.detail.startswith("result terms differ")


def test_diff_check_translates_the_environment_when_not_given_one():
    e = mk_app(Const("maxInt"), Lit(PInt(3)), Lit(PInt(8)))
    assert diff_check(GENV, 1000, e) == Agree(k.PrimLit(PInt(8)))


# ---------------------------------------------------------------------------
# substitution commutation

def test_subst_commutes_on_a_simple_pair():
    e = mk_app(Const("addInt"), Var(0), Lit(PInt(1)))
    assert subst_commutes(GENV, (int_val(3),), e) is True


def test_subst_commutes_on_harvested_pairs():
    e = Let(
        "a",
        INT,
        Lit(PInt(5)),
        App(Lam("x", INT, mk_app(Const("addInt"), Var(0), Var(1))), Lit(PInt(2))),
    )
    trace = EnvTrace()
    r = eval_expr(GENV, 1000, (), e, trace)
    assert isinstance(r, Ok)
    assert trace.pairs
    rng = random.Random(4)
    for _ in range(200):
        eval_expr(GENV, 10_000, (), gen_expr(rng, 12), trace)
    downshifted = 0
    for rho, body in trace.pairs:
        assert subst_commutes(GENV, rho, body) is not False
        # without its last c entries the environment no longer covers every
        # free index of the body, so substitution shifts the rest down
        for c in range(1, len(rho) + 1):
            verdict = subst_commutes(GENV, rho[: len(rho) - c], body)
            assert verdict is not False
            downshifted += verdict is True
    assert downshifted > 1000


def test_subst_commutes_is_silent_without_evidence():
    # the captured entry cannot be read back: its domain annotation points a
    # type position at a term-level entry
    stuck = VClosLam((VPrim(PInt(1)),), "x", TVar(0), Var(0))
    e = App(Var(0), Lit(PInt(1)))
    assert subst_commutes(GENV, (stuck,), e) is None
    # a type position inside the body hits a term entry the same way
    e2 = Lam("y", TVar(0), Var(0))
    assert subst_commutes(GENV, (int_val(1),), e2) is None


# ---------------------------------------------------------------------------
# fuel search

def test_minimal_fuel_finds_the_boundary():
    assert minimal_fuel(GENV, Lit(PInt(1))) == 1
    assert minimal_fuel(GENV, App(Lam("x", INT, Var(0)), Lit(PInt(1)))) == 2
    genv = GENV.copy()
    genv.define("one", Lit(PInt(1)))
    genv.define("alias", Const("one"))
    assert minimal_fuel(genv, Const("one")) == 2
    assert minimal_fuel(genv, Const("alias")) == 3


def test_minimal_fuel_is_a_tight_boundary_on_generated_expressions():
    rng = random.Random(31)
    for _ in range(40):
        e = gen_expr(rng, 8)
        mf = minimal_fuel(GENV, e)
        assert mf is not None
        assert not isinstance(eval_expr(GENV, mf, (), e), NotEnoughFuel)
        assert isinstance(eval_expr(GENV, mf - 1, (), e), NotEnoughFuel)


def test_minimal_fuel_gives_up_at_the_cap():
    loop = Fix("rec", "x", INT, INT, App(Var(1), Var(0)))
    assert minimal_fuel(GENV, App(loop, Lit(PInt(0))), cap=100) is None


# ---------------------------------------------------------------------------
# generator guarantees

def test_generator_is_deterministic():
    a = [gen_expr(random.Random(5), 12) for _ in range(50)]
    b = [gen_expr(random.Random(5), 12) for _ in range(50)]
    # one shared stream must also replay exactly
    rng1, rng2 = random.Random(6), random.Random(6)
    c = [gen_expr(rng1, 12) for _ in range(50)]
    d = [gen_expr(rng2, 12) for _ in range(50)]
    assert a == b
    assert c == d


def test_generated_expressions_are_closed():
    rng = random.Random(17)
    for _ in range(300):
        assert expr_closed_under(0, gen_expr(rng, 12))


def test_generated_expressions_never_split_the_evaluators():
    rng = random.Random(23)
    for _ in range(200):
        out = diff_check(GENV, 10_000, gen_expr(rng, 12), KENV)
        assert isinstance(out, Agree), out


# ---------------------------------------------------------------------------
# corpus runner and report

def test_corpus_files_filters_and_sorts(tmp_path):
    (tmp_path / "c.acorn").write_text("")
    (tmp_path / "a.json").write_text("{}")
    (tmp_path / "bad-broken.acorn").write_text("")
    (tmp_path / "notes.txt").write_text("")
    assert [p.name for p in corpus_files(tmp_path)] == ["a.json", "c.acorn"]


def test_run_corpus_over_the_shipped_modules():
    report = run_corpus(corpus_dir(), fuel=10_000, gen_count=25, seed=3)
    assert report.ok
    assert report.disagree == 0 and report.inconclusive == 0
    assert report.agree == len(report.rows)
    assert report.subst_checked > 0 and report.subst_failed == 0
    assert report.readback_checked > 0 and report.readback_failed == 0
    names = [n for n, _ in report.rows]
    assert "stdlib.acorn:foldr" in names
    assert "gen[0]" in names and "gen[24]" in names
    assert sum(1 for n in names if n.startswith("gen[")) == 25


def test_run_corpus_renders_deterministically():
    a = run_corpus(corpus_dir(), fuel=5_000, gen_count=10, seed=9).render()
    b = run_corpus(corpus_dir(), fuel=5_000, gen_count=10, seed=9).render()
    assert a == b
    assert "subst-commutation pairs: checked=" in a
    assert "value readback: checked=" in a
    assert "disagreements: 0" in a


def test_run_corpus_summary_is_pinned():
    # pairs are not deduplicated: the translation and read-back caches change
    # how fast the check runs, never what it counts
    tail = run_corpus(corpus_dir(), gen_count=200, seed=4).render().splitlines()[-5:]
    assert tail == [
        "agreements: 341 (0 with errors on both sides)",
        "disagreements: 0",
        "inconclusive: 0",
        "subst-commutation pairs: checked=2998 failed=0",
        "value readback: checked=341 failed=0",
    ]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="frame depth read on CPython 3.11")
def test_first_recursion_error_of_a_deep_fold_stays_put():
    """The shortest `foldr addInt` list whose `diff_check` overflows Python's
    stack, read in a new thread so that the caller's depth does not count.
    Translation and read-back must add no frame per level."""
    found = []

    def probe():
        genv = stdlib_env()
        kenv = translate_env(genv)
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

    t = threading.Thread(target=probe)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert found == [246]


def test_run_corpus_without_generation_has_no_gen_rows():
    report = run_corpus(corpus_dir(), fuel=10_000, gen_count=0)
    assert all(not n.startswith("gen[") for n, _ in report.rows)
    assert report.ok


def test_report_ok_requires_every_counter_clean():
    base = dict(source="x", fuel=1, gen_count=0, seed=0, rows=[])
    assert Report(**base).ok
    assert not Report(**base, disagree=1).ok
    assert not Report(**base, inconclusive=1).ok
    assert not Report(**base, subst_failed=1).ok
    assert not Report(**base, readback_failed=1).ok
    assert Report(**base, agree=5, agree_err=2).ok
