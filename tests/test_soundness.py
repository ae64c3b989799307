"""The differential harness itself: outcome classification, the
substitution-commutation property, fuel search, the generator's guarantees,
and report rendering."""

import random
import sys
import threading
from pathlib import Path

import pytest

from acorncore import kernel as k
from acorncore.interp import Val, VClos, VPrim, VTy, eval_expr
from acorncore.lang import (
    App,
    Const,
    EvalError,
    Fix,
    Lam,
    Let,
    Lit,
    NOT_ENOUGH_FUEL,
    NotEnoughFuel,
    Ok,
    PInt,
    TApp,
    TArr,
    TForall,
    TInd,
    TVar,
    TyAsExpr,
    TyLam,
    Var,
    closed_under,
    mk_app,
)
from acorncore.programs import corpus_dir, load_module, stdlib_env
from acorncore.soundness import (
    Agree,
    Disagree,
    Inconclusive,
    Report,
    _check_one,
    corpus_files,
    diff_check,
    gen_expr,
    run_corpus,
    subst_commutes,
)
from acorncore.translate import expr_to_term, translate_env

from oracles import int_val, minimal_fuel
from pinned import (
    FIRST_PRINTER_RECURSION_ERRORS,
    FIRST_RECURSION_ERROR,
    first_printer_recursion_error,
    first_recursion_error,
    foldr_add_int,
)

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


def test_evaluators_answer_ok_an_error_or_out_of_fuel_and_keep_constants_bare():
    # both evaluators recurse on bare values; only `eval_expr` and `cbv_eval`
    # wrap the final one in `Ok`
    programs = []
    stores = []
    for path in corpus_files(corpus_dir()):
        genv, defs = load_module(str(path))
        kenv = translate_env(genv)
        programs += [(genv, kenv, body) for _, body in defs]
        stores.append((genv, [name for name, _ in defs]))
    rng = random.Random(16)
    programs += [(GENV, KENV, gen_expr(rng, 12)) for _ in range(200)]
    # neither source fails to evaluate, so two programs that do
    lit = Lit(PInt(1))
    for e in (App(lit, lit), mk_app(Const("addInt"), lit, lit, lit)):
        programs.append((GENV, KENV, e))
    seen = set()
    for genv, kenv, e in programs:
        t = expr_to_term(genv, e)
        for fuel in (1, 2, 5, 10_000):
            for r, bare in (
                (eval_expr(genv, fuel, (), e), Val),
                (k.cbv_eval(kenv, fuel, t), k.Term),
            ):
                if type(r) is Ok:
                    assert isinstance(r.value, bare), r
                else:
                    assert type(r) is EvalError or r is NOT_ENOUGH_FUEL, r
                seen.add(type(r))
    assert seen == {Ok, EvalError, NotEnoughFuel}
    # the constant store keeps bare values and answers with a fresh `Ok`
    kept = 0
    for genv, names in stores:
        for name in names:
            eval_expr(genv, 10_000, (), Const(name))
        for name, v in genv.const_values.items():
            assert isinstance(v, Val), name
            assert eval_expr(genv, 1, (), Const(name)) is NOT_ENOUGH_FUEL
            again = eval_expr(genv, 2, (), Const(name))
            assert type(again) is Ok and again.value is v, name
            kept += 1
    assert kept > 50


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
    trace = []
    r = eval_expr(GENV, 1000, (), e, trace)
    assert isinstance(r, Ok)
    assert trace
    rng = random.Random(4)
    for _ in range(200):
        eval_expr(GENV, 10_000, (), gen_expr(rng, 12), trace)
    downshifted = 0
    for rho, body in trace:
        assert subst_commutes(GENV, rho, body) is not False
        # without its last c entries the environment no longer covers every
        # free index of the body, so substitution shifts the rest down
        for c in range(1, len(rho) + 1):
            verdict = subst_commutes(GENV, rho[: len(rho) - c], body)
            assert verdict is not False
            downshifted += verdict is True
    assert downshifted > 1000


def test_subst_commutes_under_a_forall():
    # neither the corpus nor the generator builds a `forall` whose body
    # mentions a type variable bound outside it
    tv, BOOL = TVar, TInd("Bool")
    pairs = [
        ((VTy(INT),), Lam("f", TForall("A", TArr(tv(0), tv(1))), Var(0))),
        (
            (VTy(INT), VTy(BOOL)),
            TyAsExpr(TForall("A", TArr(tv(1), TForall("B", TArr(tv(0), tv(3)))))),
        ),
        ((int_val(3), VTy(INT)), Lam("f", TForall("A", TArr(tv(0), tv(2))), Var(1))),
        # past the environment the index shifts down under the binder
        ((VTy(INT),), TyAsExpr(TForall("A", TArr(tv(1), tv(2))))),
        (
            (VTy(BOOL),),
            App(TyLam("B", Lam("g", TForall("A", TArr(tv(1), tv(2))), Var(0))), TyAsExpr(INT)),
        ),
    ]
    for rho, e in pairs:
        assert subst_commutes(GENV, rho, e) is True


def test_subst_commutes_is_silent_without_evidence():
    # the captured entry cannot be read back: its domain annotation points a
    # type position at a term-level entry
    stuck = VClos((VPrim(PInt(1)),), Lam("x", TVar(0), Var(0)))
    e = App(Var(0), Lit(PInt(1)))
    assert subst_commutes(GENV, (stuck,), e) is None
    # a type position inside the body hits a term entry the same way
    e2 = Lam("y", TVar(0), Var(0))
    assert subst_commutes(GENV, (int_val(1),), e2) is None


def test_a_negative_index_fails_in_both_evaluators():
    e = Let("x", INT, Lit(PInt(5)), Var(-1))
    assert diff_check(GENV, 100, e, KENV) == Agree(None)


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
        assert closed_under(0, gen_expr(rng, 12))


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
    assert first_recursion_error(timeout=120) == FIRST_RECURSION_ERROR


@pytest.mark.skipif(
    f"{sys.version_info[0]}.{sys.version_info[1]}" not in FIRST_PRINTER_RECURSION_ERRORS,
    reason="printer depth pinned for CPython 3.10 to 3.13",
)
def test_first_recursion_error_of_the_printers_stays_put():
    """The shortest `Int` list that `pretty_expr` or `pretty_term` cannot
    print, read in a new thread as the fold's is: one frame per element."""
    version = f"{sys.version_info[0]}.{sys.version_info[1]}"
    assert first_printer_recursion_error(timeout=120) == FIRST_PRINTER_RECURSION_ERRORS[version]


def test_a_fold_over_319_elements_agrees_at_the_default_limits():
    """319 elements is the longest list the benchmark's `deepfold` folds. It
    runs to the end in both evaluators at the default fuel and recursion
    limit, read in a new thread as the depth probe is."""
    out = []

    def run():
        out.append(diff_check(GENV, 10_000, foldr_add_int(319), KENV))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=120)
    assert out == [Agree(k.PrimLit(PInt(319 * 318 // 2)))]


def test_a_type_abstraction_applied_to_a_term_fails_on_both_sides():
    # `polyid True` and `[List] 3z`, in modules of their own so that the
    # packaged corpus and its golden report stay as they are
    report = run_corpus(Path(__file__).parent / "ill_typed", gen_count=0)
    assert report.rows == [
        ("polyid.acorn:polyid", "agree"),
        ("polyid.acorn:bad", "agree (both err)"),
        ("tyapp.acorn:tyapp", "agree (both err)"),
    ]
    assert report.ok


def test_an_inductive_applied_to_a_type_agrees():
    # the interpreter's `VTy(TApp(...))` against the kernel's inert
    # `App(Ind ..., ...)`; a type of another head takes no argument, and an
    # inductive takes no term, on either side
    report = run_corpus(Path(__file__).parent / "type_apps", gen_count=0)
    assert report.rows == [
        ("tyapps.acorn:tt", "agree"),
        ("tyapps.acorn:pair", "agree"),
        ("tyapps.acorn:arrow", "agree (both err)"),
        ("tyapps.acorn:term", "agree (both err)"),
    ]
    assert report.ok
    genv, defs = load_module(str(Path(__file__).parent / "type_apps" / "tyapps.acorn"))
    results = {name: eval_expr(genv, 10, (), body) for name, body in defs}
    assert results["tt"] == Ok(VTy(TApp(TInd("List"), TInd("Int"))))
    assert results["arrow"] == EvalError("application of a non-function value")
    assert results["term"] == EvalError("application of a non-function value")


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


def test_a_definition_checks_the_first_40_of_its_pairs():
    # evaluation records every pair; the corpus check walks the first 40
    genv, defs = load_module(str(corpus_dir() / "mapops.acorn"))
    body = dict(defs)["bumpedfresh"]
    trace = []
    eval_expr(genv, 10_000, (), body, trace)
    assert len(trace) == 62
    report = Report("mapops", 10_000, 0, 0, rows=[])
    _check_one(report, genv, translate_env(genv), 10_000, "bumpedfresh", body)
    assert (report.subst_checked, report.subst_failed) == (40, 0)
