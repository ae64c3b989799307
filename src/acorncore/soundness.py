"""Differential evaluation: the surface interpreter against the kernel.

Every closed expression is run twice, once with `eval_expr` and once with
`cbv_eval` after translation. Interpreter values are read back to syntax and
translated, then compared to the kernel's result term for structural
equality, which is `==` since tree nodes are interned (`lang.tree_node`). A seeded generator widens coverage beyond the shipped corpus, and
environment/body pairs harvested during interpretation feed the
substitution-commutation property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from . import kernel as k
from .interp import (
    EnvTrace,
    Val,
    close_env,
    eval_expr,
    from_val,
    wf_val,
)
from .lang import (
    App,
    Case,
    Const,
    Constr,
    EvalError,
    EvalResult,
    Expr,
    Fix,
    GlobalEnv,
    Lam,
    Let,
    Lit,
    NotEnoughFuel,
    Ok,
    PInt,
    PNat,
    Pat,
    TInd,
    TVar,
    TyAsExpr,
    TyLam,
    Var,
    mk_app,
    ty_app,
)
from .translate import TranslateError, expr_to_term, translate_env


@dataclass(frozen=True)
class Agree:
    """Both sides finished. `term` is the common result, or None when both
    sides failed with an evaluation error."""
    term: Optional[k.Term]


@dataclass(frozen=True)
class Disagree:
    """The two sides finished with different results; `detail` says how."""

    interp: object
    kernel: object
    detail: str


@dataclass(frozen=True)
class Inconclusive:
    """A side ran out of fuel, so the two results cannot be compared."""

    side: str  # which side ran out of fuel: "interp", "kernel" or "both"


DiffOutcome = Union[Agree, Disagree, Inconclusive]


def _diff_full(
    genv: GlobalEnv,
    fuel: int,
    e: Expr,
    kenv: k.KernelEnv,
    trace: Optional[EnvTrace] = None,
) -> tuple[DiffOutcome, EvalResult]:
    ir = eval_expr(genv, fuel, (), e, trace)
    kr = k.cbv_eval(kenv, fuel, expr_to_term(genv, e))
    if isinstance(ir, NotEnoughFuel) or isinstance(kr, NotEnoughFuel):
        if isinstance(ir, NotEnoughFuel) and isinstance(kr, NotEnoughFuel):
            return Inconclusive("both"), ir
        return Inconclusive("interp" if isinstance(ir, NotEnoughFuel) else "kernel"), ir
    if isinstance(ir, EvalError) and isinstance(kr, EvalError):
        return Agree(None), ir
    if isinstance(ir, EvalError) or isinstance(kr, EvalError):
        side = "interpreter" if isinstance(ir, EvalError) else "kernel"
        return Disagree(ir, kr, f"only the {side} failed"), ir
    assert isinstance(ir, Ok) and isinstance(kr, Ok)
    shell = from_val(ir.value)
    if shell is None:
        return Disagree(ir, kr, "interpreter value does not read back"), ir
    it = expr_to_term(genv, shell)
    if it != kr.value:
        return (
            Disagree(ir, kr, f"result terms differ: {it!r} vs {kr.value!r}"),
            ir,
        )
    return Agree(it), ir


def diff_check(
    genv: GlobalEnv,
    fuel: int,
    e: Expr,
    kenv: Optional[k.KernelEnv] = None,
    trace: Optional[EnvTrace] = None,
) -> DiffOutcome:
    """Run `e` on both evaluators and compare."""
    if kenv is None:
        kenv = translate_env(genv)
    outcome, _ = _diff_full(genv, fuel, e, kenv, trace)
    return outcome


def subst_commutes(
    genv: GlobalEnv, rho_vals: Sequence[Val], e: Expr
) -> Optional[bool]:
    """Reading an environment back and substituting it syntactically must
    match substitution after translation. None when a component does not
    read back (the pair carries no evidence either way)."""
    substituted = close_env(rho_vals, e)
    if substituted is None:
        return None
    try:
        lhs = expr_to_term(genv, substituted)
        # each entry read back inside `close_env`; `from_val` answers from its cache
        entries = tuple(expr_to_term(genv, from_val(v)) for v in rho_vals)
        rhs = k.parallel_subst(entries, expr_to_term(genv, e))
    except TranslateError:
        return None
    return lhs == rhs


# ---------------------------------------------------------------------------
# expression generator

_INT = TInd("Int")
_NAT = TInd("Nat")
_BOOL = TInd("Bool")
_LIST_INT = ty_app(TInd("List"), _INT)

_ARITH = ("addInt", "subInt", "mulInt")
_CMP = ("ltInt", "leInt", "eqInt")


class _Gen:
    """Closed expressions over the prelude, by weighted templates. Every
    template is exhaustive in its matches and saturates nothing past its
    arity, so the only runtime failures left are fuel ones."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def flip(self, p: float) -> bool:
        return self.rng.random() < p

    # -- scalars

    def int_(self, size: int) -> Expr:
        if size <= 1:
            return Lit(PInt(self.rng.randint(-40, 40)))
        roll = self.rng.random()
        if roll < 0.30:
            f = self.rng.choice(_ARITH)
            return mk_app(Const(f), self.int_(size // 2), self.int_(size // 2))
        if roll < 0.38:
            return mk_app(Const("maxInt"), self.int_(size // 2), self.int_(size // 2))
        if roll < 0.48:
            return self.let_int(size)
        if roll < 0.56:
            return self.if_int(size)
        if roll < 0.64:
            return self.case_maybe_int(size)
        if roll < 0.72:
            return self.fold_sum(size)
        if roll < 0.78:
            return App(Const("sum_map"), self.map_(size - 1))
        if roll < 0.84:
            return self.fst_prod(size)
        if roll < 0.92:
            return self.apply_lam_int(size)
        return self.fix_sum_list(size)

    def nat_(self, size: int) -> Expr:
        if size <= 1:
            return Lit(PNat(self.rng.randint(0, 30)))
        roll = self.rng.random()
        if roll < 0.5:
            return mk_app(Const("addNat"), self.nat_(size // 2), self.nat_(size // 2))
        if roll < 0.7:
            return App(
                Const("cur_time"),
                App(Constr("SimpleChain", "MkSimpleChain"), self.nat_(size // 2)),
            )
        return Let("n", _NAT, self.nat_(size // 2), Var(0))

    def bool_(self, size: int) -> Expr:
        if size <= 1:
            return Constr("Bool", "True" if self.flip(0.5) else "False")
        roll = self.rng.random()
        if roll < 0.35:
            f = self.rng.choice(_CMP)
            return mk_app(Const(f), self.int_(size // 2), self.int_(size // 2))
        if roll < 0.55:
            f = self.rng.choice(("lebNat", "ltbNat", "eqbNat"))
            return mk_app(Const(f), self.nat_(size // 2), self.nat_(size // 2))
        if roll < 0.80:
            f = self.rng.choice(("and", "or"))
            return mk_app(Const(f), self.bool_(size // 2), self.bool_(size // 2))
        return App(Const("not"), self.bool_(size - 1))

    # -- structured data

    def maybe_int(self, size: int) -> Expr:
        roll = self.rng.random()
        if roll < 0.25:
            if self.flip(0.5):
                return Constr("Maybe", "Nothing")
            return App(Constr("Maybe", "Nothing"), TyAsExpr(_INT))
        if roll < 0.65:
            just = Constr("Maybe", "Just")
            if self.flip(0.5):
                return mk_app(just, TyAsExpr(_INT), self.int_(size - 1))
            return App(just, self.int_(size - 1))
        return mk_app(Const("mfind"), self.map_(size // 2), self.nat_(2))

    def list_int(self, size: int) -> Expr:
        if size > 3 and self.flip(0.25):
            half = size // 2
            return mk_app(
                Const("concat"),
                TyAsExpr(_INT),
                self.list_int(half),
                self.list_int(half),
            )
        n = self.rng.randint(0, max(1, size // 2))
        typed = self.flip(0.5)
        nil = Constr("List", "Nil")
        acc: Expr = App(nil, TyAsExpr(_INT)) if typed else nil
        for _ in range(n):
            h = Lit(PInt(self.rng.randint(-20, 20)))
            if typed:
                acc = mk_app(Constr("List", "Cons"), TyAsExpr(_INT), h, acc)
            else:
                acc = mk_app(Constr("List", "Cons"), h, acc)
        return acc

    def map_(self, size: int) -> Expr:
        n = self.rng.randint(0, max(1, size // 3))
        typed = self.flip(0.4)
        nil = Constr("AcornMap", "MNil")
        acc: Expr = mk_app(nil, TyAsExpr(_NAT), TyAsExpr(_INT)) if typed else nil
        for _ in range(n):
            key = Lit(PNat(self.rng.randint(0, 6)))  # small range, collisions wanted
            val = Lit(PInt(self.rng.randint(-15, 15)))
            if self.flip(0.3):
                acc = mk_app(Const("madd"), key, val, acc)
            else:
                acc = mk_app(Constr("AcornMap", "MCons"), key, val, acc)
        if n > 0 and self.flip(0.2):
            acc = mk_app(Const("mdel"), Lit(PNat(self.rng.randint(0, 6))), acc)
        return acc

    def prod_ib(self, size: int) -> Expr:
        pair = Constr("Prod", "Pair")
        if self.flip(0.5):
            return mk_app(
                pair, TyAsExpr(_INT), TyAsExpr(_BOOL),
                self.int_(size // 2), self.bool_(size // 2),
            )
        return mk_app(pair, self.int_(size // 2), self.bool_(size // 2))

    # -- int-typed composite templates

    def let_int(self, size: int) -> Expr:
        bound = self.int_(size // 2)
        body: Expr
        if self.flip(0.5):
            body = mk_app(Const("addInt"), Var(0), Var(0))
        else:
            body = mk_app(Const(self.rng.choice(_ARITH)), Var(0), self.int_(size // 3))
        return Let("v", _INT, bound, body)

    def if_int(self, size: int) -> Expr:
        branches = [
            (Pat("True"), self.int_(size // 2)),
            (Pat("False"), self.int_(size // 2)),
        ]
        if self.flip(0.3):
            branches.reverse()  # the interpreter matches by name, not order
        return Case(self.bool_(size // 2), "Bool", (), _INT, tuple(branches))

    def case_maybe_int(self, size: int) -> Expr:
        just_body: Expr = Var(0)
        if self.flip(0.5):
            just_body = mk_app(Const("addInt"), Var(0), self.int_(2))
        branches = [
            (Pat("Nothing", ()), self.int_(size // 3)),
            (Pat("Just", ("v",)), just_body),
        ]
        if self.flip(0.3):
            branches.reverse()
        return Case(
            self.maybe_int(size // 2), "Maybe", (_INT,), _INT, tuple(branches)
        )

    def fold_sum(self, size: int) -> Expr:
        f = Const(self.rng.choice(("addInt", "maxInt")))
        return mk_app(
            Const("foldr"),
            TyAsExpr(_INT),
            TyAsExpr(_INT),
            f,
            self.int_(2),
            self.list_int(size - 2),
        )

    def fst_prod(self, size: int) -> Expr:
        # inside the branch: a = Var(1), b = Var(0)
        body: Expr = Var(1)
        if self.flip(0.5):
            # project the bool instead and select an int with it
            body = Case(
                Var(0), "Bool", (), _INT,
                ((Pat("True"), Var(1)), (Pat("False"), self.int_(2))),
            )
        return Case(
            self.prod_ib(size // 2), "Prod", (_INT, _BOOL), _INT,
            ((Pat("Pair", ("a", "b")), body),),
        )

    def apply_lam_int(self, size: int) -> Expr:
        if self.flip(0.3):
            # route through the polymorphic identity
            poly_id = TyLam("A", Lam("x", TVar(0), Var(0)))
            return App(App(poly_id, TyAsExpr(_INT)), self.int_(size // 2))
        body = mk_app(Const(self.rng.choice(_ARITH)), Var(0), self.int_(size // 3))
        return App(Lam("x", _INT, body), self.int_(size // 2))

    def fix_sum_list(self, size: int) -> Expr:
        # fix rec (l : List Int) : Int = case l of Nil -> i | Cons h t -> h + rec t
        init = self.int_(2)
        body = Case(
            Var(0),
            "List",
            (_INT,),
            _INT,
            (
                (Pat("Nil", ()), init),
                (Pat("Cons", ("h", "t")),
                 mk_app(Const("addInt"), Var(1), App(Var(3), Var(0)))),
            ),
        )
        f = Fix("rec", "l", _LIST_INT, _INT, body)
        return App(f, self.list_int(size - 2))

    # -- closures, for readback coverage

    def closure(self, size: int) -> Expr:
        roll = self.rng.random()
        if roll < 0.3:
            return App(Const("addInt"), self.int_(size // 2))
        if roll < 0.5:
            return Lam(
                "x", _INT, mk_app(Const(self.rng.choice(_ARITH)), Var(0), self.int_(size // 2))
            )
        if roll < 0.65:
            return TyLam("A", Lam("x", TVar(0), Var(0)))
        if roll < 0.85:
            # a let-captured constant inside the closure body
            return Let(
                "c", _INT, self.int_(size // 2),
                Lam("x", _INT, mk_app(Const("addInt"), Var(0), Var(1))),
            )
        return mk_app(
            Const("foldr"), TyAsExpr(_INT), TyAsExpr(_INT), Const("addInt"), self.int_(2)
        )

    def top(self, size: int) -> Expr:
        roll = self.rng.random()
        if roll < 0.42:
            return self.int_(size)
        if roll < 0.54:
            return self.bool_(size)
        if roll < 0.62:
            return self.nat_(size)
        if roll < 0.72:
            return self.maybe_int(size)
        if roll < 0.80:
            return self.list_int(size)
        if roll < 0.86:
            return self.map_(size)
        if roll < 0.92:
            return self.prod_ib(size)
        return self.closure(size)


def gen_expr(rng: random.Random, size: int = 12) -> Expr:
    return _Gen(rng).top(size)


# ---------------------------------------------------------------------------
# corpus runner

_TRACE_LIMIT_PER_DEF = 40


@dataclass
class Report:
    """The counts and per-definition rows of a `run_corpus` check."""

    source: str
    fuel: int
    gen_count: int
    seed: int
    rows: list[tuple[str, str]]
    agree: int = 0
    agree_err: int = 0
    disagree: int = 0
    inconclusive: int = 0
    subst_checked: int = 0
    subst_failed: int = 0
    readback_checked: int = 0
    readback_failed: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.disagree == 0
            and self.inconclusive == 0
            and self.subst_failed == 0
            and self.readback_failed == 0
        )

    def render(self) -> str:
        lines = [
            "diff-eval report",
            f"source: {self.source}",
            f"fuel: {self.fuel}",
            f"generated: {self.gen_count} (seed {self.seed})",
        ]
        lines.extend(f"{name}: {status}" for name, status in self.rows)
        lines.append(f"agreements: {self.agree} ({self.agree_err} with errors on both sides)")
        lines.append(f"disagreements: {self.disagree}")
        lines.append(f"inconclusive: {self.inconclusive}")
        lines.append(
            f"subst-commutation pairs: checked={self.subst_checked} failed={self.subst_failed}"
        )
        lines.append(
            f"value readback: checked={self.readback_checked} failed={self.readback_failed}"
        )
        return "\n".join(lines) + "\n"


def corpus_files(path: Path) -> list[Path]:
    """Module files under `path`, sorted by name. Files prefixed `bad-` hold
    deliberately broken sources and are left out."""
    files = [
        p
        for p in sorted(path.iterdir())
        if p.suffix in (".acorn", ".json") and not p.name.startswith("bad-")
    ]
    return files


def _tally(report: Report, name: str, outcome: DiffOutcome) -> None:
    match outcome:
        case Agree(None):
            report.agree += 1
            report.agree_err += 1
            report.rows.append((name, "agree (both err)"))
        case Agree(_):
            report.agree += 1
            report.rows.append((name, "agree"))
        case Disagree(_, _, detail):
            report.disagree += 1
            report.rows.append((name, f"DISAGREE: {detail}"))
        case Inconclusive(side):
            report.inconclusive += 1
            report.rows.append((name, f"INCONCLUSIVE: out of fuel ({side})"))


def _check_one(
    report: Report,
    genv: GlobalEnv,
    kenv: k.KernelEnv,
    fuel: int,
    name: str,
    e: Expr,
) -> None:
    trace = EnvTrace(_TRACE_LIMIT_PER_DEF)
    outcome, ir = _diff_full(genv, fuel, e, kenv, trace)
    _tally(report, name, outcome)
    if isinstance(ir, Ok):
        report.readback_checked += 1
        if not wf_val(genv, ir.value) or from_val(ir.value) is None:
            report.readback_failed += 1
    for rho, body in trace.pairs:
        verdict = subst_commutes(genv, rho, body)
        if verdict is None:
            continue
        report.subst_checked += 1
        if not verdict:
            report.subst_failed += 1


def run_corpus(
    path: Union[str, Path],
    fuel: int = 10_000,
    gen_count: int = 0,
    seed: int = 7,
    size: int = 12,
) -> Report:
    """Differentially evaluate every definition of every module under `path`,
    plus `gen_count` generated expressions over the prelude. The rendered
    report is deterministic for fixed inputs."""
    from .programs import load_module, stdlib_env

    path = Path(path)
    report = Report(str(path), fuel, gen_count, seed, rows=[])
    for f in corpus_files(path):
        genv, defs = load_module(str(f))
        kenv = translate_env(genv)
        for def_name, body in defs:
            _check_one(report, genv, kenv, fuel, f"{f.name}:{def_name}", body)
    if gen_count > 0:
        genv = stdlib_env()
        kenv = translate_env(genv)
        rng = random.Random(seed)
        for i in range(gen_count):
            e = gen_expr(rng, size)
            _check_one(report, genv, kenv, fuel, f"gen[{i}]", e)
    return report
