"""The benchmark's workloads and the loop that measures them.

A workload turns a seed into rounds of operations. An operation is one
program's full differential check (`diffeval`, `deepfold`) or one chain trace
carried from seed to verdict (`chain`). Each operation has a `run` step, which
is timed, and a `check` step, which compares the output with the answer the
benchmark expects, and is not timed.
"""

from __future__ import annotations

import math
import operator
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from speed import Scale, probe_s

FUEL = 10_000

# A run never measures longer than this, even when the tail percentile still
# lacks samples; the run then fails instead of reporting a percentile that
# its samples cannot support.
CAP_S = 120.0


class WrongAnswer(Exception):
    """The program's output differs from the answer the benchmark expects."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[dict]]  # raises WrongAnswer; may return stats


def derive_seed(workload: str, seed: int, *parts: object) -> int:
    """A per-round seed; string seeding of `random.Random` is stable across
    processes."""
    return random.Random(":".join(map(str, (workload, seed) + parts))).randrange(2**31)


# ---------------------------------------------------------------------------
# diffeval


class DiffEval:
    """The packaged corpus plus generated programs, each through the full
    `run_corpus` check. A round is one `acorn diff-eval --gen <gen_count>`:
    it reloads and translates the corpus as `run_corpus` does, and its
    report must render byte-identically to `run_corpus` for the same seed.
    Each round's `Report.ok` is checked when the round ends; only round 0's
    report is kept, for that comparison, so memory does not grow with the
    number of rounds a run completes."""

    name = "diffeval"
    tail_q = 0.99
    # Its median sits where the latency distribution is steep, so it moves
    # with each seed's share of cheap programs. Over ten seeds, runs of
    # mostly three rounds spread it by 0.086 of its value (IQR over median),
    # runs of four or five by 0.067; on a fast host 20 s hold only three.
    min_rounds = 4
    _FAILS = ("disagree", "inconclusive", "subst_failed", "readback_failed")

    def __init__(self, world: Any, seed: int, gen_count: int = 1000, size: int = 12):
        self.w = world
        self.seed = seed
        self.gen_count = gen_count
        self.size = size
        self.first: Any = None  # round 0's report
        self.rounds_done = 0
        self.round_failures: list[str] = []

    def round(self, r: int) -> Iterator[Op]:
        s, p, t = self.w.soundness, self.w.programs, self.w.translate
        gen_seed = derive_seed(self.name, self.seed, r)
        corpus = p.corpus_dir()
        report = s.Report(str(corpus), FUEL, self.gen_count, gen_seed, rows=[])
        if r == 0:
            self.first = report
        for f in s.corpus_files(corpus):
            genv, defs = p.load_module(str(f))
            kenv = t.translate_env(genv)
            for def_name, body in defs:
                yield self._op(report, genv, kenv, f"{f.name}:{def_name}", body)
        genv = p.stdlib_env()
        kenv = t.translate_env(genv)
        rng = random.Random(gen_seed)
        for i in range(self.gen_count):
            e = s.gen_expr(rng, self.size)
            yield self._op(report, genv, kenv, f"gen[{i}]", e)
        # reached once the round's last operation has run
        self.rounds_done += 1
        if not report.ok:
            self.round_failures.append(f"round {r}: report not ok")

    def _op(self, report: Any, genv: Any, kenv: Any, name: str, e: Any) -> Op:
        before = [getattr(report, k) for k in self._FAILS]

        def run() -> None:
            self.w.soundness._check_one(report, genv, kenv, FUEL, name, e)

        def check(_: None) -> None:
            if [getattr(report, k) for k in self._FAILS] != before:
                raise WrongAnswer(f"{name}: {report.rows[-1][1]}")

        return Op(name, run, check)

    def final_check(self) -> tuple[int, list[str]]:
        """Report.ok for every round, and round 0 rendered byte-identically by
        `run_corpus` itself. Returns the number of checks and the failures."""
        failures = list(self.round_failures)
        first = self.first
        again = self.w.soundness.run_corpus(
            self.w.programs.corpus_dir(), fuel=FUEL, gen_count=self.gen_count,
            seed=first.seed, size=self.size,
        )
        if again.render().encode("utf-8") != first.render().encode("utf-8"):
            failures.append("round 0: report differs from run_corpus for the same seed")
        return self.rounds_done + 1, failures


# ---------------------------------------------------------------------------
# chain


def first_accepted_donation(trace: Any) -> Optional[int]:
    for i, step in enumerate(trace.steps):
        if step.accepted and any(
            getattr(getattr(a, "msg", None), "ctor", None) == "Donate" for a in step.actions
        ):
            return i
    return None


class Chain:
    """Seeded crowdfunding traces, each through what `acorn chain` does:
    `gen_trace`, `final_state`, then `check_invariant` per invariant. Traces
    are 20 blocks long, as in the acceptance tests' chain runs; at 12 blocks,
    `acorn chain`'s default, no Claim or GetFunds is ever accepted, so the
    contract's later phases would go unmeasured. A round is one trace of the
    clean contract and one of the over-recording mutant, from independent
    trace seeds."""

    name = "chain"
    tail_q = 0.9
    min_rounds = 1
    CONTRACTS = ("crowdfunding", "crowdfunding_overrecord")

    def __init__(self, world: Any, seed: int, blocks: int = 20):
        self.w = world
        self.seed = seed
        self.blocks = blocks

    def round(self, r: int) -> Iterator[Op]:
        for contract in self.CONTRACTS:
            yield self._op(derive_seed(self.name, self.seed, r, contract), contract)

    def _op(self, trace_seed: int, contract: str) -> Op:
        c = self.w.chainsim
        mutant = contract != "crowdfunding"

        def run() -> tuple:
            t0 = time.perf_counter()
            trace = c.gen_trace(trace_seed, self.blocks, c.crowdfunding_scenario(name=contract))
            t1 = time.perf_counter()
            c.final_state(trace)
            found = {name: c.check_invariant(trace, inv) for name, inv in c.INVARIANTS.items()}
            return trace, found, t1 - t0, time.perf_counter() - t1

        def check(out: tuple) -> dict:
            trace, found, gen_s, verify_s = out
            want = {name: None for name in c.INVARIANTS}
            if mutant:
                # the doubled ledger entry must surface in the block that wrote it
                want["cf_balance_consistent"] = first_accepted_donation(trace)
            got = {name: v.block_index if v else None for name, v in found.items()}
            if got != want:
                raise WrongAnswer(f"{contract} seed {trace_seed}: violations {got}, want {want}")
            return {"steps": len(trace.steps), "gen_s": gen_s, "verify_s": verify_s}

        return Op(f"{contract}[{trace_seed}]", run, check)

    def final_check(self) -> tuple[int, list[str]]:
        return 0, []


# ---------------------------------------------------------------------------
# deepfold


class DeepFold:
    """`foldr` over integer lists, plain or over `concat`, each through
    `diff_check` and compared with `native_foldr`. Kernel evaluation of a
    fold is quadratic in the list's length, so a round holds a fixed number
    of lists from each length band, with lengths spread evenly over the band
    from a seeded offset; that keeps a round's cost steady across seeds. Only
    the short band mixes in `concat`, so the cost within each longer band is
    homogeneous. Each percentile falls inside such a band, where samples of
    near-equal cost keep it steady: the p50 among the ten lists of 36-39
    elements per round, the p90 among the eight of 100-123. A p50 inside the
    short band would sit where cost climbs steeply with length, and moves by
    a fifth between seeds there.
    The fold functions differ in cost (`maxInt` takes about a third longer
    than `addInt`), so a band names the functions it cycles through, in a
    fixed order that gives every round the same mix at the same places;
    drawn at random, they would move the percentiles from seed to seed. The
    p90 band folds `addInt` only: with all three, the p90 fell on the edge
    between its `maxInt` lists and the rest, and jumped across it.
    The last band lies past the depth at which both evaluators raise
    RecursionError at Python's default recursion limit; those operations
    fail."""

    name = "deepfold"
    tail_q = 0.9
    min_rounds = 1
    FOLDS = {"addInt": operator.add, "maxInt": max, "subInt": operator.sub}
    # (lists per round, shortest, longest + 1, fold functions in turn,
    # alternate plain and concat). The peak memory of a run is set by its
    # longest passing list, so that band is narrow.
    BANDS = (
        (10, 1, 30, tuple(FOLDS), True),
        (10, 36, 40, tuple(FOLDS), False),
        (8, 100, 124, ("addInt",), False),
        (1, 200, 212, ("addInt",), False),
        (1, 260, 320, ("addInt",), False),
    )

    def __init__(self, world: Any, seed: int, bands: tuple = BANDS):
        self.w = world
        self.seed = seed
        self.bands = bands

    def round(self, r: int) -> Iterator[Op]:
        rng = random.Random(derive_seed(self.name, self.seed, r))
        plan = []
        for count, lo, hi, folds, mixed in self.bands:
            offset = rng.random()
            for i in range(count):
                length = lo + int((i + offset) * (hi - lo) / count)
                plan.append((length, mixed and i % 2 == 1, folds[i % len(folds)]))
        rng.shuffle(plan)
        for length, concat, f_name in plan:
            init = rng.randint(-40, 40)
            xs = [rng.randint(-50, 50) for _ in range(length)]
            cut = rng.randint(0, length) if concat else None
            yield self._op(f_name, init, xs, cut)

    def _op(self, f_name: str, init: int, xs: list[int], cut: Optional[int]) -> Op:
        w = self.w
        L = w.lang
        int_ty = L.TyAsExpr(L.TInd("Int"))
        if cut is None:
            lst = w.programs.int_list_expr(xs)
        else:
            lst = L.mk_app(
                L.Const("concat"), int_ty,
                w.programs.int_list_expr(xs[:cut]), w.programs.int_list_expr(xs[cut:]),
            )
        e = L.mk_app(L.Const("foldr"), int_ty, int_ty, L.Const(f_name), L.Lit(L.PInt(init)), lst)
        want = w.kernel.PrimLit(L.PInt(w.programs.native_foldr(self.FOLDS[f_name], init, xs)))
        name = f"{'concat' if cut is not None else 'plain'}[{len(xs)}] {f_name}"

        def run() -> Any:
            return w.soundness.diff_check(w.stdlib, FUEL, e, w.stdlib_kenv)

        def check(outcome: Any) -> None:
            if not isinstance(outcome, w.soundness.Agree) or outcome.term != want:
                raise WrongAnswer(f"{name}: {outcome!r}, want {want!r}")

        return Op(name, run, check)

    def final_check(self) -> tuple[int, list[str]]:
        return 0, []


WORKLOADS = {w.name: w for w in (DiffEval, Chain, DeepFold)}


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Pass:
    """What a run of operations leaves: aggregates only, so that its memory
    does not grow with the number of operations. Times are scaled to the
    reference speed of `speed.py`, except those named `raw_`."""

    ok_latencies: array = field(default_factory=lambda: array("d"))  # s, passed ops
    op_s: float = 0.0  # summed latency of every operation
    raw_op_s: float = 0.0  # the same, in wall-clock seconds
    n_ops: int = 0
    failures: Counter = field(default_factory=Counter)  # "depth", "wrong" or "crash"
    first_failure: dict = field(default_factory=dict)  # kind -> "<op>: <detail>"
    stats: Counter = field(default_factory=Counter)  # sums of what the checks return
    elapsed_s: float = 0.0
    raw_elapsed_s: float = 0.0
    rounds: int = 0
    probe_s: list = field(default_factory=list)  # the speed probe's times

    def add(self, name: str, latency: float, failure: Optional[str], detail: str,
            stats: Optional[dict], factor: float) -> None:
        """Records one operation; `factor` scales its wall-clock times, the
        latency and every stat named `*_s`, to the reference speed."""
        self.n_ops += 1
        self.raw_op_s += latency
        self.op_s += latency * factor
        if failure is None:
            self.ok_latencies.append(latency * factor)
            self.stats.update({k: v * factor if k.endswith("_s") else v
                               for k, v in (stats or {}).items()})
        else:
            self.failures[failure] += 1
            self.first_failure.setdefault(failure, f"{name}: {detail}")


def run_pass(
    workload: Any,
    seconds: float,
    min_ok: int = 0,
    min_rounds: int = 1,
    rounds: Optional[int] = None,
    tracer: Any = None,
    probe: Callable[[], float] = probe_s,
) -> Pass:
    """Run whole rounds, at least one, until `seconds` of wall-clock time have
    passed, `min_ok` operations succeeded and `min_rounds` rounds ran (or
    CAP_S has passed), or exactly `rounds` rounds when given.
    One thread, closed loop: each operation starts when the last one ends.
    Between operations, about every EVERY_S seconds and at the end of each
    round, the host's speed is probed and the operations since the last probe
    are recorded with their times scaled to the reference speed."""
    p = Pass()
    r = 0
    scale = Scale(probe)
    pending: list[tuple] = []

    def settle() -> None:
        lap_s, factor = scale.lap()
        p.raw_elapsed_s += lap_s
        p.elapsed_s += lap_s * factor
        for item in pending:
            p.add(*item, factor)
        pending.clear()

    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if rounds is not None:
            if r == rounds:
                break
        elif r > 0 and (elapsed >= CAP_S or (
            elapsed >= seconds and len(p.ok_latencies) >= min_ok and r >= min_rounds
        )):
            break
        for op in workload.round(r):
            if tracer is not None:
                tracer.begin_op(p.n_ops + len(pending))
            failure, detail, out = None, "", None
            a = time.perf_counter()
            try:
                out = op.run()
            except RecursionError as err:
                failure, detail = "depth", f"RecursionError: {err}"
            except Exception as err:  # the run keeps going and reports the crash
                failure, detail = "crash", f"{type(err).__name__}: {err}"
            latency = time.perf_counter() - a
            if tracer is not None:
                tracer.end_op()
            stats = None
            if failure is None:
                try:
                    stats = op.check(out)
                except WrongAnswer as err:
                    failure, detail = "wrong", str(err)
            pending.append((op.name, latency, failure, detail, stats))
            if scale.due():
                settle()
        if pending:
            settle()
        r += 1
    p.rounds = r
    p.probe_s = scale.probes
    return p


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile `q` (0 < q < 1). Refuses a rank that has fewer
    than ten samples above it, since such a tail rests on too few points."""
    n = len(samples)
    rank = math.ceil(round(q * n, 9))
    if rank < 1 or n - rank < 10:
        raise ValueError(f"p{q * 100:g} needs 10 samples beyond it; {n} samples give {n - rank}")
    return sorted(samples)[rank - 1]


def min_samples(q: float) -> int:
    """The fewest samples for which `percentile(samples, q)` is defined."""
    n = 1
    while n - math.ceil(round(q * n, 9)) < 10:
        n += 1
    return n
