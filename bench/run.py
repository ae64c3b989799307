"""acorncore benchmark: one workload, one seed, one mode.

    python3 bench/run.py --workload diffeval --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the benchmark imports acorncore from
the checkout's `src/` and needs nothing installed. `--trace 0` measures the
end-to-end metrics with tracing off. `--trace 1` runs the workload untraced
for half of `--seconds`, then runs the same operations again with every layer
probed, and reports the per-layer metrics and the tracing overhead. Human
readable lines come first; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
Times are scaled to a reference host speed (see bench/speed.py).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from layers import PER_LAYER, PROBES, per_layer
from layertrace import Tracer
from speed import around
from workloads import WORKLOADS, Pass, min_samples, percentile, run_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seeds reserved for confirming a claim after the change is written: never
# use them while developing or tuning the change.
HELD_OUT_SEEDS = {"diffeval": 104729, "chain": 104723, "deepfold": 104717}

SETUP_REPS = 11

END_TO_END = [
    ("setup_s", "s"),
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

SUBMODULES = (
    "lang", "interp", "kernel", "translate", "parser", "serialize",
    "programs", "soundness", "chainsim",
)


@dataclass
class World:
    """One fresh import of acorncore and what set-up loaded with it."""

    modules: dict[str, Any]
    stdlib: Any
    stdlib_kenv: Any

    def __getattr__(self, name: str) -> Any:
        try:
            return self.modules[name]
        except KeyError:
            raise AttributeError(name) from None


def load_world(tracer: Tracer | None = None) -> tuple[World, float]:
    """Import acorncore afresh, then parse the prelude, load every corpus
    module and contract, and translate their environments: what a fresh
    `acorn` process pays before its first check. Returns the world and the
    seconds it took. With a tracer, the loading after the import is traced."""
    for name in [n for n in sys.modules if n == "acorncore" or n.startswith("acorncore.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pkg = importlib.import_module("acorncore")
    modules = {m: importlib.import_module(f"acorncore.{m}") for m in SUBMODULES}
    if Path(pkg.__file__).resolve().parent != SRC / "acorncore":
        raise RuntimeError(f"imported acorncore from {pkg.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
        tracer.begin_op("setup")
    p, s, t = modules["programs"], modules["soundness"], modules["translate"]
    stdlib = p.stdlib_env()
    for f in s.corpus_files(p.corpus_dir()):
        genv, _ = p.load_module(str(f))
        t.translate_env(genv)
    for name in p.CONTRACTS:
        p.contract(name)
    stdlib_kenv = t.translate_env(stdlib)
    if tracer is not None:
        tracer.end_op()
    return World(modules, stdlib, stdlib_kenv), time.perf_counter() - t0


def run_context(workload: str, seed: int, held_out: bool) -> dict:
    lines = {
        f.name: len(f.read_text().splitlines())
        for f in sorted((SRC / "acorncore").glob("*.py"))
    }
    return {
        "workload": workload,
        "seed": seed,
        "held_out": held_out,
        "python": platform.python_version(),
        "recursion_limit": sys.getrecursionlimit(),
        "nproc": len(os.sched_getaffinity(0)),
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
    }


def _print_failures(passes: list[Pass], gate: list[str]) -> None:
    shown: set[str] = set()
    for p in passes:
        for kind, first in p.first_failure.items():
            if kind not in shown:
                shown.add(kind)
                print(f"first {kind} failure: {first[:300]}")
    for msg in gate:
        print(f"gate failure: {msg}")


def block_rates(p: Pass) -> tuple[int, float, float]:
    """Chain trace steps, and steps per second of generation and of
    verification (`final_state` plus the invariants); zeros elsewhere."""
    steps = p.stats["steps"]
    if not steps:
        return 0, 0.0, 0.0
    return steps, steps / p.stats["gen_s"], steps / p.stats["verify_s"]


def end_to_end(wl: Any, p: Pass, setup_times: list[float], peak_rss_b: int) -> dict[str, float]:
    ok = p.ok_latencies
    return {
        "setup_s": statistics.median(setup_times),
        "checks_per_s": len(ok) / p.elapsed_s,
        "check_p50_ms": percentile(ok, 0.5) * 1e3,
        "check_tail_ms": percentile(ok, wl.tail_q) * 1e3,
        "peak_rss_mb": peak_rss_b / 1e6,
    }


def traced_metrics(make: Any, seed: int, seconds: float, world: World) -> tuple:
    """Untraced pass, then the same rounds traced; per-layer metrics."""
    wl = make(world, seed)
    plain = run_pass(wl, seconds / 2)
    gate_checks, gate = wl.final_check()
    tracer = Tracer(PROBES)
    try:
        (tworld, _), setup_factor = around(lambda: load_world(tracer))
        traced = run_pass(make(tworld, seed), 0, rounds=plain.rounds, tracer=tracer)
        tracer.flush()
    finally:
        tracer.uninstall()
    _, gen_rate, verify_rate = block_rates(plain)
    metrics = per_layer(
        tracer,
        n_ops=traced.n_ops,
        trace_steps=block_rates(traced)[0],
        untraced_op_s=plain.op_s,
        traced_op_s=traced.op_s,
        gen_blocks_per_s=gen_rate,
        verify_blocks_per_s=verify_rate,
    )
    # the tracer's spans are wall-clock: scale the set-up layers by the factor
    # around the traced set-up, and the per-operation ones by the traced
    # pass's mean factor
    op_factor = traced.op_s / traced.raw_op_s
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, unit in units.items():
        if unit == "s":
            metrics[name] *= setup_factor
        elif unit == "s/op":
            metrics[name] *= op_factor
    metrics["parser.tokens_per_s"] /= setup_factor
    print(f"traced {traced.n_ops} operations in {plain.rounds} rounds; "
          f"re-entries through stale references: {sum(tracer.reentries.values())}")
    return [plain, traced], gate_checks, gate, metrics, units


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--held-out", action="store_true",
        help="use the workload's held-out seed instead of --seed",
    )
    args = ap.parse_args(argv)
    if not (SRC / "acorncore" / "__init__.py").is_file():
        print(f"error: no acorncore sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # cache acorncore's bytecode in the checkout, as an installed package has
    # it, so that set-up measures loading rather than compiling
    sys.dont_write_bytecode = False
    seed = HELD_OUT_SEEDS[args.workload] if args.held_out else args.seed
    make = WORKLOADS[args.workload]
    context = run_context(args.workload, seed, args.held_out)
    print("context: " + json.dumps(context, sort_keys=True))

    if args.trace:
        world, _ = load_world()
        passes, gate_checks, gate, metrics, units = traced_metrics(make, seed, args.seconds, world)
    else:
        world, _ = load_world()  # compiles bytecode on a fresh checkout; not timed
        wl = make(world, seed)
        p = run_pass(wl, args.seconds, min_ok=min_samples(wl.tail_q), min_rounds=wl.min_rounds)
        # peak memory of the workload: read before the after-run checks, and
        # before the timed set-ups, each of which raises the high-water mark
        # by the imports it leaves behind
        peak_rss_b = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        gate_checks, gate = wl.final_check()
        setup_times = []
        for _ in range(SETUP_REPS):
            gc.collect()
            (_, dt), factor = around(load_world)
            setup_times.append(dt * factor)
        passes = [p]
        metrics = end_to_end(wl, p, setup_times, peak_rss_b)
        units = dict(END_TO_END)
        print(f"{p.n_ops} operations in {p.rounds} rounds, {p.raw_elapsed_s:.2f} s "
              f"({p.elapsed_s:.2f} s at the reference speed); tail is p{wl.tail_q * 100:g}")

    attempted = sum(p.n_ops for p in passes) + gate_checks
    kinds = sum((p.failures for p in passes), Counter())
    failed = sum(kinds.values()) + len(gate)
    probes = sorted(x for p in passes for x in p.probe_s)
    print(f"speed probe: median {statistics.median(probes) * 1e3:.4g} ms, "
          f"from {probes[0] * 1e3:.4g} to {probes[-1] * 1e3:.4g} ms over {len(probes)} probes")
    _print_failures(passes, gate)
    # RecursionError is the known depth defect: a failed operation, not a
    # wrong answer. Any other failure means an output was wrong.
    correct = not gate and not kinds.get("wrong") and not kinds.get("crash")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted}; by kind {dict(kinds)})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
