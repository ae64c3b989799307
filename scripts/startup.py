"""Time a fresh start of acorncore in one or more checkouts.

Two things are timed, each in a new interpreter process per sample:

- `import`: `import acorncore.cli`, from the checkout's `src`;
- `load_world`: the set-up `bench/run.py::load_world` performs, a fresh
  import of every submodule, then parsing the prelude, the corpus and the
  contracts and translating their environments. As in `bench/run.py`, a
  first untimed `load_world` compiles the bytecode and imports what the
  package needs from the standard library, and the second one is timed.

Before sampling, each checkout runs both probes once untimed, so that its
bytecode is cached as an installed package has it. Then the samples go
round the checkouts in turn, the first checkout of each round moving by one,
so that a slow stretch of a shared host falls on every checkout alike.
Times are wall-clock seconds, not scaled to a reference speed as the
benchmark's are. It prints one row per checkout and probe with the median
and the interquartile range, then one JSON object with every sample.
Standard library only; it is not part of the test suite.

    python3 scripts/startup.py --runs 10 . ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBES = {
    "import": """
import time
t0 = time.perf_counter()
import acorncore.cli
print(time.perf_counter() - t0)
""",
    "load_world": """
import sys
sys.path.insert(0, "bench")
import run
run.load_world()
print(run.load_world()[1])
""",
}


def sample(checkout: Path, probe: str) -> float:
    """One probe's seconds, from a new process run in `checkout`."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    out = subprocess.run(
        [sys.executable, "-c", PROBES[probe]],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(out.stdout.strip().rpartition("\n")[2])


def quartiles(xs: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path, default=[ROOT])
    ap.add_argument("--runs", type=int, default=10, help="samples per checkout and probe")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    checkouts = [c.resolve() for c in args.checkouts]
    for c in checkouts:
        if not (c / "src" / "acorncore").is_dir() or not (c / "bench" / "run.py").is_file():
            ap.error(f"{c} is not a checkout of acorncore")
        for probe in PROBES:
            sample(c, probe)
    times: dict[str, dict[str, list[float]]] = {
        str(c): {p: [] for p in PROBES} for c in checkouts
    }
    for i in range(args.runs):
        for c in checkouts[i % len(checkouts):] + checkouts[: i % len(checkouts)]:
            for probe in PROBES:
                times[str(c)][probe].append(sample(c, probe))
    summary = {}
    for c, by_probe in times.items():
        summary[c] = {}
        for probe, xs in by_probe.items():
            q1, q3 = quartiles(xs)
            median = statistics.median(xs)
            summary[c][probe] = {"median_s": round(median, 6), "iqr_s": round(q3 - q1, 6)}
            print(f"{probe:<10}  median {median * 1e3:7.1f} ms  "
                  f"IQR {(q3 - q1) * 1e3:5.1f} ms  n={len(xs)}  {c}")
    print(json.dumps({"runs": args.runs, "summary": summary, "samples": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
