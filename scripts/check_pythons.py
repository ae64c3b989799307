"""Check the golden reports, the evaluators' depth, the intern table and
Tier-1 on every installed Python.

For each of `python3.10` to `python3.13` that runs from `PATH`, one after
another, this script

- runs the golden commands (`CASES` in `tests/pinned.py`, which
  `tests/test_golden.py` runs too) as `python -m acorncore.cli` with this
  checkout's `src` and `tests` on `PYTHONPATH`, and `scripts/fuel_table.py`,
  and compares each output with its file in `tests/golden/` byte for byte;
- runs the depth probe of
  `tests/test_soundness.py::test_first_recursion_error_of_a_deep_fold_stays_put`
  (`first_recursion_error` in `tests/pinned.py`): the shortest `foldr addInt`
  list whose `diff_check` raises `RecursionError`, read in a new thread at
  the default recursion limit, which should be the version's entry in
  `FIRST_RECURSION_ERRORS`;
- runs the printer probe of
  `tests/test_soundness.py::test_first_recursion_error_of_the_printers_stays_put`
  (`first_printer_recursion_error` in `tests/pinned.py`): the shortest `Int`
  list that `pretty_expr` or `pretty_term` cannot print, read the same way,
  which should be the version's entry in `FIRST_PRINTER_RECURSION_ERRORS`;
- runs the intern probe of
  `tests/test_intern.py::test_a_collection_leaves_no_node_that_only_the_table_holds`
  (`intern_probe` in `tests/pinned.py`): after a `diff-eval` run and
  `gc.collect()`, the intern table should hold no node that only it holds,
  and no two live nodes should be structurally equal. The sweep that keeps
  the table small leans on CPython's `sys.getrefcount` and `gc.callbacks`,
  so it is checked on each version;
- runs Tier-1 (`python -m pytest -q`) with the pytest of the interpreter
  that runs this script: its `site-packages` goes on `PYTHONPATH` after
  this checkout's `src`, and `PYTEST_DISABLE_PLUGIN_AUTOLOAD=1` keeps
  plugins built for that interpreter out. The row shows the passed, failed
  and skipped counts, and `tier1 n/a` where the borrowed pytest does not
  import (3.10 lacks `exceptiongroup`), which is not a mismatch.

It prints one row per interpreter and exits 1 on any mismatch, or when no
interpreter ran. Standard library only; it is not part of the test suite.

    python3 scripts/check_pythons.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
GOLDEN = TESTS / "golden"
INTERPRETERS = ("python3.10", "python3.11", "python3.12", "python3.13")
TIMEOUT_S = 600

# this checkout's package and the test helpers the commands come from
SEARCH_PATH = [str(ROOT / "src"), str(TESTS)]
sys.path[:0] = SEARCH_PATH
from pinned import CASES, FIRST_PRINTER_RECURSION_ERRORS, FIRST_RECURSION_ERRORS  # noqa: E402

# (file in tests/golden/, arguments to the interpreter that print it)
GOLDEN_RUNS = [(name, ["-m", "acorncore.cli", *argv]) for name, argv in CASES] + [
    ("fuel_table.txt", [str(ROOT / "scripts" / "fuel_table.py")])
]

# Tier-1 as documented, run with this interpreter's pytest
TIER1_ENV = {
    "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), sysconfig.get_path("purelib")]),
    "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1",
}
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

# the probes the two depth tests assert on, each given half the time of a run
DEPTH_PROBE = f"""
from pinned import first_recursion_error
print(first_recursion_error(timeout={TIMEOUT_S // 2}) or "none")
"""
PRINTER_PROBE = f"""
from pinned import first_printer_recursion_error
print(first_printer_recursion_error(timeout={TIMEOUT_S // 2}) or "none")
"""
# the probe the intern test asserts on: lone entries and duplicate pairs
INTERN_PROBE = """
from pinned import intern_probe
_, lone, duplicates = intern_probe()
print(lone, duplicates)
"""


def _run(exe: str, args: list[str], **env: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(SEARCH_PATH), **env}
    return subprocess.run(
        [exe, *args], cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S
    )


def tier1(exe: str) -> tuple[str, bool]:
    """Tier-1's counts under `exe`, and whether they are a mismatch."""
    if _run(exe, ["-c", "import pytest"], **TIER1_ENV).returncode != 0:
        return "tier1 n/a", False
    out = _run(exe, TIER1, **TIER1_ENV)
    tail = out.stdout.decode().strip().rpartition("\n")[2]
    counts = {what: num for num, what in re.findall(r"(\d+) (passed|failed|skipped)", tail)}
    row = "tier1 " + " ".join(f"{counts.get(w, 0)} {w}" for w in ("passed", "failed", "skipped"))
    return row, out.returncode != 0


def check(exe: str) -> tuple[str, str]:
    """The interpreter's version ("" when it does not run) and its row."""
    version = _run(exe, ["-c", "import platform; print(platform.python_version())"])
    if version.returncode != 0:
        return "", ""
    differ = []
    for name, args in GOLDEN_RUNS:
        out = _run(exe, args)
        if out.returncode != 0 or out.stdout != (GOLDEN / name).read_bytes():
            differ.append(f"{name} (exit {out.returncode})")
    probe = _run(exe, ["-c", DEPTH_PROBE])
    depth = probe.stdout.decode().strip() if probe.returncode == 0 else "crash"
    probe = _run(exe, ["-c", PRINTER_PROBE])
    printer = probe.stdout.decode().strip() if probe.returncode == 0 else "crash"
    probe = _run(exe, ["-c", INTERN_PROBE])
    counts = probe.stdout.decode().split() if probe.returncode == 0 else []
    if counts == ["0", "0"]:
        intern = "ok"
    else:
        intern = f"lone {counts[0]} duplicates {counts[1]}" if len(counts) == 2 else "crash"
    tests, tests_bad = tier1(exe)
    minor = version.stdout.decode().strip().rpartition(".")[0]
    problems = list(differ)
    problems += [] if depth == str(FIRST_RECURSION_ERRORS.get(minor)) else [f"depth {depth}"]
    want = str(FIRST_PRINTER_RECURSION_ERRORS.get(minor))
    problems += [] if printer == want else [f"printer {printer}"]
    problems += [] if intern == "ok" else [f"intern {intern}"]
    problems += [tests] if tests_bad else []
    verdict = "MISMATCH: " + "; ".join(problems) if problems else "ok"
    row = (
        f"golden {len(GOLDEN_RUNS) - len(differ)}/{len(GOLDEN_RUNS)}  depth {depth}  "
        f"printer {printer}  intern {intern}  {tests}  {verdict}"
    )
    return version.stdout.decode().strip(), row


def main() -> int:
    listed = sorted(name for name, _ in GOLDEN_RUNS)
    on_disk = sorted(p.name for p in GOLDEN.glob("*.txt"))
    if listed != on_disk:
        print(f"golden commands {listed} do not match the files {on_disk}")
        return 1
    ran = 0
    failed = False
    for name in INTERPRETERS:
        exe = shutil.which(name)
        version, row = check(exe) if exe else ("", "")
        if not version:
            # absent, or a launcher (such as a pyenv shim) that does not run
            print(f"{name:<11} not found", flush=True)
            continue
        ran += 1
        failed = failed or not row.endswith("ok")
        print(f"{name:<11} {version:<9} {row}", flush=True)
    return 1 if failed or ran == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
