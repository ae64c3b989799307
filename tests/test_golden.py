"""Whole reports pinned byte for byte. A change meant to keep behaviour
must leave these outputs alone; regenerate a golden file only for a change
that means to alter the report, e.g.

    acorn diff-eval --gen 1000 --seed 7 --fuel 10000 > tests/golden/diff_eval_gen1000_seed7.txt

`--fuel` is passed explicitly, so each file names the fuel it was made at;
the `chain` files run below that command's default.
The `translate` reports print every variable by the binder its de Bruijn
index points at, so they pin the indices the parser resolves.
A `chain` report must not depend on the chain's call memo, so those cases
also run with every contract call evaluated afresh. The fuel table is
remade the same way:

    python3 scripts/fuel_table.py > tests/golden/fuel_table.txt"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from acorncore import chainsim
from acorncore.cli import main

from pinned import CASES

GOLDEN = Path(__file__).parent / "golden"

CHAIN_CASES = [(name, argv) for name, argv in CASES if argv[0] == "chain"]


@pytest.mark.parametrize("name, argv", CASES)
def test_report_matches_its_golden_file(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", CHAIN_CASES)
def test_chain_report_is_the_same_cold_and_warm(capsys, monkeypatch, name, argv):
    # cold: each contract call meets an empty memo; the warm run, as
    # shipped, is `test_report_matches_its_golden_file`
    call_entry = chainsim._call_entry
    monkeypatch.setattr(chainsim, "_call_entry", lambda st, *a: call_entry(replace(st, calls={}), *a))
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_fuel_table_is_unchanged():
    # the least fuel of each program of `scripts/fuel_table.py`, contract
    # calls on generated chains among them: an evaluator change that keeps
    # behaviour keeps every line
    script = Path(__file__).parent.parent / "scripts" / "fuel_table.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, check=True).stdout
    assert out == (GOLDEN / "fuel_table.txt").read_bytes()
