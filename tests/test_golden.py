"""Whole reports pinned byte for byte. A change meant to keep behaviour
must leave these outputs alone; regenerate a golden file only for a change
that means to alter the report, e.g.

    acorn diff-eval --gen 1000 --seed 7 --fuel 10000 > tests/golden/diff_eval_gen1000_seed7.txt

`--fuel` is passed explicitly, so each file names the fuel it was made at;
the `chain` files run below that command's default.
The `translate` reports print every variable by the binder its de Bruijn
index points at, so they pin the indices the parser resolves.
A `chain` report must not depend on what the contracts' call memos hold, so
those cases also run cold and warm in one process, and under a tiny cap."""

from pathlib import Path

import pytest

from acorncore import chainsim
from acorncore.cli import main

from oracles import clear_call_memos

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("diff_eval_gen1000_seed7.txt", ["diff-eval", "--gen", "1000", "--seed", "7", "--fuel", "10000"]),
    ("chain_blocks50_seed3.txt", ["chain", "--blocks", "50", "--seed", "3", "--fuel", "10000"]),
    *[(f"translate_{m}.txt", ["translate", m]) for m in ("crowdfunding", "counter", "listops", "mapops")],
    (
        "chain_counter_blocks50_seed3.txt",
        ["chain", "--scenario", "counter", "--blocks", "50", "--seed", "3", "--fuel", "10000"],
    ),
]
CHAIN_CASES = [(name, argv) for name, argv in CASES if argv[0] == "chain"]


@pytest.mark.parametrize("name, argv", CASES)
def test_report_matches_its_golden_file(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name, argv", CHAIN_CASES)
def test_chain_report_is_the_same_cold_and_warm(capsys, name, argv):
    clear_call_memos()
    for _ in ("cold", "warm"):
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_chain_report_is_the_same_under_a_cap_of_four(capsys, monkeypatch):
    call_entry = chainsim._call_entry
    sizes = []

    def measured(loaded, *args):
        r = call_entry(loaded, *args)
        sizes.append(len(loaded.calls))
        return r

    monkeypatch.setattr(chainsim, "CALL_MEMO_CAP", 4)
    monkeypatch.setattr(chainsim, "_call_entry", measured)
    clear_call_memos()
    assert main(["chain", "--blocks", "50", "--seed", "3", "--fuel", "10000"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "chain_blocks50_seed3.txt").read_bytes()
    assert max(sizes) == 4
