"""Whole reports pinned byte for byte. A change meant to keep behaviour
must leave these outputs alone; regenerate a golden file only for a change
that means to alter the report, e.g.

    acorn diff-eval --gen 1000 --seed 7 --fuel 10000 > tests/golden/diff_eval_gen1000_seed7.txt

`--fuel` is passed explicitly, so each file names the fuel it was made at;
the `chain` files run below that command's default.
The `translate` reports print every variable by the binder its de Bruijn
index points at, so they pin the indices the parser resolves."""

from pathlib import Path

import pytest

from acorncore.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("diff_eval_gen1000_seed7.txt", ["diff-eval", "--gen", "1000", "--seed", "7", "--fuel", "10000"]),
        ("chain_blocks50_seed3.txt", ["chain", "--blocks", "50", "--seed", "3", "--fuel", "10000"]),
        *[(f"translate_{m}.txt", ["translate", m]) for m in ("crowdfunding", "counter", "listops", "mapops")],
        (
            "chain_counter_blocks50_seed3.txt",
            ["chain", "--scenario", "counter", "--blocks", "50", "--seed", "3", "--fuel", "10000"],
        ),
    ],
)
def test_report_matches_its_golden_file(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
