"""The command line front end: one test per subcommand behavior, pinned to
the documented exit codes (0 success, 1 artifact failure, 2 unusable input)."""

import json
import shutil
import subprocess
import sys

import pytest

from acorncore.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check

def test_check_reports_ok_for_a_shipped_module(capsys):
    code, out, err = run_cli(capsys, "check", "listops")
    assert code == 0
    assert out.startswith("ok: ")
    assert "definitions" in out
    assert err == ""


def test_check_flags_an_ill_formed_module(capsys, tmp_path):
    p = tmp_path / "dup.acorn"
    p.write_text("data A #0 = MkThing []\ndata B #0 = MkThing []\n")
    code, _, err = run_cli(capsys, "check", str(p))
    assert code == 1
    assert "declared in both" in err


def test_check_flags_the_shipped_broken_module(capsys):
    # resolves against the packaged corpus regardless of the working directory
    code, _, err = run_cli(capsys, "check", "corpus/bad-indices.acorn")
    assert code == 1
    assert "unbound variable" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "no_such_module")
    assert code == 2
    assert "no module at" in err


def test_check_syntax_error(capsys, tmp_path):
    p = tmp_path / "broken.acorn"
    p.write_text("def = =\n")
    code, _, err = run_cli(capsys, "check", str(p))
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# run

def test_run_prints_the_value(capsys):
    code, out, _ = run_cli(capsys, "run", "counter", "--entry", "inc3")
    assert code == 0
    assert "MkCState 13z 5" in out


def test_run_with_arguments(capsys):
    code, out, _ = run_cli(capsys, "run", "stdlib", "--entry", "maxInt", "--args", "3z 8z")
    assert code == 0
    assert out.strip() == "8z"


def test_run_unknown_entry(capsys):
    code, _, err = run_cli(capsys, "run", "counter", "--entry", "missing")
    assert code == 1
    assert "no definition named 'missing'" in err


def test_run_out_of_fuel(capsys):
    code, _, err = run_cli(capsys, "run", "counter", "--entry", "inc3", "--fuel", "1")
    assert code == 1
    assert "out of fuel (1)" in err


def test_run_fuel_default_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("ACORN_FUEL", "1")
    code, _, err = run_cli(capsys, "run", "counter", "--entry", "inc3")
    assert code == 1
    assert "out of fuel (1)" in err


def test_run_surfaces_evaluation_errors(capsys, tmp_path):
    p = tmp_path / "boom.acorn"
    p.write_text("def boom = addInt 1z True\n")
    code, _, err = run_cli(capsys, "run", str(p), "--entry", "boom")
    assert code == 1
    assert "non-literal" in err


def test_run_rejects_a_negative_index_in_a_json_module(capsys, tmp_path):
    p = tmp_path / "neg.json"
    p.write_text(
        json.dumps(
            {"inductives": [], "defs": [{"name": "bad", "body": {"tag": "Var", "index": -1}}]}
        )
    )
    code, out, err = run_cli(capsys, "run", str(p), "--entry", "bad")
    assert code == 2
    assert out == ""
    assert "variable index must be non-negative" in err


def test_run_argument_syntax_error(capsys):
    code, _, err = run_cli(capsys, "run", "stdlib", "--entry", "maxInt", "--args", "((")
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# translate

def test_translate_single_entry(capsys):
    code, out, _ = run_cli(capsys, "translate", "counter", "--entry", "balance")
    assert code == 0
    assert out.startswith("fun (s : CState)")


def test_translate_whole_module(capsys):
    code, out, _ = run_cli(capsys, "translate", "counter")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(l.startswith("inc3 = ") for l in lines)
    assert any(l.startswith("counter_receive = ") for l in lines)


def test_translate_rejects_builtin_entries(capsys):
    code, _, err = run_cli(capsys, "translate", "stdlib", "--entry", "addInt")
    assert code == 1
    assert "no translatable definition" in err


# ---------------------------------------------------------------------------
# diff-eval

def test_diff_eval_over_the_packaged_corpus(capsys):
    code, out, _ = run_cli(capsys, "diff-eval", "--gen", "5")
    assert code == 0
    assert out.startswith("diff-eval report")
    assert "disagreements: 0" in out
    assert "inconclusive: 0" in out


def test_diff_eval_fails_when_fuel_starves_the_corpus(capsys):
    code, out, _ = run_cli(capsys, "diff-eval", "--fuel", "2")
    assert code == 1
    assert "INCONCLUSIVE" in out


def test_diff_eval_custom_corpus(capsys, tmp_path):
    (tmp_path / "tiny.acorn").write_text("def two = addInt 1z 1z\n")
    code, out, _ = run_cli(capsys, "diff-eval", "--corpus", str(tmp_path))
    assert code == 0
    assert "tiny.acorn:two: agree" in out


# ---------------------------------------------------------------------------
# chain

def test_chain_runs_the_default_scenario(capsys):
    code, out, err = run_cli(capsys, "chain", "--blocks", "6", "--seed", "1")
    assert code == 0, err
    assert out.startswith("blocks: 6")
    assert "invariant money_conserved: holds" in out
    assert "invariant cf_backed: holds" in out
    assert "invariant cf_balance_consistent: holds" in out


def test_chain_skips_checks_when_asked(capsys):
    code, out, _ = run_cli(capsys, "chain", "--blocks", "4", "--check", "")
    assert code == 0
    assert "invariant" not in out


def test_chain_unknown_invariant(capsys):
    code, out, err = run_cli(capsys, "chain", "--blocks", "4", "--check", "bogus")
    assert code == 2
    assert out == ""
    assert "unknown invariant 'bogus'" in err


def test_chain_missing_scenario(capsys):
    code, _, err = run_cli(capsys, "chain", "--scenario", "nowhere")
    assert code == 2
    assert "no scenario at" in err


def test_chain_reports_a_violated_invariant(capsys, tmp_path):
    p = tmp_path / "mutant.json"
    p.write_text(
        json.dumps(
            {
                "actors": [[1, 200], [2, 200], [3, 200]],
                "deploys": [
                    {
                        "contract": "crowdfunding_overrecord",
                        "deployer": 1,
                        "setup": {"deadline": 12, "goal": 60},
                    }
                ],
            }
        )
    )
    code, _, err = run_cli(capsys, "chain", "--scenario", str(p), "--seed", "1")
    assert code == 1
    assert "VIOLATED at block" in err


# ---------------------------------------------------------------------------
# usage

def test_usage_errors_exit_with_two(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


@pytest.mark.skipif(
    shutil.which("acorn") is None,
    reason="the `acorn` console script is on PATH only after `pip install -e .`",
)
def test_console_script_is_installed():
    out = subprocess.run(
        ["acorn", "check", "listops"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout.startswith("ok: ")


def test_module_entry_point_runs():
    mod = subprocess.run(
        [sys.executable, "-m", "acorncore.cli", "run", "stdlib", "--entry", "maxInt",
         "--args", "1z 2z"],
        capture_output=True,
        text=True,
    )
    assert mod.returncode == 0
    assert mod.stdout.strip() == "2z"
