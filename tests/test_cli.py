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


def test_check_prints_one_error_line_for_several_problems(capsys, tmp_path):
    p = tmp_path / "dups.acorn"
    p.write_text("data A #0 = C [] | C []\ndata B #0 = D [] | D []\n")
    code, out, err = run_cli(capsys, "check", str(p))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: duplicate constructor 'C' in 'A' (and 1 more)"]


def test_check_flags_the_shipped_broken_module(capsys):
    # resolves against the packaged corpus regardless of the working directory
    code, _, err = run_cli(capsys, "check", "corpus/bad-indices.acorn")
    assert code == 1
    assert "unbound variable" in err


@pytest.mark.parametrize("name", ["counter", "crowdfunding"])
def test_a_directory_does_not_shadow_a_packaged_module(capsys, tmp_path, monkeypatch, name):
    (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "check", name)
    assert code == 0, err
    assert out.startswith("ok: ")


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
    # the same for a JSON module that is not JSON
    p = tmp_path / "broken.json"
    p.write_text('{"inductives": [')
    code, _, err = run_cli(capsys, "check", str(p))
    assert code == 2
    assert "is not valid JSON" in err


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


def test_run_fuel_default_ignores_the_environment(capsys, monkeypatch):
    # `--fuel` is the one knob; a stray ACORN_FUEL neither moves nor breaks it
    monkeypatch.setenv("ACORN_FUEL", "abc")
    code, _, _ = run_cli(capsys, "run", "stdlib", "--entry", "maxInt")
    assert code == 0


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


@pytest.mark.parametrize("command", [["check"], ["run", "--entry", "three"]])
def test_a_negative_parameter_count_in_a_json_module_is_bad_input(capsys, tmp_path, command):
    box = {
        "name": "Box",
        "numParams": -1,
        "constrs": [{"name": "MkBox", "args": [{"tag": "TVar", "index": 0}]}],
    }
    three = {"tag": "Lit", "value": {"tag": "PInt", "value": 3}}
    body = {"tag": "App", "fn": {"tag": "Constr", "ind": "Box", "ctor": "MkBox"}, "arg": three}
    p = tmp_path / "box.json"
    p.write_text(json.dumps({"inductives": [box], "defs": [{"name": "three", "body": body}]}))
    code, out, err = run_cli(capsys, command[0], str(p), *command[1:])
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "numParams must be non-negative" in err


@pytest.mark.parametrize(
    "body",
    [
        {"tag": "Var", "name": "x"},
        {"tag": "TyAsExpr", "ty": {"tag": "TVar", "name": "A"}},
    ],
)
def test_run_rejects_a_variable_given_by_name_in_a_json_module(capsys, tmp_path, body):
    p = tmp_path / "named.json"
    p.write_text(json.dumps({"inductives": [], "defs": [{"name": "bad", "body": body}]}))
    code, out, err = run_cli(capsys, "run", str(p), "--entry", "bad")
    assert code == 2
    assert out == ""
    assert "missing field 'index'" in err


def test_check_resolves_a_universal_in_a_constructor_argument(capsys, tmp_path):
    # the bound type variable resolves, so the report is the translation's
    p = tmp_path / "univ.acorn"
    p.write_text("data R #0 = MkR [forall A . A]\n")
    code, _, err = run_cli(capsys, "check", str(p))
    assert code == 1
    assert "does not translate: universal types inside constructor arguments" in err


def test_check_reports_an_unbound_name_before_a_later_syntax_error(capsys, tmp_path):
    # names resolve as they are read, ahead of the rest of the definition
    p = tmp_path / "unbound.acorn"
    p.write_text("def x = foo (\n")
    code, _, err = run_cli(capsys, "check", str(p))
    assert code == 1
    assert "unbound variable 'foo'" in err


def test_check_gives_an_unbound_type_name_its_position(capsys, tmp_path):
    p = tmp_path / "unbound_ty.acorn"
    for text, col in [
        ("def x = \\y : Foo -> y\n", 14),
        ("type T = Foo\n", 10),
        ("data D #0 = C [Foo]\n", 16),
    ]:
        p.write_text(text)
        code, _, err = run_cli(capsys, "check", str(p))
        assert code == 1
        assert f"error: 1:{col}: unbound type variable 'Foo'" in err


def test_run_argument_syntax_error(capsys):
    code, _, err = run_cli(capsys, "run", "stdlib", "--entry", "maxInt", "--args", "((")
    assert code == 2
    assert "error" in err


def test_run_rejects_arguments_nested_too_deeply(capsys):
    deep = "(" * 3000 + "1z" + ")" * 3000
    code, out, err = run_cli(capsys, "run", "stdlib", "--entry", "maxInt", "--args", f"{deep} 2z")
    assert code == 2
    assert out == ""
    assert "input nested too deeply" in err
    assert "Traceback" not in err


def test_check_rejects_a_module_nested_too_deeply(capsys, tmp_path):
    p = tmp_path / "deep.acorn"
    p.write_text("def x = " + "(" * 3000 + "1z" + ")" * 3000 + "\n")
    code, _, err = run_cli(capsys, "check", str(p))
    assert code == 2
    assert "input nested too deeply" in err


_LIT = '{"tag": "Lit", "value": {"tag": "PInt", "value": 1}}'
_DEEP_APPS = '{"tag": "App", "fn": ' * 3000 + _LIT + (', "arg": ' + _LIT + "}") * 3000


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"inductives": [], "defs": [{"name": "x", "body": %s}]}' % _DEEP_APPS],
    ids=["brackets", "apps"],
)
def test_a_json_module_nested_too_deeply_is_bad_input(capsys, tmp_path, text):
    p = tmp_path / "deep.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "check", str(p))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: module '{p}' is nested too deeply"]


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


def test_diff_eval_source_line_does_not_depend_on_the_checkout(capsys, tmp_path):
    from acorncore.programs import corpus_dir

    code, out, _ = run_cli(capsys, "diff-eval")
    assert code == 0
    assert out.splitlines()[1] == "source: packaged corpus"
    assert str(corpus_dir()) not in out
    # an explicit corpus prints as it was given
    (tmp_path / "tiny.acorn").write_text("def two = addInt 1z 1z\n")
    given = f"{tmp_path}/./"
    code, out, _ = run_cli(capsys, "diff-eval", "--corpus", given)
    assert code == 0
    assert out.splitlines()[1] == f"source: {given}"


def test_diff_eval_too_deep_for_the_recursion_limit_is_one_error_line():
    # generated programs of this size nest past Python's default recursion
    # limit; the run ends in one error line, not a traceback
    out = subprocess.run(
        [sys.executable, "-m", "acorncore.cli", "diff-eval", "--gen", "30", "--size", "2000"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        f"error: nesting too deep for Python's recursion limit ({sys.getrecursionlimit()})"
    ]


# ---------------------------------------------------------------------------
# chain

def test_chain_runs_the_default_scenario(capsys):
    code, out, err = run_cli(capsys, "chain", "--blocks", "6", "--seed", "1")
    assert code == 0, err
    assert out.startswith("blocks: 6")
    assert "invariant money_conserved: holds" in out
    assert "invariant cf_backed: holds" in out
    assert "invariant cf_balance_consistent: holds" in out


def test_chain_replays_the_trace_once(capsys, monkeypatch):
    import acorncore.chainsim as chainsim
    import acorncore.cli as cli

    replay = chainsim.replay
    replays = []

    def counting(*args, **kwargs):
        replays.append(args)
        return replay(*args, **kwargs)

    monkeypatch.setattr(chainsim, "replay", counting)
    monkeypatch.setattr(cli, "replay", counting)
    code, out, err = run_cli(capsys, "chain", "--blocks", "6", "--seed", "1")
    assert code == 0, err
    assert out.count("invariant") == 3
    assert len(replays) == 1


def test_chain_skips_checks_when_asked(capsys):
    code, out, _ = run_cli(capsys, "chain", "--blocks", "4", "--check", "")
    assert code == 0
    assert "invariant" not in out


def test_chain_unknown_invariant(capsys):
    code, out, err = run_cli(capsys, "chain", "--blocks", "4", "--check", "bogus")
    assert code == 2
    assert out == ""
    assert "unknown invariant 'bogus'" in err


@pytest.mark.parametrize("name", ["counter", "crowdfunding"])
def test_a_directory_does_not_shadow_a_packaged_scenario(capsys, tmp_path, monkeypatch, name):
    argv = ("chain", "--scenario", name, "--blocks", "4", "--seed", "1", "--check", "")
    _, expected, _ = run_cli(capsys, *argv)
    (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == expected and out.startswith("blocks: 4")


def test_chain_missing_scenario(capsys):
    code, _, err = run_cli(capsys, "chain", "--scenario", "nowhere")
    assert code == 2
    assert "no scenario at" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chain", "--blocks", "0"], "argument --blocks: must be at least 1, got 0"),
        (["chain", "--blocks", "-3"], "argument --blocks: must be at least 1, got -3"),
        (["diff-eval", "--gen", "-5"], "argument --gen: must be at least 0, got -5"),
    ],
)
def test_counts_below_their_minimum_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"actors": [[1, 100]', "is not valid JSON"),
        (
            '{"actors": [[1, 100]], "deploys": [{"contract": "nope", "deployer": 1}]}',
            "unknown contract 'nope'",
        ),
        ('{"actors": 5, "deploys": []}', "scenario actors must be a list"),
        ('{"actors": [[1, 100], [1, 50]], "deploys": []}', "actor 1 is listed twice"),
        (
            '{"actors": [[1, 100]], "deploys": [{"contract": "crowdfunding",'
            ' "deployer": 1, "setup": {"goal": 60}}]}',
            "setup of 'crowdfunding' lacks field 'deadline'",
        ),
        (
            '{"actors": [[1, 100]], "deploys": [{"contract": "crowdfunding",'
            ' "deployer": 1, "setup": {"deadline": -1, "goal": 60}}]}',
            "natural literal must be non-negative",
        ),
        ("[" * 100_000 + "]" * 100_000, "is nested too deeply"),
    ],
    ids=["malformed", "unknown-contract", "actors-not-a-list", "duplicate-actor",
         "no-deadline", "negative-deadline", "nested-too-deeply"],
)
def test_chain_rejects_a_bad_scenario_file(capsys, tmp_path, text, message):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run_cli(capsys, "chain", "--scenario", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_chain_rejects_a_scenario_without_actors(capsys, tmp_path):
    # generation draws each action's sender from the actors
    p = tmp_path / "no_actors.json"
    p.write_text(
        '{"actors": [], "deploys": [{"contract": "counter", "deployer": 1, "setup": {}}]}'
    )
    code, out, err = run_cli(capsys, "chain", "--scenario", str(p))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: scenario actors must not be empty"]


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
