import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import workloads
from layers import PER_LAYER, PROBES, per_layer
from layertrace import Tracer
from run import load_world
from speed import REF_S, around, probe_s
from workloads import (
    Chain,
    DeepFold,
    DiffEval,
    Op,
    WrongAnswer,
    min_samples,
    percentile,
    run_pass,
)

BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture
def world():
    # acorncore imports some modules lazily by name, so a world is only
    # usable while its modules are the ones in sys.modules: load one per test
    return load_world()[0]


def tiny(name, world, seed=3):
    if name == "diffeval":
        return DiffEval(world, seed, gen_count=5)
    if name == "chain":
        return Chain(world, seed, blocks=3)
    folds = tuple(DeepFold.FOLDS)
    return DeepFold(world, seed, bands=((4, 1, 9, folds, True), (1, 20, 24, folds, False)))


# -- percentiles


def test_percentile_needs_ten_samples_beyond_the_rank():
    xs = list(range(1, 1001))
    assert percentile(xs, 0.99) == 990
    with pytest.raises(ValueError):
        percentile(xs[:999], 0.99)
    assert percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError):
        percentile(list(range(1, 100)), 0.9)
    assert percentile([3.0] * 19 + [1.0], 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 0.5)


def test_min_samples_is_the_smallest_count_percentile_accepts():
    for q in (0.5, 0.9, 0.99):
        n = min_samples(q)
        percentile([0.0] * n, q)
        with pytest.raises(ValueError):
            percentile([0.0] * (n - 1), q)
    assert (min_samples(0.9), min_samples(0.99)) == (100, 1000)


# -- runner


class _Scripted:
    """A workload whose operations return, fail or raise as scripted."""

    name = "scripted"

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def round(self, r):
        for i, outcome in enumerate(self.outcomes):
            def run(outcome=outcome):
                if isinstance(outcome, BaseException):
                    raise outcome
                return outcome

            def check(out):
                if out == "bad":
                    raise WrongAnswer("bad output")

            yield Op(f"op{i}", run, check)


def test_runner_classifies_depth_wrong_and_crash_and_keeps_going():
    p = run_pass(
        _Scripted(["fine", RecursionError("deep"), "bad", KeyError("k"), "fine"]), 0, rounds=2
    )
    assert p.failures == {"depth": 2, "wrong": 2, "crash": 2}
    assert [p.first_failure[k][:3] for k in ("depth", "wrong", "crash")] == ["op1", "op2", "op3"]
    assert p.n_ops == 10 and len(p.ok_latencies) == 4 and p.rounds == 2


def test_runner_runs_until_enough_operations_succeed():
    p = run_pass(_Scripted(["fine", RecursionError("deep")]), 0, min_ok=7)
    assert len(p.ok_latencies) == 7 and p.rounds == 7


def test_runner_runs_at_least_min_rounds():
    p = run_pass(_Scripted(["fine"]), 0, min_ok=2, min_rounds=5)
    assert p.rounds == 5


class _Timed:
    """Operations that take a known wall-clock time and report a time stat."""

    name = "timed"

    def round(self, r):
        for i in range(3):
            yield Op(f"op{i}", lambda: time.sleep(0.11), lambda out: {"gen_s": 1.0, "steps": 2})


def test_runner_scales_times_by_the_speed_probe():
    # a host at half the reference speed: the probe takes twice REF_S
    probes = []

    def slow():
        probes.append(1)
        return 2 * REF_S

    p = run_pass(_Timed(), 0, rounds=2, probe=slow)
    assert p.raw_op_s >= 6 * 0.11
    assert p.op_s == pytest.approx(p.raw_op_s / 2)
    assert sum(p.ok_latencies) == pytest.approx(p.op_s)
    assert p.elapsed_s == pytest.approx(p.raw_elapsed_s / 2)
    assert p.stats == {"gen_s": 3.0, "steps": 12}
    # one probe to start and one after each operation, as each outlasts EVERY_S
    assert len(probes) == len(p.probe_s) == 1 + 6


def test_probe_keeps_the_collector_off_and_restores_its_state():
    assert around(lambda: 7, probe=lambda: REF_S / 4) == (7, 4.0)
    was = gc.isenabled()
    try:
        gc.disable()
        assert probe_s() > 0 and not gc.isenabled()
        gc.enable()
        assert probe_s() > 0 and gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


# -- tiny runs of each workload


@pytest.mark.parametrize("name", ["diffeval", "chain", "deepfold"])
def test_tiny_run_completes_and_passes_its_gate(world, name):
    wl = tiny(name, world)
    p = run_pass(wl, 0, rounds=1)
    assert p.n_ops and not p.failures, p.first_failure
    assert wl.final_check()[1] == []


def test_diffeval_checks_each_round_and_keeps_only_the_first_report(world):
    wl = tiny("diffeval", world)
    run_pass(wl, 0, rounds=3)
    assert wl.rounds_done == 3 and wl.round_failures == []
    assert wl.first.seed == workloads.derive_seed("diffeval", 3, 0)
    assert wl.final_check() == (4, [])


def test_same_seed_same_operations(world):
    names = [[op.name for op in tiny("deepfold", world, seed=5).round(0)] for _ in range(2)]
    assert names[0] == names[1]
    assert names[0] != [op.name for op in tiny("deepfold", world, seed=6).round(0)]


@pytest.mark.parametrize("name", ["diffeval", "chain", "deepfold"])
def test_traced_tiny_run_reports_every_layer_metric_and_unpatches(name):
    tracer = Tracer(PROBES)
    try:
        tworld, _ = load_world(tracer)
        traced = run_pass(tiny(name, tworld), 0, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not traced.failures, traced.first_failure
    # wrappers carry __wrapped__; the restored originals do not
    assert not any(
        hasattr(getattr(sys.modules[p.module], a), "__wrapped__") for p in PROBES for a in p.attrs
    )
    m = per_layer(tracer, traced.n_ops, 0, 1.0, 1.0, 0.0, 0.0)
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert m["parser.parse_s"] > 0 and m["translate.env_s"] > 0
    # round-level work between operations is reported on its own
    round_level = ("translate.round_env_s", "programs.round_load_module_s", "soundness.gen_expr_s")
    assert all((m[k] > 0) == (name == "diffeval") for k in round_level), m
    if name == "chain":
        assert m["chainsim.replays_per_trace"] == 4
        assert m["kernel.cbv_calls"] == 0
    else:
        assert m["kernel.cbv_calls"] > 0 and m["interp.eval_calls"] > 0
        assert m["chainsim.add_block_calls"] == 0


# -- the gate catches deliberately wrong expectations


def test_deepfold_gate_flags_a_wrong_native_answer(world, monkeypatch):
    native = world.programs.native_foldr
    monkeypatch.setattr(world.programs, "native_foldr", lambda *args: native(*args) + 1)
    p = run_pass(tiny("deepfold", world), 0, rounds=1)
    assert p.n_ops and p.failures == {"wrong": p.n_ops}


def test_chain_gate_flags_a_mutant_expected_elsewhere(world, monkeypatch):
    monkeypatch.setattr(workloads, "first_accepted_donation", lambda trace: 0)
    p = run_pass(tiny("chain", world), 0, rounds=1)
    assert p.n_ops == 2 and p.failures == {"wrong": 1}
    assert p.first_failure["wrong"].startswith("crowdfunding_overrecord[")


def test_diffeval_gate_flags_a_report_that_differs_from_run_corpus(world, monkeypatch):
    wl = tiny("diffeval", world)
    run_pass(wl, 0, rounds=1)
    other = world.soundness.Report("elsewhere", 1, 0, 0, rows=[])
    monkeypatch.setattr(world.soundness, "run_corpus", lambda *a, **k: other)
    checks, failures = wl.final_check()
    assert checks == 2 and len(failures) == 1


def test_diffeval_gate_flags_a_disagreement(world, monkeypatch):
    check_one = world.soundness._check_one

    def disagreeing(report, *args):
        check_one(report, *args)
        report.disagree += 1

    monkeypatch.setattr(world.soundness, "_check_one", disagreeing)
    wl = tiny("diffeval", world)
    p = run_pass(wl, 0, rounds=1)
    assert p.failures == {"wrong": p.n_ops}
    assert wl.final_check()[1]


# -- the command


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_benchmark_json_lists_the_metrics_the_command_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    import run

    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
