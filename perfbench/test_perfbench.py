"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fsmguard as fg  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

EXPECTED = workloads.load_expected()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    def keys(seed):
        return [op.key for op in workloads.build_ops(workload, fg, seed, EXPECTED, tmp_path)]

    assert keys(5) == keys(5)
    assert keys(5) != keys(6)


def test_ring_oracle_agrees_with_run_all_checks():
    cfg = fg.RuleConfig(fif=True)
    for seed in range(4):
        rng = random.Random(seed)
        for n in (8, 16, 32, 64):
            fsm = gen.ring_fsm(rng, n)
            report = fg.run_all_checks(fg.SourceText(fsm.verilog()), {fsm.protected}, cfg)
            want = [[rule, list(states)] for rule, states in gen.expected_ring_verdict(fsm)]
            assert workloads.verdict(report) == want


def _op(name, run_fn, reason=""):
    return workloads.Op(name, name, run=run_fn, canon=str, check=lambda out: reason)


def test_failed_ops_are_counted_without_aborting():
    def boom():
        raise RuntimeError("boom")

    ops = [_op("ok", lambda: 1), _op("raises", boom), _op("wrong", lambda: 2, "wrong verdict")]
    runner, ph = run.Runner(ops, None), run.Phase()
    runner.run_pass(ph)
    runner.run_pass(ph)
    assert (ph.attempted, ph.failed) == (6, 4)
    assert runner.failures["raises"] == "raised RuntimeError: boom"


def _failed(runner, passes):
    ph = run.Phase()
    for _ in range(passes):
        runner.run_pass(ph)
    return ph.failed


def test_a_repeat_that_differs_is_a_failure():
    outputs = iter([1, 2])
    assert _failed(run.Runner([_op("flaky", lambda: next(outputs))], None), 2) == 1


def test_a_wrong_digest_is_a_failure():
    op = _op("digested", lambda: 1)
    op.digests = lambda out: {"design": "abc"}
    assert _failed(run.Runner([op], [{"design": "abd"}]), 1) == 1
    assert _failed(run.Runner([op], [{"design": "abc"}]), 1) == 0


def test_minima_use_a_fixed_sample_of_passes():
    ph = run.Phase(times=[[float(t) for t in range(10, 0, -1)], [3.0, 2.0]], caps=[4, 4])
    assert [ph.times[0][k] for k in ph.sampled(0)] == [9.0, 7.0, 4.0, 2.0]
    assert ph.best() == [2.0, 2.0]


def test_times_are_scaled_by_the_reference_speed():
    ref = run.REFERENCE_S
    ph = run.Phase(times=[[0.002, 0.004], [0.004]], at=[[0, 1], [1]], caps=[4, 4],
                   reference=[[2 * ref, 3 * ref], [4 * ref]])
    assert ph.factors() == [0.5, 0.25]
    assert ph.best(scaled=True) == [0.001, 0.001]


def test_an_op_runs_once_per_period():
    calls = []
    op = _op("slow", lambda: calls.append(1))
    op.period = 3
    runner, ph = run.Runner([_op("fast", lambda: 1), op], None), run.Phase()
    for _ in range(7):
        runner.run_pass(ph)
    assert (len(calls), len(ph.times[0]), ph.at[1], ph.passes) == (3, 7, [0, 3, 6], 7)


def test_setup_is_timed_in_a_fresh_interpreter():
    assert 0 < run.setup_rep("check_scale", 3) < 60


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_workload_starts_more_threads_than_nproc(workload, tmp_path, monkeypatch):
    peak = [0]
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        peak[0] = max(peak[0], threading.active_count() - 1)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for op in workloads.build_ops(workload, fg, 3, EXPECTED, tmp_path)[:2]:
        assert op.check(op.run()) == ""
    assert peak[0] <= workloads.nproc()


def test_traced_run_gives_identical_output_and_restores(tmp_path):
    op = workloads.build_ops("corpus_experiment", fg, 3, EXPECTED, tmp_path)[0]
    plain = op.canon(op.run())
    original = fg.run_all_checks
    tracer = Tracer()
    tracer.install()
    try:
        traced = op.canon(op.run())
    finally:
        tracer.remove()
    assert traced == plain
    assert fg.run_all_checks is original and fg.corpus.plan_injection is fg.inject.plan_injection
    names = {span[1] for span in tracer.spans}
    assert {"inject.plan_injection", "llm.pipeline.run_pipeline", "tokens.tokenize"} <= names
    sweep = next(s for s in tracer.spans if s[1] == "llm.pipeline.sweep_params")
    assert any(s[4] == sweep[0] for s in tracer.spans if s[1] == "llm.pipeline.run_pipeline")


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = run.end_to_end([0.001, 0.002], 0.5)
    per_layer = layer_metrics(Tracer(), {}, 1, 1.0)
    per_layer["trace.overhead_pct"] = (0.0, "%")
    for printed, listed in ((end_to_end, spec["end_to_end"]), (per_layer, spec["per_layer"])):
        assert {k: u for k, (_, u) in printed.items()} == {m["name"]: m["unit"] for m in listed}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
