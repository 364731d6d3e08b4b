"""Tests of the benchmark itself, on tiny budgets.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import serve_workload  # noqa: E402
import train_workloads  # noqa: E402


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr(train_workloads, "N_SEEDS", 2)
    monkeypatch.setattr(train_workloads, "EPISODES", 8)
    monkeypatch.setattr(train_workloads, "TRACE_PASSES",
                        dict.fromkeys(metrics.TRAINING, 1))


def _result(workload, trace, outcome):
    args = Namespace(workload=workload, trace=int(trace))
    return run.result_line(args, outcome)


def test_benchmark_json_matches_metric_table():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} == metrics.WORKLOADS
    assert doc["end_to_end"] == [
        {"name": n, "unit": m.unit, "better": m.better, "bound": m.bound}
        for n, m in metrics.END_TO_END.items()]
    assert doc["per_layer"] == [
        {"name": n, "unit": m.unit, "better": m.better}
        for n, m in metrics.PER_LAYER.items()]
    for metric in metrics.PER_LAYER.values():
        assert metric.moves in metrics.END_TO_END or metric.moves.startswith("none")
    assert "setup_s" in metrics.expected(trace=False)
    assert "trace.overhead" in metrics.expected(trace=True)


@pytest.mark.parametrize("workload", metrics.TRAINING)
@pytest.mark.parametrize("trace", [False, True])
def test_training_emits_every_metric_and_traced_curves_match(tiny_grid, workload, trace):
    outcome = train_workloads.run(workload, seed=3, seconds=0.01, trace=trace,
                                  import_s=0.1)
    result = _result(workload, trace, outcome)
    assert result["correct"], outcome["checks"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(metrics.expected(trace))
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics.expected(trace)[name].unit
    if trace:
        assert ("traced curves equal untraced curves", True) in [
            (name, ok) for name, ok, _ in outcome["checks"]]


def test_backends_train_identical_curves(tiny_grid):
    tasks = train_workloads.pass_grid(5, 0)
    digests = {workload: [train_workloads.curve_digest(r)
                          for r in backend(tasks).results]
               for workload, backend in train_workloads.BACKENDS.items()}
    assert len(set(map(tuple, digests.values()))) == 1, digests


@pytest.mark.parametrize("trace", [False, True])
def test_serving_emits_every_metric_and_served_actions_match(trace):
    outcome = serve_workload.run(seed=4, seconds=0.6, trace=trace, import_s=0.1)
    result = _result("serve_policy", trace, outcome)
    assert result["correct"], outcome["checks"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == set(metrics.expected(trace))


def test_served_action_mismatch_is_a_failure():
    agent = serve_workload.train_policy(6)
    states = serve_workload.observation_stream(6)
    blob = serve_workload.pickle.dumps(agent)
    rounds = [serve_workload.serve_round(blob, states, seconds=0.3)]
    expected = serve_workload.offline_actions(agent, states)
    assert serve_workload.check_served(rounds, expected)[1:] == (0, 0)
    corrupted = expected.copy()
    corrupted[::5] ^= 1
    attempted, failed, mismatched = serve_workload.check_served(rounds, corrupted)
    assert mismatched > 0 and failed >= mismatched and attempted > failed
    result = {"correct": mismatched == 0, "failed": failed}
    assert run.exit_code(result) != 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_throughput_is_scaled_by_the_calibration_kernel(monkeypatch):
    reference = calibration.KERNEL_REFERENCE_S
    kernels = iter([reference, reference, 2 * reference])
    clock = calibration.Clock(lambda: next(kernels))
    clock.add(1.0)      # a fast host throughout: counted as measured
    clock.add(1.0)      # the host slowed down to half speed by its end
    assert clock.timed_s == pytest.approx(2.0)
    assert clock.reference_s == pytest.approx(1.0 + 2.0 / 3.0)
    monkeypatch.setattr(train_workloads, "steps", lambda _result: 1000)
    result = train_workloads.PassResult([], 0.0, 2.0, {}, reference_s=0.5)
    assert train_workloads.scaled_steps_per_s(result) == pytest.approx(2000.0)
    assert calibration.kernel_seconds() > 0
