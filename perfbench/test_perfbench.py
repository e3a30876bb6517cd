"""Self-test of the benchmark: every workload at a tiny size prints every
named metric with its unit, and injected faults are counted as failures.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import run
from checks import mori_open_end_distance

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))
from planarmimic import trainer as trainer_mod  # noqa: E402
from planarmimic.dtw import DtwConfig, dtw_brute_force  # noqa: E402

TINY = {
    "train_desk": dict(num_envs=4, steps_per_iter=4, rate=3.0),
    "train_wide": dict(num_envs=8, steps_per_iter=4, checkpoint_interval=1, rate=3.0),
    "eval_leap": dict(rollouts=1, rate=1.0),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path)
    monkeypatch.setattr(run, "SWEEP_STEPS", 2)
    monkeypatch.setattr(run, "WORKLOADS", {
        name: dataclasses.replace(wl, **TINY[name])
        for name, wl in run.WORKLOADS.items()})


def bench(capsys, workload, trace=0) -> dict:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] > 0


def test_ungated_figures_are_printed(capsys):
    assert run.main(["--workload", "train_desk", "--seed", "3", "--seconds", "1",
                     "--trace", "0"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("reported "))
    figures = json.loads(line.split(" ", 1)[1])
    assert {"env_steps_per_s", "iter_ms_p50", "iter_ms_tail", "iter_ms_tail_pct",
            "iter_samples", "eval_s"} == set(figures)
    assert all(math.isfinite(v) and v > 0 for v in figures.values())


def test_nan_record_counts_as_failed(capsys, monkeypatch):
    original = trainer_mod.Trainer.train_iteration

    def poisoned(self):
        record = original(self)
        if record["iteration"] == 2:
            record["disc_loss"] = float("nan")
        return record

    monkeypatch.setattr(trainer_mod.Trainer, "train_iteration", poisoned)
    result = bench(capsys, "train_desk")
    assert result["failed"] == 1 and result["correct"] is False


def test_perturbed_stand_still_distance_counts_as_failed(capsys, monkeypatch):
    original = trainer_mod.evaluate_policy

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        report.stand_still.distances[0, 3] += 1e-6
        report.dtw.distances[0, 5] = float("nan")
        return report

    monkeypatch.setattr(trainer_mod, "evaluate_policy", perturbed)
    result = bench(capsys, "eval_leap")
    assert result["failed"] == 2 and result["correct"] is False


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(0)
    cfg = DtwConfig(step_pattern="mori_asymmetric", open_end=True)
    for _ in range(20):
        q = rng.normal(size=(rng.integers(2, 7), 6))
        r = rng.normal(size=(rng.integers(4, 8), 6))
        assert mori_open_end_distance(q, r) == pytest.approx(
            dtw_brute_force(q, r, cfg), abs=1e-12)


def test_tail_keeps_ten_samples_above():
    assert run.tail(list(range(135)))[1] == 92
    assert run.tail(list(range(38)))[1] == 73
    assert run.tail(list(range(16))) == (15, 100)
    assert run.tail([5.0, 1.0]) == (5.0, 100)
