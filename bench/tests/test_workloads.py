"""Toy-size smoke runs of every workload through the benchmark's own code path.

Sizes are passed as function arguments; the fixed settings of the real
benchmark are untouched.  These spawn real ``repro`` processes, so they
take about a minute.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run as bench_run
import workloads
from workloads import ROOT, Run, run_workload

TOY = {
    "figures-240": dict(nodes=48),
    "figures-400-par": dict(nodes=48),
    "stream-replay": dict(nodes=48, duration=60.0, checkpoint_every=500),
    "serve-mixed": dict(nodes=40, warm_duration=10.0, rounds=101, batch=16),
}


@pytest.fixture(autouse=True)
def one_rep(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_REPS", 1)


def _layers():
    return json.loads((ROOT / "bench" / "layers.json").read_text())


@pytest.mark.parametrize("name", list(TOY))
def test_workload_runs_checks_and_reports_its_layers(name, tmp_path):
    with Run(tmp_path, deadline=time.monotonic() + 170) as run:
        outcome = run_workload(name, run, seed=1, seconds=0, trace=True, **TOY[name])
    assert outcome.checks and all(outcome.checks.values()), outcome.checks
    assert outcome.failed == 0 and outcome.attempted > 0
    assert outcome.missing == []
    assert set(outcome.metrics) == {"setup_s", "wall_s", "p50_ms", "p99_ms", "peak_rss_mb"}
    assert all(value > 0 for value in outcome.metrics.values()), outcome.metrics
    expected = {metric for metric, entry in _layers().items() if name in entry["workloads"]}
    assert expected <= set(outcome.layers), expected - set(outcome.layers)


def test_result_line_has_exactly_the_documented_keys(monkeypatch, capsys):
    measure, settings = workloads.WORKLOADS["serve-mixed"]
    monkeypatch.setitem(workloads.WORKLOADS, "serve-mixed",
                        (measure, {**settings, **TOY["serve-mixed"]}))
    spec = bench_run.load_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = bench_run.main(["--workload", "serve-mixed", "--seed", "2", "--seconds", "0",
                               "--trace", str(trace)])
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figures-240", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert workloads.percentile(values, 50) == 3.0
    assert workloads.percentile(values, 99) == pytest.approx(4.96)
    assert workloads.percentile([7.0], 99) == 7.0
