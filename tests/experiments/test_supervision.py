"""Crash/timeout supervision of the frontier scheduler.

These tests inject real worker deaths (``os._exit`` inside a forked pool
worker — the same signature as a segfault or an OOM kill) and overlong
tasks, then check the scheduler's contract: transient crashes are retried
with the run completing normally, poison tasks are isolated into the
ordinary failure-cascade path after ``max_retries`` attributed failures,
and every retry/rebuild is recorded in the run report.

The pool uses the ``fork`` start method on Linux, so monkeypatching the
experiment registry in the parent is visible inside the workers.
"""

import json
import os
import tempfile
import time

import pytest

from repro.artifacts.graph import resolve_plan
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    FrontierScheduler,
    plan_artifact_tasks,
    plan_figure_addresses,
    run_experiments,
)
from repro.experiments.result import ExperimentResult

TINY = ExperimentConfig(
    n_nodes=48,
    vivaldi_seconds=8,
    selection_runs=1,
    max_clients=16,
    meridian_small_count=10,
)


def _stub_result(experiment_id: str) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title="supervision stub",
        data={"value": 1.0},
    )


def _crash_once_runner(sentinel: str):
    """A figure runner that hard-kills its worker on the first attempt."""

    def _runner(config=None, *, context=None, **kwargs):
        if not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as handle:
                handle.write("crashed")
            os._exit(1)  # worker death: BrokenProcessPool, not an exception
        return _stub_result("fig03")

    return _runner


def _always_crash_runner(config=None, *, context=None, **kwargs):
    os._exit(1)


def _hang_runner(config=None, *, context=None, **kwargs):
    time.sleep(300)
    return _stub_result("fig03")


class TestCrashRetry:
    def test_worker_crash_is_retried_and_run_completes(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        sentinel = str(tmp_path / "crashed-once")
        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(
                _crash_once_runner(sentinel), frozenset({"matrix"})
            ),
        )
        report_path = tmp_path / "BENCH_experiments.json"
        outcome = run_experiments(
            TINY,
            only=["fig03", "fig02"],
            jobs=2,
            cache_dir=tmp_path / "artifacts",
            report_path=report_path,
        )
        # The run completed: the crashed figure was re-run and succeeded,
        # and the innocent bystander survived the pool rebuild.
        assert set(outcome.results) == {"fig03", "fig02"}
        assert outcome.failures == {}
        assert outcome.report.pool_rebuilds >= 1
        assert outcome.report.figure_retries >= 1
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        by_id = {entry["id"]: entry for entry in payload["experiments"]}
        assert by_id["fig03"]["status"] == "ok"
        assert by_id["fig03"].get("retries", 0) >= 1
        supervision = payload["totals"]["supervision"]
        assert supervision["pool_rebuilds"] >= 1
        assert supervision["figure_retries"] >= 1

    def test_poison_task_is_isolated_after_max_retries(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(
                _always_crash_runner, frozenset({"matrix"})
            ),
        )
        report_path = tmp_path / "BENCH_experiments.json"
        with pytest.raises(ExperimentError, match="fig03"):
            run_experiments(
                TINY,
                only=["fig03", "fig02"],
                jobs=2,
                cache_dir=tmp_path / "artifacts",
                report_path=report_path,
            )
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        by_id = {entry["id"]: entry for entry in payload["experiments"]}
        # The poison figure was isolated through the ordinary failure path
        # after exhausting its attempts; the healthy figure still ran.
        assert by_id["fig03"]["status"] == "error"
        assert "isolated" in by_id["fig03"]["error"]
        assert by_id["fig02"]["status"] == "ok"
        assert payload["totals"]["supervision"]["pool_rebuilds"] >= 3

    def test_clean_run_reports_zero_supervision_activity(self, tmp_path):
        outcome = run_experiments(
            TINY, only=["fig02"], jobs=2, cache_dir=tmp_path / "artifacts"
        )
        assert outcome.report.pool_rebuilds == 0
        assert outcome.report.artifact_retries == 0
        assert outcome.report.figure_retries == 0
        payload = outcome.report.as_dict()
        assert payload["totals"]["supervision"] == {
            "artifact_retries": 0,
            "figure_retries": 0,
            "pool_rebuilds": 0,
        }
        # Per-record "retries" keys only appear when nonzero.
        assert all("retries" not in entry for entry in payload["experiments"])


class TestScratchCacheHygiene:
    """An uncached parallel run works through a ``repro-engine-cache-*``
    scratch dir; no exit path may leak it.  Redirecting ``tempfile`` lands
    every scratch dir somewhere the test can inspect exhaustively."""

    @pytest.fixture
    def scratch_root(self, tmp_path, monkeypatch):
        root = tmp_path / "tmproot"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_pool_rebuild_leaks_no_scratch_dir(self, tmp_path, monkeypatch, scratch_root):
        from repro.experiments import registry

        sentinel = str(tmp_path / "crashed-once")
        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(
                _crash_once_runner(sentinel), frozenset({"matrix"})
            ),
        )
        outcome = run_experiments(TINY, only=["fig03", "fig02"], jobs=2)
        assert outcome.failures == {}
        assert outcome.report.pool_rebuilds >= 1
        assert list(scratch_root.glob("repro-engine-cache-*")) == []

    def test_keyboard_interrupt_removes_scratch_dir(self, monkeypatch, scratch_root):
        import repro.experiments.engine as engine_module

        # ^C lands in the scheduler's wait loop; the engine's finally must
        # still remove the scratch cache.
        live_scratch_dirs = []

        def _interrupt(*args, **kwargs):
            live_scratch_dirs.extend(scratch_root.glob("repro-engine-cache-*"))
            raise KeyboardInterrupt

        monkeypatch.setattr(engine_module, "wait", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiments(TINY, only=["fig03"], jobs=2)
        assert len(live_scratch_dirs) == 1
        assert list(scratch_root.glob("repro-engine-cache-*")) == []


class TestTaskTimeout:
    def _figure_only_scheduler(self, cache_dir, **kwargs) -> FrontierScheduler:
        plan = resolve_plan(TINY, ["fig03"])
        return FrontierScheduler(
            tasks=plan_artifact_tasks(plan, tag=""),
            configs={"": TINY},
            figure_grid=[("", "fig03")],
            figure_needs={("", "fig03"): plan_figure_addresses(plan, "fig03")},
            cache_dir=str(cache_dir),
            jobs=2,
            **kwargs,
        )

    def test_overrunning_task_is_attributed_and_isolated(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        # Warm the artifact cache first so the supervised run only has the
        # hanging figure task in flight (a clean attribution scenario).
        cache_dir = tmp_path / "artifacts"
        run_experiments(TINY, only=["fig03"], jobs=2, cache_dir=cache_dir)

        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(_hang_runner, frozenset({"matrix"})),
        )
        scheduler = self._figure_only_scheduler(
            cache_dir, max_retries=0, retry_backoff=0.0, task_timeout=1.0
        )
        start = time.monotonic()
        scheduler.execute()
        elapsed = time.monotonic() - start
        record = scheduler.figure_records[("", "fig03")]
        assert record.status == "error"
        assert "timed out" in record.error
        assert scheduler.pool_rebuilds >= 1
        # The hung worker was torn down, not waited out.
        assert elapsed < 60

    def test_invalid_supervision_parameters_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="max_retries"):
            self._figure_only_scheduler(tmp_path, max_retries=-1)
        with pytest.raises(ExperimentError, match="task_timeout"):
            self._figure_only_scheduler(tmp_path, task_timeout=0)
        with pytest.raises(ExperimentError, match="retry_backoff"):
            self._figure_only_scheduler(tmp_path, retry_backoff=-0.1)
