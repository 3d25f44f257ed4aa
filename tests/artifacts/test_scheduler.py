"""DAG-scheduler contracts: compute-exactly-once, dedup, failure cascade,
and concurrent cache-write safety."""

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import run_experiments
from repro.scenarios.runner import run_scenario_matrix
from repro.scenarios.spec import Scenario

TINY = ExperimentConfig(
    n_nodes=48,
    vivaldi_seconds=8,
    selection_runs=1,
    max_clients=16,
    meridian_small_count=10,
)


def _computes_by_address(report_dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in report_dict["artifacts"]:
        counts[row["address"]] = counts.get(row["address"], 0) + row["computes"]
    return counts


class TestComputeExactlyOnce:
    def test_parallel_cold_run_computes_each_artifact_once(self, tmp_path):
        # fig15/fig16/fig19 all share the dataset, and fig16/fig19 both
        # need the Vivaldi embedding: one compute each, however many
        # figures (and dependent artifact tasks) consume them.
        outcome = run_experiments(
            TINY,
            only=["fig15", "fig16", "fig19", "fig03"],
            jobs=2,
            cache_dir=tmp_path / "cache",
        )
        report = outcome.report.as_dict()
        counts = _computes_by_address(report)
        assert counts, "parallel cold run reported no artifact records"
        assert all(count == 1 for count in counts.values()), counts
        # The shared dataset was restored from disk by its dependents,
        # never recomputed.
        dataset_rows = [r for r in report["artifacts"] if r["node"] == "dataset"]
        assert any(row["restores"] > 0 for row in dataset_rows)

    def test_report_keeps_retired_transport_keys_at_zero(self, tmp_path):
        # bench-experiments/v1 readers index the keys of the deleted
        # shared-memory transport; they stay in the report as zeros.
        outcome = run_experiments(
            TINY, only=["fig03", "fig19"], jobs=2, cache_dir=tmp_path / "cache"
        )
        report = outcome.report.as_dict()
        assert report["artifacts"]
        for row in report["artifacts"]:
            assert (row["attaches"], row["attach_seconds"]) == (0, 0.0)
        totals = report["totals"]["artifacts"]
        assert totals["attached"] == 0
        assert totals["restored"] > 0
        assert totals["shm"] == dict.fromkeys(
            (
                "published",
                "publish_bytes",
                "attaches",
                "attach_bytes",
                "fallbacks",
                "evictions",
            ),
            0,
        )

    def test_sequential_full_sweep_computes_each_artifact_once(self, tmp_path):
        outcome = run_experiments(TINY, jobs=1, cache_dir=tmp_path / "cache")
        counts = _computes_by_address(outcome.report.as_dict())
        assert counts
        assert all(count == 1 for count in counts.values()), counts


class TestCrossScenarioDedup:
    @pytest.fixture
    def replicated_baseline(self, monkeypatch):
        # Two library scenarios whose content knobs are identical resolve
        # every artifact to the same cache address — the realistic shape
        # of replicated / renamed scenarios in a matrix sweep.  The
        # monkeypatched library reaches fork-started pool workers too.
        from repro.scenarios import library

        copy = Scenario("baseline_copy", description="replication of baseline")
        monkeypatch.setitem(library._BY_NAME, "baseline_copy", copy)
        return ("baseline", "baseline_copy")

    def test_shared_frontier_computes_cross_scenario_artifacts_once(
        self, tmp_path, replicated_baseline
    ):
        outcome = run_scenario_matrix(
            TINY,
            scenarios=list(replicated_baseline),
            only=["fig03", "fig19"],
            jobs=2,
            cache_dir=tmp_path / "cache",
        )
        # Both scenarios resolve to identical addresses...
        per_scenario = {
            record.scenario.name: record.report.as_dict()
            for record in outcome.report.records
        }
        counts: dict[str, int] = {}
        for report in per_scenario.values():
            for address, count in _computes_by_address(report).items():
                counts[address] = counts.get(address, 0) + count
        assert counts, "matrix run reported no artifact records"
        # ...and each shared artifact was computed exactly once across the
        # whole matrix (the single shared frontier dedupes by address).
        assert all(count == 1 for count in counts.values()), counts
        # The dedup was real: the copy scenario owned no artifact tasks
        # but its figures still ran warm off the shared entries.
        assert per_scenario["baseline_copy"]["shared_precompute"]["cache"]["stores"] == 0
        assert per_scenario["baseline_copy"]["artifacts"] == []
        assert all(
            row["status"] == "ok" for row in per_scenario["baseline_copy"]["experiments"]
        )

    def test_sequential_matrix_also_computes_once_via_cache(
        self, tmp_path, replicated_baseline
    ):
        outcome = run_scenario_matrix(
            TINY,
            scenarios=list(replicated_baseline),
            only=["fig03"],
            jobs=1,
            cache_dir=tmp_path / "cache",
        )
        by_name = {r.scenario.name: r.report for r in outcome.report.records}
        assert by_name["baseline"].total_cache().stores > 0
        assert by_name["baseline_copy"].total_cache().stores == 0
        assert by_name["baseline_copy"].total_cache().misses == 0


class TestFailureCascade:
    def test_failed_artifact_fails_dependents_but_not_independents(
        self, tmp_path, monkeypatch
    ):
        import repro.artifacts.nodes as nodes

        def _boom(ctx, instance):
            raise RuntimeError("embedding exploded")

        monkeypatch.setitem(
            nodes._NODES,
            "vivaldi",
            dataclasses.replace(nodes._NODES["vivaldi"], compute=_boom),
        )
        report_path = tmp_path / "report.json"
        with pytest.raises(ExperimentError, match="embedding exploded"):
            run_experiments(
                TINY,
                only=["fig03", "fig19"],
                jobs=2,
                cache_dir=tmp_path / "cache",
                report_path=report_path,
            )
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        by_id = {row["id"]: row for row in payload["experiments"]}
        # fig03 never touches the embedding: it completed.
        assert by_id["fig03"]["status"] == "ok"
        # fig19 needs vivaldi (and alert, which cascades): recorded error.
        assert by_id["fig19"]["status"] == "error"
        assert "vivaldi" in by_id["fig19"]["error"]
        shared = payload["shared_precompute"]
        assert shared["status"] == "error"
        assert "embedding exploded" in shared["error"]
        # The alert artifact was cascaded, not attempted.
        assert "alert" in shared["error"]


    def test_matrix_exceptions_attributed_per_scenario(self, tmp_path, monkeypatch):
        # A broken scenario must not leak its exception into a healthy
        # scenario's outcome (each outcome chains a cause that actually
        # affected it).
        import repro.artifacts.nodes as nodes
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import _run_matrix_parallel

        real_compute = nodes._NODES["vivaldi"].compute

        def _boom_under_tiv_free(ctx, instance):
            if ctx.scenario is not None and ctx.scenario.name == "tiv_free":
                raise RuntimeError("tiv_free generator exploded")
            return real_compute(ctx, instance)

        monkeypatch.setitem(
            nodes._NODES,
            "vivaldi",
            dataclasses.replace(nodes._NODES["vivaldi"], compute=_boom_under_tiv_free),
        )
        outcomes = _run_matrix_parallel(
            TINY,
            [get_scenario("baseline"), get_scenario("tiv_free")],
            ["fig03", "fig19"],
            2,
            tmp_path / "cache",
            None,
        )
        assert outcomes["baseline"].failures == {}
        assert outcomes["baseline"].first_exception is None
        assert "fig19" in outcomes["tiv_free"].failures
        assert isinstance(outcomes["tiv_free"].first_exception, RuntimeError)
        assert "tiv_free generator exploded" in str(
            outcomes["tiv_free"].first_exception
        )


def _store_repeatedly(cache_dir: str, worker_seed: int, rounds: int) -> int:
    """Store the same artifact address ``rounds`` times (race fodder)."""
    cache = ArtifactCache(cache_dir)
    params = {"preset": "race", "n_nodes": 16, "seed": 0}
    arrays = {
        "delays": np.full((16, 16), float(worker_seed)),
        "clusters": np.full(16, worker_seed),
    }
    for _ in range(rounds):
        cache.store("dataset", params, arrays, meta={"labels": ["x"] * 16})
    return rounds


class TestConcurrentCacheWrites:
    def test_racing_stores_never_corrupt_the_entry(self, tmp_path):
        # Two pool workers hammer the same artifact address while the
        # parent keeps loading it: every load must observe a complete,
        # self-consistent .npz+JSON pair from one writer or the other —
        # the atomic temp-file + os.replace contract.
        cache_dir = str(tmp_path / "cache")
        params = {"preset": "race", "n_nodes": 16, "seed": 0}
        reader = ArtifactCache(cache_dir)
        observed = 0
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_store_repeatedly, cache_dir, worker_seed, 25)
                for worker_seed in (1, 2)
            ]
            while not all(future.done() for future in futures):
                entry = reader.load("dataset", params)
                if entry is None:
                    continue
                observed += 1
                value = entry.arrays["delays"][0, 0]
                assert value in (1.0, 2.0)
                assert np.all(entry.arrays["delays"] == value)
                assert np.all(entry.arrays["clusters"] == int(value))
                assert entry.meta["labels"] == ["x"] * 16
            assert all(future.result() == 25 for future in futures)
        # The final state is a clean, loadable entry.
        final = ArtifactCache(cache_dir).load("dataset", params)
        assert final is not None
        assert observed > 0

    def test_scheduler_never_submits_one_address_twice(self, tmp_path):
        # Deduplication by address is what guarantees "exactly one
        # compute" even when many consumers race for the same artifact:
        # the engine's frontier submits one task per address, full stop.
        from repro.artifacts import resolve_plan
        from repro.experiments.engine import plan_artifact_tasks

        plan = resolve_plan(TINY, ["fig15", "fig16", "fig17", "fig19"])
        tasks = plan_artifact_tasks(plan, tag="")
        addresses = [task.address for task in tasks.values()]
        assert len(addresses) == len(set(addresses))
        # Every artifact of the plan maps onto exactly one task address.
        assert {plan.graph[key].address for key in plan.graph.topological_order()} == set(
            addresses
        )
