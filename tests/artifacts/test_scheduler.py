"""DAG-scheduler contracts: compute-exactly-once, dedup, failure cascade,
and concurrent cache-write safety."""

import dataclasses
import json
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import resolve_plan
from repro.errors import ExperimentError
from repro.experiments.cache import ArtifactCache, stable_key
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
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_artifact_fails_dependents_but_not_independents(
        self, tmp_path, monkeypatch, jobs
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
                only=["fig03", "fig16", "fig19"],
                jobs=jobs,
                cache_dir=tmp_path / "cache",
                report_path=report_path,
            )
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        by_id = {row["id"]: row for row in payload["experiments"]}
        # fig03 never touches the embedding: it completed.
        assert by_id["fig03"]["status"] == "ok"
        # fig16 needs lat and fig19 needs alert, both built on vivaldi: each
        # figure names the root failure, not the artifact nearest to it.
        root = "RuntimeError: embedding exploded"
        for experiment_id in ("fig16", "fig19"):
            assert by_id[experiment_id]["status"] == "error"
            assert by_id[experiment_id]["error"] == f"shared artifact vivaldi failed: {root}"
        # lat and alert were cascaded, not attempted, each naming the
        # artifact it waited on, in the order the cascade reached them.
        shared = payload["shared_precompute"]
        assert shared["status"] == "error"
        assert shared["error"] == (
            f"vivaldi: {root}; lat: artifact vivaldi failed: {root}; "
            f"alert: artifact vivaldi failed: {root}"
        )


    def test_independent_failures_report_alike_whichever_fails_first(
        self, tmp_path, monkeypatch
    ):
        # Severity and vivaldi fail independently; whichever a worker
        # reports first, failures cascade in DAG order, so every run of
        # the DAG writes the same report.
        import repro.artifacts.nodes as nodes

        original = {name: nodes._NODES[name] for name in ("severity", "vivaldi")}
        messages = {"severity": "severity exploded", "vivaldi": "embedding exploded"}

        def failing(name, delayed):
            def compute(ctx, instance):
                if delayed:
                    time.sleep(0.5)
                raise RuntimeError(messages[name])

            return compute

        reports = {}
        for delayed in ("severity", "vivaldi"):
            for name, node in original.items():
                replaced = dataclasses.replace(node, compute=failing(name, name == delayed))
                monkeypatch.setitem(nodes._NODES, name, replaced)
            for jobs in (1, 2):
                report_path = tmp_path / f"{delayed}-jobs{jobs}.json"
                with pytest.raises(ExperimentError):
                    run_experiments(
                        TINY,
                        only=["fig03", "fig16", "fig19"],
                        jobs=jobs,
                        cache_dir=tmp_path / f"cache-{delayed}-{jobs}",
                        report_path=report_path,
                    )
                payload = json.loads(report_path.read_text(encoding="utf-8"))
                reports[(delayed, jobs)] = (
                    payload["shared_precompute"]["error"],
                    [(row["id"], row["status"], row["error"]) for row in payload["experiments"]],
                )
        first = reports[("severity", 1)]
        assert all(report == first for report in reports.values()), reports
        severity = "RuntimeError: severity exploded"
        vivaldi = "RuntimeError: embedding exploded"
        shared_error, rows = first
        assert shared_error == (
            f"severity[ds2_like,48]: {severity}; vivaldi: {vivaldi}; "
            f"lat: artifact vivaldi failed: {vivaldi}; alert: artifact vivaldi failed: {vivaldi}"
        )
        errors = {experiment_id: error for experiment_id, _, error in rows}
        assert errors["fig19"] == f"shared artifact severity[ds2_like,48] failed: {severity}"

    def test_matrix_exceptions_attributed_per_scenario(self, tmp_path, monkeypatch):
        # A broken scenario must not leak its exception into a healthy
        # scenario's outcome (each outcome chains a cause that actually
        # affected it), in-process and on the pool alike.
        import repro.artifacts.nodes as nodes
        from repro.experiments.engine import run_plans
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import scenario_config

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
        configs = {
            name: scenario_config(TINY, get_scenario(name))
            for name in ("baseline", "tiv_free")
        }
        for jobs in (1, 2):
            outcomes = run_plans(
                configs, ["fig03", "fig19"], jobs=jobs, cache_dir=tmp_path / f"cache{jobs}"
            )
            assert outcomes["baseline"].failures == {}
            assert outcomes["baseline"].first_exception is None
            assert "fig19" in outcomes["tiv_free"].failures
            assert isinstance(outcomes["tiv_free"].first_exception, RuntimeError)
            assert "tiv_free generator exploded" in str(
                outcomes["tiv_free"].first_exception
            )


#: Cheap figures whose closures between them cover every main-dataset node.
_PROPERTY_FIGURES = ("fig03", "fig08", "fig10", "fig11", "text_3_2_1", "fig15", "fig16", "fig19")
_PROPERTY_NODES = ("dataset", "severity", "clusters", "shortest", "vivaldi", "alert", "ides", "lat")


class TestInProcessFrontierProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        figures=st.lists(
            st.sampled_from(_PROPERTY_FIGURES), min_size=1, max_size=3, unique=True
        ),
        broken=st.sets(st.sampled_from(_PROPERTY_NODES), max_size=2),
    )
    def test_broken_nodes_fail_exactly_the_figures_whose_closure_holds_them(
        self, figures, broken
    ):
        # The oracle is the resolved plan, not the scheduler: a figure must
        # fail iff its artifact closure contains a node whose compute raises.
        import repro.artifacts.nodes as nodes

        plan = resolve_plan(TINY, figures)
        doomed = {
            experiment_id
            for experiment_id in figures
            if any(key.node in broken for key in plan.figure_needs[experiment_id])
        }
        computed: list[str] = []

        def instrumented(node):
            def compute(ctx, instance):
                computed.append(stable_key(node.kind, node.params(ctx, instance)))
                if node.name in broken:
                    raise RuntimeError(f"injected {node.name} failure")
                return node.compute(ctx, instance)

            return dataclasses.replace(node, compute=compute)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for name, node in list(nodes._NODES.items()):
                patch.setitem(nodes._NODES, name, instrumented(node))
            report_path = Path(tmp) / "report.json"
            try:
                run_experiments(TINY, only=figures, jobs=1, report_path=report_path)
            except ExperimentError:
                assert doomed
            else:
                assert not doomed
            payload = json.loads(report_path.read_text(encoding="utf-8"))

        assert len(computed) == len(set(computed)), computed
        by_id = {row["id"]: row for row in payload["experiments"]}
        assert {eid for eid, row in by_id.items() if row["status"] != "ok"} == doomed
        for experiment_id in doomed:
            error = by_id[experiment_id]["error"]
            assert any(f"injected {name} failure" in error for name in broken), error


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

    def test_scheduler_never_submits_one_address_twice(self, monkeypatch):
        # Deduplication by address is what guarantees "exactly one
        # compute" even when many consumers race for the same artifact:
        # the engine's frontier submits one task per address, full stop.
        # Read off the scheduler's own submissions in a cold in-process run.
        import repro.experiments.engine as engine
        from repro.artifacts.nodes import ArtifactKey

        figures = ["fig15", "fig16", "fig17", "fig19"]
        plan = resolve_plan(TINY, figures)
        submitted: list[str] = []
        run_task = engine._run_task

        def recording(context, target):
            if isinstance(target, ArtifactKey):
                submitted.append(plan.graph[target].address)
            return run_task(context, target)

        monkeypatch.setattr(engine, "_run_task", recording)
        run_experiments(TINY, only=figures, jobs=1)
        assert len(submitted) == len(set(submitted)), submitted
        # Every artifact of the plan maps onto exactly one task address.
        assert {artifact.address for artifact in plan.graph} == set(submitted)
