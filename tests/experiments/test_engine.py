"""Tests for the parallel cached experiment engine.

The configurations here are deliberately tiny so the module stays fast; the
engine's behaviour (parallel == sequential, warm run == cold run, 100 %
cache hits on the second pass) is seed- and size-independent.
"""

import json

import numpy as np
import pytest

from repro.artifacts import resolve_plan
from repro.errors import ExperimentError
from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.engine import (
    resolve_jobs,
    results_equal,
    run_experiments,
)
from repro.experiments.registry import (
    list_experiments,
    run_all_experiments,
    run_experiment,
)

TINY = ExperimentConfig(
    n_nodes=48,
    vivaldi_seconds=8,
    selection_runs=1,
    max_clients=16,
    meridian_small_count=10,
)

#: Cheap subset that still exercises every shared artefact (matrix,
#: clusters, severity, shortest paths, Vivaldi, alert, multi-dataset loads).
SUBSET = ("fig02", "fig03", "fig08", "fig19", "text_3_2_1")

#: The figures whose simulation runs are artifacts of their own, one each.
SIMULATION_FIGURES = {"fig11": "oscillation", "fig13": "misplacement", "fig22_23": "dynamic"}


class TestParallelExecution:
    def test_parallel_matches_sequential(self):
        sequential = run_experiments(TINY, only=list(SUBSET), jobs=1)
        parallel = run_experiments(TINY, only=list(SUBSET), jobs=2)
        assert set(sequential.results) == set(parallel.results) == set(SUBSET)
        for experiment_id in SUBSET:
            assert results_equal(
                sequential.results[experiment_id].data,
                parallel.results[experiment_id].data,
            ), experiment_id

    def test_parallel_report_covers_every_experiment(self):
        outcome = run_experiments(TINY, only=list(SUBSET), jobs=2)
        report = outcome.report.as_dict()
        assert [entry["id"] for entry in report["experiments"]] == list(SUBSET)
        assert all(entry["status"] == "ok" for entry in report["experiments"])
        assert report["jobs"] == 2

    def test_unknown_id_rejected_in_parallel_mode(self):
        with pytest.raises(ExperimentError):
            run_experiments(TINY, only=["fig99"], jobs=2)

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ExperimentError):
            resolve_jobs(-2)


class TestCachedRuns:
    def test_cold_then_warm_run_is_all_hits(self, tmp_path):
        for subset in (SUBSET, tuple(SIMULATION_FIGURES)):
            cache_dir = tmp_path / "-".join(subset)
            report_path = tmp_path / "BENCH_experiments.json"
            cold = run_experiments(
                TINY, only=list(subset), jobs=1, cache_dir=cache_dir, report_path=report_path
            )
            assert cold.report.total_cache().misses > 0
            assert not cold.report.all_cache_hits

            warm = run_experiments(
                TINY, only=list(subset), jobs=1, cache_dir=cache_dir, report_path=report_path
            )
            total = warm.report.total_cache()
            assert total.misses == 0
            assert total.hits > 0
            assert warm.report.all_cache_hits
            for experiment_id in subset:
                assert results_equal(
                    cold.results[experiment_id].data, warm.results[experiment_id].data
                ), experiment_id

        # The cold run computed each simulation run once; the warm one computed nothing.
        computes = {record.node: record.computes for record in cold.report.artifacts}
        assert [computes.get(node) for node in SIMULATION_FIGURES.values()] == [1, 1, 1]
        assert not any(record.computes for record in warm.report.artifacts)

    def test_full_sweep_warm_phase_precomputes_shared_artifacts(self, tmp_path):
        outcome = run_experiments(TINY, jobs=1, cache_dir=tmp_path / "artifacts")
        report = outcome.report.as_dict()
        assert report["shared_precompute"] is not None
        assert report["shared_precompute"]["cache"]["stores"] > 0
        assert len(outcome.results) == len(report["experiments"])

    def test_report_file_schema(self, tmp_path):
        report_path = tmp_path / "BENCH_experiments.json"
        run_experiments(
            TINY, only=["fig03"], jobs=1, cache_dir=tmp_path / "artifacts",
            report_path=report_path,
        )
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "bench-experiments/v1"
        assert payload["config"]["n_nodes"] == TINY.n_nodes
        assert {"experiments", "wall_seconds", "cache", "all_cache_hits"} <= set(
            payload["totals"]
        )
        for entry in payload["experiments"]:
            assert {"id", "wall_seconds", "cache", "status"} <= set(entry)

    def test_parallel_warm_run_matches_uncached(self, tmp_path):
        uncached = run_experiments(TINY, only=list(SUBSET), jobs=1)
        cache_dir = tmp_path / "artifacts"
        # Prime with the same parallel command: repeating an identical
        # invocation is the warm-run contract (a parallel run's warm phase
        # provisions every shared artefact, including ones the subset
        # itself never touches).
        run_experiments(TINY, only=list(SUBSET), jobs=2, cache_dir=cache_dir)
        warm_parallel = run_experiments(
            TINY, only=list(SUBSET), jobs=2, cache_dir=cache_dir
        )
        assert warm_parallel.report.all_cache_hits
        for experiment_id in SUBSET:
            assert results_equal(
                uncached.results[experiment_id].data,
                warm_parallel.results[experiment_id].data,
            ), experiment_id

    def test_compressed_cache_of_older_releases_serves_warm_runs(self, tmp_path):
        # Older releases wrote every .npz with np.savez_compressed under the
        # same addresses; a warm run over such a cache must miss nothing.
        cache_dir = tmp_path / "artifacts"
        cold = run_experiments(TINY, only=list(SUBSET), jobs=2, cache_dir=cache_dir)
        archives = sorted(cache_dir.glob("*/*.npz"))
        assert archives
        for path in archives:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
            np.savez_compressed(path, **arrays)
        warm = run_experiments(TINY, only=list(SUBSET), jobs=2, cache_dir=cache_dir)
        assert warm.report.all_cache_hits
        assert warm.report.total_cache().misses == 0
        for experiment_id in SUBSET:
            assert results_equal(
                cold.results[experiment_id].data, warm.results[experiment_id].data
            ), experiment_id


class TestContextCache:
    def test_matrix_and_severity_round_trip_bit_for_bit(self, tmp_path):
        cache = ArtifactCache(tmp_path / "artifacts")
        first = ExperimentContext(TINY, cache=cache)
        matrix = first.matrix
        severity = first.severity
        shortest = first.shortest_paths

        second = ExperimentContext(TINY, cache=ArtifactCache(tmp_path / "artifacts"))
        assert np.array_equal(second.matrix.values, matrix.values, equal_nan=True)
        assert second.matrix.labels == matrix.labels
        assert np.array_equal(
            second.severity.severity, severity.severity, equal_nan=True
        )
        assert np.array_equal(
            second.severity.violation_counts, severity.violation_counts
        )
        assert np.array_equal(second.shortest_paths, shortest, equal_nan=True)

    def test_vivaldi_and_alert_round_trip(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        first = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        vivaldi = first.vivaldi
        alert = first.alert

        second = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        restored = second.vivaldi
        assert np.array_equal(restored.coordinates, vivaldi.coordinates)
        assert np.array_equal(restored.errors, vivaldi.errors)
        assert restored.simulation_time == vivaldi.simulation_time
        assert np.array_equal(
            restored.predicted_matrix(), vivaldi.predicted_matrix()
        )
        assert np.array_equal(
            second.alert.ratio_matrix, alert.ratio_matrix, equal_nan=True
        )

    def test_selection_knobs_do_not_invalidate_embedding_cache(self, tmp_path):
        # max_clients/selection_runs never enter the Vivaldi simulation, so
        # changing them must reuse the cached embedding and alert.
        cache_dir = tmp_path / "artifacts"
        first = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        original = first.alert

        import dataclasses

        tweaked = dataclasses.replace(TINY, max_clients=7, selection_runs=2)
        counting = ArtifactCache(cache_dir)
        second = ExperimentContext(tweaked, cache=counting)
        assert np.array_equal(
            second.alert.ratio_matrix, original.ratio_matrix, equal_nan=True
        )
        assert counting.stats.misses == 0
        assert counting.stats.hits >= 1

    def test_cluster_assignment_round_trip(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        first = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        original = first.cluster_assignment
        second = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        restored = second.cluster_assignment
        assert np.array_equal(restored.labels, original.labels)
        assert restored.n_clusters == original.n_clusters
        assert restored.heads == original.heads
        assert restored.cluster_radius == pytest.approx(original.cluster_radius)

    def test_corrupted_entry_is_recomputed_not_crashed(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        first = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        expected = first.matrix.values.copy()

        for npz_path in cache_dir.rglob("*.npz"):
            npz_path.write_bytes(b"garbage, not an archive")

        recovered = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        assert np.array_equal(recovered.matrix.values, expected, equal_nan=True)
        # The recomputed artefact was re-stored, so a third context hits.
        cache = ArtifactCache(cache_dir)
        third = ExperimentContext(TINY, cache=cache)
        assert np.array_equal(third.matrix.values, expected, equal_nan=True)
        assert cache.stats.hits >= 1
        assert cache.stats.misses == 0

    def test_uncached_context_unchanged(self):
        context = ExperimentContext(TINY)
        assert context.cache is None
        assert context.matrix.n_nodes == TINY.n_nodes


class TestRegistryIntegration:
    def test_run_all_experiments_delegates_to_engine(self, tmp_path):
        results = run_all_experiments(
            TINY, only=["fig03"], jobs=1, cache_dir=str(tmp_path / "artifacts")
        )
        assert set(results) == {"fig03"}
        # The delegate persisted artefacts: a context over the same dir hits.
        cache = ArtifactCache(tmp_path / "artifacts")
        context = ExperimentContext(TINY, cache=cache)
        _ = context.matrix
        assert cache.stats.hits == 1

    def test_run_experiment_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99", TINY)

    def test_run_experiment_with_shared_context(self):
        context = ExperimentContext(TINY)
        via_context = run_experiment("fig03", context=context)
        via_config = run_experiment("fig03", TINY)
        assert results_equal(via_context.data, via_config.data)


class TestResultsEqual:
    def test_nan_tolerant(self):
        assert results_equal(
            {"a": [1.0, float("nan")], "b": np.array([np.nan, 2.0])},
            {"a": [1.0, float("nan")], "b": np.array([np.nan, 2.0])},
        )

    def test_detects_differences(self):
        assert not results_equal({"a": 1}, {"a": 2})
        assert not results_equal({"a": 1}, {"b": 1})
        assert not results_equal([1, 2], [1, 2, 3])
        assert not results_equal(np.arange(3), np.arange(4))


class TestEngineValidation:
    def test_unknown_only_rejected_before_running(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown experiments"):
            run_experiments(
                TINY,
                only=["fig03", "not_a_figure"],
                jobs=1,
                cache_dir=tmp_path / "artifacts",
            )
        # Nothing ran: the cache directory was never populated.
        assert not list((tmp_path / "artifacts").rglob("*.npz"))


class TestDeclaredNeedsScoping:
    @pytest.mark.parametrize("experiment_id", sorted(list_experiments()))
    def test_declared_needs_match_runner_usage(self, tmp_path, experiment_id):
        # Pin the declarations to reality: materialising exactly the
        # declared artifact graph must leave the runner with zero cache
        # misses.  A stale declaration would make cold parallel workers
        # silently recompute the skipped artifact (no failure, just
        # duplicated wall-clock).
        cache_dir = tmp_path / "artifacts"
        context = ExperimentContext(TINY, cache=ArtifactCache(cache_dir))
        for key in resolve_plan(TINY, [experiment_id]).graph.topological_order():
            context.materialize(key)

        counting = ArtifactCache(cache_dir)
        run_experiment(
            experiment_id, context=ExperimentContext(TINY, cache=counting)
        )
        assert counting.stats.misses == 0, (
            f"{experiment_id} used artifacts its registered needs do not declare"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_already_warm_parallel_run_submits_no_artifact_tasks(self, tmp_path, jobs):
        # Every artifact address is already materialised, so the frontier
        # scheduler must submit zero artifact tasks, in-process or on the
        # pool: the shared record stays all-zero and the figures run
        # straight off the cache.
        cache_dir = tmp_path / "artifacts"
        run_experiments(TINY, only=list(SUBSET), jobs=jobs, cache_dir=cache_dir)
        warm = run_experiments(TINY, only=list(SUBSET), jobs=jobs, cache_dir=cache_dir)
        shared = warm.report.as_dict()["shared_precompute"]
        assert shared["cache"] == {"hits": 0, "misses": 0, "stores": 0}
        assert warm.report.as_dict()["artifacts"] == []
        assert warm.report.all_cache_hits

    def test_subset_warm_skips_unneeded_artifacts(self, tmp_path):
        # fig03 needs matrix/clusters/severity only: no Vivaldi, alert or
        # shortest-path entries should be materialised.
        run_experiments(TINY, only=["fig03"], jobs=2, cache_dir=tmp_path / "artifacts")
        kinds = {p.name for p in (tmp_path / "artifacts").iterdir()}
        assert "dataset" in kinds and "severity" in kinds and "clusters" in kinds
        assert "vivaldi" not in kinds
        assert "alert" not in kinds
        assert "shortest_path" not in kinds


class TestFailureReporting:
    def test_failed_experiment_recorded_and_raised(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        def _boom(config=None, *, context=None, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(_boom, frozenset({"matrix"})),
        )
        report_path = tmp_path / "BENCH_experiments.json"
        with pytest.raises(ExperimentError, match="synthetic failure"):
            run_experiments(
                TINY, only=["fig03", "fig08"], jobs=1, report_path=report_path
            )
        # The report was still written, with the failure recorded and the
        # healthy experiment completed.
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        by_id = {entry["id"]: entry for entry in payload["experiments"]}
        assert by_id["fig03"]["status"] == "error"
        assert "synthetic failure" in by_id["fig03"]["error"]
        assert by_id["fig08"]["status"] == "ok"


class TestSchemaMismatchRecovery:
    def test_entry_with_wrong_fields_is_recomputed(self, tmp_path):
        from repro.artifacts import ArtifactKey

        cache = ArtifactCache(tmp_path / "artifacts")
        context = ExperimentContext(TINY, cache=cache)
        params = context.artifact_params(ArtifactKey("clusters"))
        # A structurally valid entry whose contents don't match what the
        # restore path expects (e.g. written by an older code version).
        cache.store("clusters", params, {"wrong_array": np.zeros(3)}, meta={})
        assignment = context.cluster_assignment
        assert assignment.n_clusters >= 1
        # The bad entry was evicted and replaced; a fresh context now
        # restores the recomputed one cleanly.
        fresh = ExperimentContext(TINY, cache=ArtifactCache(tmp_path / "artifacts"))
        assert np.array_equal(fresh.cluster_assignment.labels, assignment.labels)


class TestRobustness:
    def test_duplicate_only_ids_are_deduplicated(self):
        outcome = run_experiments(TINY, only=["fig03", "fig03", "fig03"], jobs=1)
        assert list(outcome.results) == ["fig03"]
        assert [r.experiment_id for r in outcome.report.records] == ["fig03"]
        assert outcome.report.as_dict()["totals"]["experiments"] == 1

    def test_failure_error_includes_exception_type_and_chains_cause(self, monkeypatch):
        from repro.experiments import registry

        def _boom(config=None, *, context=None, **kwargs):
            raise ValueError()  # deliberately empty message

        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(_boom, frozenset({"matrix"})),
        )
        with pytest.raises(ExperimentError, match="ValueError") as excinfo:
            run_experiments(TINY, only=["fig03"], jobs=1)
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestStrawmanArtifacts:
    """The cached IDES/LAT embeddings (ISSUE 4) behave like every artefact."""

    def test_fig15_fig16_deterministic_across_jobs(self):
        """Per-seed determinism of the batched strawman kernels must hold
        whether the runners share one in-process context (jobs=1) or
        rebuild their own from scratch in worker processes (jobs=2)."""
        sequential = run_experiments(TINY, only=["fig15", "fig16"], jobs=1)
        parallel = run_experiments(TINY, only=["fig15", "fig16"], jobs=2)
        for experiment_id in ("fig15", "fig16"):
            assert results_equal(
                sequential.results[experiment_id].data,
                parallel.results[experiment_id].data,
            ), experiment_id

    def test_warm_run_restores_identical_strawman_results(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        cold = run_experiments(TINY, only=["fig15", "fig16"], jobs=1, cache_dir=cache_dir)
        warm = run_experiments(TINY, only=["fig15", "fig16"], jobs=1, cache_dir=cache_dir)
        for experiment_id in ("fig15", "fig16"):
            assert results_equal(
                cold.results[experiment_id].data, warm.results[experiment_id].data
            ), experiment_id
        assert warm.report.all_cache_hits
