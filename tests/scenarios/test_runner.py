"""Tests for the scenario-matrix runner and its report."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import results_equal, run_experiments
from repro.experiments.registry import run_experiment
from repro.scenarios.library import (
    SCENARIO_MATRICES,
    available_matrices,
    available_scenarios,
    get_scenario,
    scenario_matrix,
)
from repro.scenarios.runner import (
    SCENARIO_REPORT_SCHEMA,
    run_scenario_matrix,
    scenario_config,
)

TINY = ExperimentConfig(
    n_nodes=32,
    vivaldi_seconds=5,
    selection_runs=1,
    max_clients=8,
    meridian_small_count=8,
)


class TestLibrary:
    def test_small_is_a_subset_of_full(self):
        small = {s.name for s in scenario_matrix("small")}
        full = {s.name for s in scenario_matrix("full")}
        assert small < full

    def test_small_covers_the_core_dimensions(self):
        small = {s.name for s in scenario_matrix("small")}
        assert "baseline" in small
        assert {"tiv_free", "heavy_tiv"} <= small

    def test_matrices_listed(self):
        assert set(available_matrices()) == set(SCENARIO_MATRICES)

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ConfigError):
            scenario_matrix("huge")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            get_scenario("not_a_scenario")

    def test_every_scenario_resolvable(self):
        for name in available_scenarios():
            assert get_scenario(name).name == name

    def test_baseline_is_the_only_noop(self):
        noops = [name for name in available_scenarios() if get_scenario(name).is_noop]
        # half_size/double_size are generative no-ops by design: their size
        # dimension acts through n_nodes before generation.
        assert "baseline" in noops
        assert set(noops) <= {"baseline", "half_size", "double_size"}


class TestScenarioConfig:
    def test_sets_scenario_name(self):
        cfg = scenario_config(TINY, get_scenario("heavy_tiv"))
        assert cfg.scenario == "heavy_tiv"
        assert cfg.n_nodes == TINY.n_nodes

    def test_size_factor_scales_node_count(self):
        cfg = scenario_config(TINY, get_scenario("double_size"))
        assert cfg.n_nodes == 2 * TINY.n_nodes
        half = scenario_config(TINY, get_scenario("half_size"))
        assert half.n_nodes == TINY.n_nodes // 2


class TestRunScenarioMatrix:
    def test_small_matrix_report(self, tmp_path):
        report_path = tmp_path / "BENCH_scenarios.json"
        outcome = run_scenario_matrix(
            TINY,
            matrix="small",
            only=["fig03"],
            jobs=1,
            cache_dir=tmp_path / "cache",
            report_path=report_path,
        )
        names = [s.name for s in scenario_matrix("small")]
        assert list(outcome.outcomes) == names

        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["schema"] == SCENARIO_REPORT_SCHEMA
        assert payload["matrix"] == "small"
        assert [row["scenario"]["name"] for row in payload["scenarios"]] == names
        assert all(row["status"] == "ok" for row in payload["scenarios"])
        assert payload["totals"]["scenarios"] == len(names)
        assert payload["totals"]["experiments"] == len(names)
        assert payload["totals"]["failed_scenarios"] == 0

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        kwargs = dict(
            matrix="small", only=["fig03"], jobs=1, cache_dir=tmp_path / "cache"
        )
        cold = run_scenario_matrix(TINY, **kwargs)
        assert cold.report.total_cache().misses > 0
        warm = run_scenario_matrix(TINY, **kwargs)
        total = warm.report.total_cache()
        assert total.misses == 0
        assert total.hits > 0
        assert warm.report.all_cache_hits
        for name in warm.outcomes:
            assert results_equal(
                cold.outcomes[name].results["fig03"].data,
                warm.outcomes[name].results["fig03"].data,
            ), name

    def test_parallel_matrix_matches_sequential(self, tmp_path):
        kwargs = dict(scenarios=["baseline", "heavy_tiv"], only=["fig03", "fig08"])
        sequential = run_scenario_matrix(
            TINY, jobs=1, cache_dir=tmp_path / "c1", **kwargs
        )
        parallel = run_scenario_matrix(
            TINY, jobs=2, cache_dir=tmp_path / "c2", **kwargs
        )
        for name, seq_outcome in sequential.outcomes.items():
            for experiment_id, result in seq_outcome.results.items():
                assert results_equal(
                    result.data, parallel.outcomes[name].results[experiment_id].data
                ), (name, experiment_id)
        payload = parallel.report.as_dict()
        assert all(row["status"] == "ok" for row in payload["scenarios"])
        assert all(
            row["report"]["shared_precompute"] is not None
            for row in payload["scenarios"]
        )

    def test_parallel_warm_rerun_is_all_cache_hits(self, tmp_path):
        kwargs = dict(
            scenarios=["baseline", "tiv_free"],
            only=["fig03"],
            jobs=2,
            cache_dir=tmp_path / "cache",
        )
        run_scenario_matrix(TINY, **kwargs)
        warm = run_scenario_matrix(TINY, **kwargs)
        total = warm.report.total_cache()
        assert total.misses == 0
        assert total.hits > 0
        assert warm.report.all_cache_hits

    def test_parallel_uncached_matrix_runs(self):
        outcome = run_scenario_matrix(
            TINY, scenarios=["baseline", "heavy_tiv"], only=["fig03"], jobs=2
        )
        assert all(not o.failures for o in outcome.outcomes.values())
        assert outcome.report.cache_dir is None
        # The ephemeral scratch directory must not leak into the nested
        # per-scenario reports either (it is deleted after the run).
        for row in outcome.report.as_dict()["scenarios"]:
            assert row["report"]["cache_dir"] is None

    def test_scenarios_produce_distinct_results(self, tmp_path):
        outcome = run_scenario_matrix(
            TINY,
            scenarios=["baseline", "heavy_tiv"],
            only=["fig03"],
            jobs=1,
            cache_dir=tmp_path / "cache",
        )
        baseline = outcome.outcomes["baseline"].results["fig03"].data
        heavy = outcome.outcomes["heavy_tiv"].results["fig03"].data
        assert not results_equal(baseline, heavy)

    def test_explicit_scenario_subset(self):
        outcome = run_scenario_matrix(
            TINY, scenarios=["tiv_free"], only=["fig03"], jobs=1
        )
        assert list(outcome.outcomes) == ["tiv_free"]
        assert outcome.report.matrix == "custom"

    def test_only_iterable_consumed_once(self):
        # A one-shot iterable must select the same figures for every
        # scenario, not just the first one.
        outcome = run_scenario_matrix(
            TINY, scenarios=["baseline", "tiv_free"], only=iter(["fig03"]), jobs=1
        )
        for name, scenario_outcome in outcome.outcomes.items():
            assert list(scenario_outcome.results) == ["fig03"], name

    def test_warm_failure_recorded_not_fatal(self, tmp_path, monkeypatch):
        # A scenario whose artifact chain blows up is recorded against
        # every figure it feeds; the rest of the matrix still runs and the
        # report is written before the summary error is raised, in-process
        # and on the pool alike.
        import dataclasses

        import repro.artifacts.nodes as nodes

        real_compute = nodes._NODES["dataset"].compute

        def _flaky(ctx, instance):
            if ctx.config.scenario == "tiv_free":
                raise RuntimeError("generator exploded")
            return real_compute(ctx, instance)

        monkeypatch.setitem(
            nodes._NODES,
            "dataset",
            dataclasses.replace(nodes._NODES["dataset"], compute=_flaky),
        )
        for jobs in (1, 2):
            report_path = tmp_path / f"BENCH_scenarios-{jobs}.json"
            with pytest.raises(ExperimentError, match="generator exploded") as excinfo:
                run_scenario_matrix(
                    TINY,
                    scenarios=["baseline", "tiv_free"],
                    only=["fig03"],
                    jobs=jobs,
                    report_path=report_path,
                )
            assert isinstance(excinfo.value.__cause__, RuntimeError)
            payload = json.loads(report_path.read_text(encoding="utf-8"))
            by_name = {row["scenario"]["name"]: row for row in payload["scenarios"]}
            assert by_name["baseline"]["status"] == "ok"
            assert by_name["tiv_free"]["status"] == "error"
            assert "generator exploded" in by_name["tiv_free"]["failures"]["fig03"]
            shared = by_name["tiv_free"]["report"]["shared_precompute"]
            assert shared["status"] == "error"

    def test_empty_scenario_list_rejected(self):
        with pytest.raises(ExperimentError, match="empty scenario list"):
            run_scenario_matrix(TINY, scenarios=[], only=["fig03"])

    def test_base_config_with_scenario_rejected(self):
        import dataclasses

        scoped = dataclasses.replace(TINY, scenario="heavy_tiv")
        with pytest.raises(ExperimentError, match="scenario-free"):
            run_scenario_matrix(scoped, only=["fig03"])

    def test_failures_recorded_and_raised(self, tmp_path, monkeypatch):
        from repro.experiments import registry

        def _boom(config=None, *, context=None, **kwargs):
            raise RuntimeError("scenario failure")

        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(_boom, frozenset({"matrix"})),
        )
        report_path = tmp_path / "BENCH_scenarios.json"
        # The raised summary carries the per-figure error text and chains
        # the original exception, so CI logs are diagnosable without the
        # report file.
        with pytest.raises(ExperimentError, match="scenario failure") as excinfo:
            run_scenario_matrix(
                TINY,
                scenarios=["baseline", "tiv_free"],
                only=["fig03"],
                jobs=1,
                report_path=report_path,
            )
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert all(row["status"] == "error" for row in payload["scenarios"])
        assert payload["totals"]["failed_scenarios"] == 2


class TestScenarioDimensionIntegration:
    def test_run_experiment_scenario_shorthand(self):
        import dataclasses

        via_kwarg = run_experiment("fig03", TINY, scenario="heavy_tiv")
        via_config = run_experiment(
            "fig03", dataclasses.replace(TINY, scenario="heavy_tiv")
        )
        assert results_equal(via_kwarg.data, via_config.data)

    def test_run_experiment_conflicting_scenarios_rejected(self):
        import dataclasses

        scoped = dataclasses.replace(TINY, scenario="tiv_free")
        with pytest.raises(ExperimentError, match="conflicting"):
            run_experiment("fig03", scoped, scenario="heavy_tiv")

    def test_context_cannot_be_rescoped(self):
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(TINY)
        with pytest.raises(ExperimentError, match="re-scoped"):
            run_experiment("fig03", context=context, scenario="heavy_tiv")

    def test_unknown_scenario_fails_at_context_construction(self):
        import dataclasses

        from repro.experiments.context import ExperimentContext

        with pytest.raises(ConfigError, match="unknown scenario"):
            ExperimentContext(dataclasses.replace(TINY, scenario="nope"))

    def test_engine_runs_scenario_config_with_cache(self, tmp_path):
        import dataclasses

        scoped = dataclasses.replace(TINY, scenario="heavy_tiv")
        cold = run_experiments(
            scoped, only=["fig03"], jobs=1, cache_dir=tmp_path / "cache"
        )
        warm = run_experiments(
            scoped, only=["fig03"], jobs=1, cache_dir=tmp_path / "cache"
        )
        assert warm.report.all_cache_hits
        assert results_equal(
            cold.results["fig03"].data, warm.results["fig03"].data
        )

    def test_scenario_and_baseline_cache_entries_do_not_collide(self, tmp_path):
        import dataclasses

        cache_dir = tmp_path / "cache"
        plain = run_experiments(TINY, only=["fig03"], jobs=1, cache_dir=cache_dir)
        scoped = run_experiments(
            dataclasses.replace(TINY, scenario="heavy_tiv"),
            only=["fig03"],
            jobs=1,
            cache_dir=cache_dir,
        )
        # The scenario run found a warm cache but none of its own entries.
        assert scoped.report.total_cache().misses > 0
        assert not results_equal(
            plain.results["fig03"].data, scoped.results["fig03"].data
        )

    def test_baseline_scenario_shares_cache_with_plain_runs(self, tmp_path):
        import dataclasses

        cache_dir = tmp_path / "cache"
        run_experiments(TINY, only=["fig03"], jobs=1, cache_dir=cache_dir)
        baseline = run_experiments(
            dataclasses.replace(TINY, scenario="baseline"),
            only=["fig03"],
            jobs=1,
            cache_dir=cache_dir,
        )
        assert baseline.report.all_cache_hits

    def test_parallel_scenario_run_matches_sequential(self, tmp_path):
        import dataclasses

        scoped = dataclasses.replace(TINY, scenario="noisy_sparse")
        sequential = run_experiments(scoped, only=["fig03"], jobs=1)
        parallel = run_experiments(
            scoped, only=["fig03"], jobs=2, cache_dir=tmp_path / "cache"
        )
        assert results_equal(
            sequential.results["fig03"].data, parallel.results["fig03"].data
        )

    def test_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "BENCH_scenarios.json"
        exit_code = main(
            [
                "run-scenarios",
                "--scenario",
                "baseline",
                "tiv_free",
                "--only",
                "fig03",
                "--nodes",
                "32",
                "--report",
                str(report_path),
            ]
        )
        assert exit_code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert payload["schema"] == SCENARIO_REPORT_SCHEMA
        assert report_path.exists()

    def test_cli_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "--matrix", "small"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in listed] == [
            s.name for s in scenario_matrix("small")
        ]

    def test_cli_run_with_scenario_flag(self, capsys):
        from repro.cli import main

        assert (
            main(["run", "fig03", "--nodes", "32", "--scenario", "heavy_tiv"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig03"

    def test_size_only_scenario_scales_through_every_entry_point(self, capsys):
        # half_size has no generative knobs; its size_factor must still
        # apply when the scenario is named via the registry shorthand or
        # the CLI, not only through run_scenario_matrix.
        import dataclasses

        from repro.cli import main

        via_registry = run_experiment("fig03", TINY, scenario="half_size")
        # A generative no-op at half the node count: identical to running
        # the plain config at n_nodes // 2.
        direct = run_experiment(
            "fig03", dataclasses.replace(TINY, n_nodes=TINY.n_nodes // 2)
        )
        assert results_equal(via_registry.data, direct.data)

        assert main(["run-all", "--nodes", "32", "--only", "fig03",
                     "--scenario", "half_size"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["n_nodes"] == 16
        assert payload["config"]["scenario"] == "half_size"


class TestScenarioValuesAreReasonable:
    def test_heavy_tiv_raises_severity_over_baseline(self):
        from repro.experiments.context import ExperimentContext

        import dataclasses

        base = ExperimentContext(TINY).severity.summary()["mean"]
        heavy = ExperimentContext(
            dataclasses.replace(TINY, scenario="heavy_tiv")
        ).severity.summary()["mean"]
        assert heavy > base

    def test_matrix_values_match_direct_generator_output(self):
        import dataclasses

        from repro.experiments.context import ExperimentContext
        from repro.scenarios.generators import load_scenario_dataset
        from repro.scenarios.library import get_scenario

        ctx = ExperimentContext(dataclasses.replace(TINY, scenario="churn_snapshot"))
        direct, _ = load_scenario_dataset(
            get_scenario("churn_snapshot"), TINY.dataset, TINY.n_nodes, TINY.seed
        )
        assert np.array_equal(ctx.matrix.values, direct.values, equal_nan=True)
