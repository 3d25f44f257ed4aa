"""Tests for artifact-graph resolution (repro.artifacts)."""

import dataclasses

import pytest

from repro.artifacts import (
    ArtifactGraph,
    ArtifactKey,
    ResolvedArtifact,
    graph_status,
    resolve_plan,
)
from repro.errors import ExperimentError
from repro.experiments.cache import stable_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import experiment_needs, list_experiments

TINY = ExperimentConfig(n_nodes=48, vivaldi_seconds=8, selection_runs=1, max_clients=16)


class TestResolution:
    @pytest.mark.parametrize("experiment_id", sorted(list_experiments()))
    def test_every_registered_figure_resolves(self, experiment_id):
        # The satellite contract behind deleting the "warm everything"
        # fallback: every figure must resolve from its declaration alone.
        plan = resolve_plan(TINY, [experiment_id])
        closure = plan.figure_needs[experiment_id]
        assert closure <= set(plan.graph.topological_order())
        if experiment_needs(experiment_id):
            assert closure, f"{experiment_id} declares needs but resolved to nothing"

    def test_full_suite_plan_is_closed_and_topological(self):
        plan = resolve_plan(TINY)
        order = plan.graph.topological_order()
        seen = set()
        for key in order:
            assert set(plan.graph[key].deps) <= seen, key.label
            seen.add(key)
        # Dependency closure: every dep of every artifact is in the graph.
        for artifact in plan.graph:
            for dep in artifact.deps:
                assert dep in plan.graph

    def test_waves_respect_dependencies(self):
        plan = resolve_plan(TINY)
        level = {}
        for index, wave in enumerate(plan.graph.waves()):
            for key in wave:
                level[key] = index
        for artifact in plan.graph:
            for dep in artifact.deps:
                assert level[dep] < level[artifact.key]

    def test_embedding_chain_is_declared(self):
        plan = resolve_plan(TINY, ["fig19"])
        graph = plan.graph
        main = ArtifactKey("dataset", (TINY.dataset, TINY.n_nodes))
        assert main in graph
        assert main in graph[ArtifactKey("vivaldi")].deps
        assert ArtifactKey("vivaldi") in graph[ArtifactKey("alert")].deps

    def test_independent_embeddings_share_a_wave(self):
        # vivaldi and ides both depend only on the dataset: the scheduler
        # may build them concurrently, which the wave structure exposes.
        plan = resolve_plan(TINY, ["fig15", "fig16"])
        waves = plan.graph.waves()
        wave_of = {key: i for i, wave in enumerate(waves) for key in wave}
        assert wave_of[ArtifactKey("vivaldi")] == wave_of[ArtifactKey("ides")]
        assert wave_of[ArtifactKey("lat")] > wave_of[ArtifactKey("vivaldi")]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            resolve_plan(TINY, ["fig99"])


class TestAddressCompatibility:
    """The PR-4 cache layout is a contract: addresses must not move."""

    def test_dataset_address_matches_legacy_params(self):
        plan = resolve_plan(TINY, ["fig03"])
        artifact = plan.graph[ArtifactKey("dataset", (TINY.dataset, TINY.n_nodes))]
        legacy = {"preset": TINY.dataset, "n_nodes": TINY.n_nodes, "seed": TINY.seed}
        assert artifact.params == legacy
        assert artifact.address == stable_key("dataset", legacy)

    def test_embedding_addresses_match_legacy_params(self):
        plan = resolve_plan(TINY, ["fig15", "fig16", "fig19"])
        legacy_embedding = {
            "preset": TINY.dataset,
            "n_nodes": TINY.n_nodes,
            "seed": TINY.seed,
            "vivaldi_seconds": TINY.vivaldi_seconds,
            "kernel": "batched",
        }
        assert plan.graph[ArtifactKey("vivaldi")].address == stable_key(
            "vivaldi", legacy_embedding
        )
        # The alert's stored predicted delays changed summation order, so
        # its address is the embedding's plus that era.
        assert plan.graph[ArtifactKey("alert")].address == stable_key(
            "alert", dict(legacy_embedding, sum_order="two-lane")
        )
        legacy_ides = {
            "preset": TINY.dataset,
            "n_nodes": TINY.n_nodes,
            "seed": TINY.seed,
            "kernel": "batched",
        }
        assert plan.graph[ArtifactKey("ides")].address == stable_key("ides", legacy_ides)
        legacy_lat = dict(legacy_embedding, coords_kernel="batched")
        assert plan.graph[ArtifactKey("lat")].address == stable_key("lat", legacy_lat)

    def test_simulation_run_addresses(self):
        # Each address holds exactly the config fields its run reads.
        plan = resolve_plan(TINY, ["fig11", "fig13", "fig22_23"])
        dataset = {"preset": TINY.dataset, "n_nodes": TINY.n_nodes, "seed": TINY.seed}
        warmed = dict(dataset, vivaldi_seconds=TINY.vivaldi_seconds)
        for node, params in (
            ("oscillation", warmed),
            ("misplacement", dataset),
            ("dynamic", warmed),
        ):
            artifact = plan.graph[ArtifactKey(node)]
            assert artifact.params == params, node
            assert artifact.address == stable_key(node, params), node

    def test_kind_layout_unchanged(self):
        # The eight kinds of the original layout, plus the three simulation
        # runs, whose kinds only added entries.
        plan = resolve_plan(TINY)
        kinds = {artifact.kind for artifact in plan.graph}
        assert kinds == {
            "dataset",
            "clusters",
            "severity",
            "shortest_path",
            "vivaldi",
            "alert",
            "ides",
            "lat",
            "oscillation",
            "misplacement",
            "dynamic",
        }

    def test_baseline_scenario_shares_addresses_with_plain(self):
        plain = resolve_plan(TINY)
        baseline = resolve_plan(dataclasses.replace(TINY, scenario="baseline"))
        assert {a.address for a in plain.graph} == {a.address for a in baseline.graph}

    def test_content_scenario_moves_every_address(self):
        plain = resolve_plan(TINY)
        heavy = resolve_plan(dataclasses.replace(TINY, scenario="heavy_tiv"))
        assert not ({a.address for a in plain.graph} & {a.address for a in heavy.graph})


class TestGraphStructure:
    def test_cycle_detection(self):
        a = ArtifactKey("vivaldi")
        b = ArtifactKey("alert")
        artifacts = {
            a: ResolvedArtifact(a, "vivaldi", {}, "addr-a", deps=(b,)),
            b: ResolvedArtifact(b, "alert", {}, "addr-b", deps=(a,)),
        }
        with pytest.raises(ExperimentError, match="cycle"):
            ArtifactGraph(artifacts)

    def test_unresolved_dependency_detected(self):
        a = ArtifactKey("alert")
        artifacts = {
            a: ResolvedArtifact(a, "alert", {}, "addr-a", deps=(ArtifactKey("vivaldi"),))
        }
        with pytest.raises(ExperimentError, match="unresolved"):
            ArtifactGraph(artifacts)

    def test_closure(self):
        plan = resolve_plan(TINY, ["fig19"])
        closure = plan.graph.closure([ArtifactKey("alert")])
        assert ArtifactKey("vivaldi") in closure
        assert ArtifactKey("dataset", (TINY.dataset, TINY.n_nodes)) in closure

    def test_graph_status_rows_cover_graph(self, tmp_path):
        from repro.experiments.cache import ArtifactCache

        plan = resolve_plan(TINY, ["fig03"])
        rows = graph_status(plan.graph, ArtifactCache(tmp_path / "empty"))
        assert len(rows) == len(plan.graph)
        assert all(row["cache"] == "miss" for row in rows)
        uncached = graph_status(plan.graph)
        assert all(row["cache"] == "unknown" for row in uncached)


class TestRegistryDeclarations:
    def test_unknown_requirement_token_rejected_at_registration(self):
        from repro.experiments import registry

        def _runner(config=None, *, context=None, **kwargs):
            raise AssertionError("never runs")

        with pytest.raises(ExperimentError, match="unknown artifact requirement"):
            registry.register_experiment("fig99_test", _runner, needs=("warp_drive",))
        assert "fig99_test" not in registry.list_experiments()

    def test_duplicate_registration_rejected(self):
        from repro.experiments import registry

        def _runner(config=None, *, context=None, **kwargs):
            raise AssertionError("never runs")

        with pytest.raises(ExperimentError, match="already registered"):
            registry.register_experiment("fig03", _runner, needs=())

    def test_needs_is_mandatory(self):
        from repro.experiments import registry

        with pytest.raises(TypeError):
            registry.register_experiment("fig99_test", lambda **kw: None)

    def test_every_declaration_uses_known_tokens(self):
        from repro.artifacts import REQUIREMENTS

        for experiment_id in list_experiments():
            assert experiment_needs(experiment_id) <= REQUIREMENTS
