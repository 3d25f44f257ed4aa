"""Tests for repro.experiments.config and the experiment context."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.config import PAPER_SCALE, ExperimentConfig
from repro.experiments.context import ExperimentContext

COORDS_SYSTEMS = ("gnp", "ides", "lat", "meridian")


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.n_candidates >= 2
        assert config.n_meridian >= 2
        assert config.n_meridian_small >= 2

    def test_paper_scale_documented(self):
        assert PAPER_SCALE.n_nodes == 4000
        assert PAPER_SCALE.meridian_small_count == 200
        assert PAPER_SCALE.selection_runs == 5

    def test_derived_counts(self):
        config = ExperimentConfig(n_nodes=100, candidate_fraction=0.1, meridian_fraction=0.5)
        assert config.n_candidates == 10
        assert config.n_meridian == 50

    def test_small_meridian_capped(self):
        config = ExperimentConfig(n_nodes=30, meridian_small_count=100)
        assert config.n_meridian_small == 28

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_nodes=4)
        with pytest.raises(ConfigError):
            ExperimentConfig(candidate_fraction=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(meridian_fraction=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(selection_runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(vivaldi_seconds=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(meridian_small_count=1)
        with pytest.raises(ConfigError, match="max_clients"):
            ExperimentConfig(max_clients=0)
        with pytest.raises(ConfigError, match="max_clients"):
            ExperimentConfig(max_clients=-3)
        assert ExperimentConfig(max_clients=None).max_clients is None
        assert ExperimentConfig(max_clients=1).max_clients == 1
        with pytest.raises(ConfigError):
            ExperimentConfig(kernels={"vivaldi": "turbo"})
        with pytest.raises(ConfigError):
            ExperimentConfig(kernels={"warp_drive": "batched"})

    def test_vivaldi_kernel_threads_to_embedding(self):
        """The configured kernel reaches the context's shared embedding."""
        for kernel in ("batched", "reference"):
            context = ExperimentContext(
                ExperimentConfig(
                    n_nodes=24, vivaldi_seconds=2, kernels={"vivaldi": kernel}
                )
            )
            assert context.vivaldi.kernel == kernel

    def test_coords_kernel_is_part_of_strawman_cache_addresses(self):
        """Both strawman artefact addresses carry the coords kernel.

        Mirrors the vivaldi-kernel contract: entries written by a different
        kernel (or by pre-kernel code) must read as misses, never as stale
        hits.
        """
        contexts = {
            kernel: ExperimentContext(
                ExperimentConfig(
                    n_nodes=24,
                    vivaldi_seconds=2,
                    kernels={system: kernel for system in COORDS_SYSTEMS},
                )
            )
            for kernel in ("batched", "reference")
        }
        from repro.artifacts import ArtifactKey

        ides_params = {
            k: ctx.artifact_params(ArtifactKey("ides")) for k, ctx in contexts.items()
        }
        lat_params = {
            k: ctx.artifact_params(ArtifactKey("lat")) for k, ctx in contexts.items()
        }
        assert ides_params["batched"] != ides_params["reference"]
        assert lat_params["batched"] != lat_params["reference"]
        assert ides_params["batched"]["kernel"] == "batched"
        assert lat_params["batched"]["coords_kernel"] == "batched"
        # The Vivaldi step kernel addresses the LAT artefact too (LAT
        # adjusts the converged embedding).
        assert "kernel" in lat_params["batched"]


class TestKernelsMapping:
    """The unified per-system kernel table (PR 6)."""

    def test_default_is_batched_everywhere(self):
        config = ExperimentConfig()
        for system in ("vivaldi", "gnp", "ides", "lat", "meridian"):
            assert config.kernel_for(system) == "batched"

    def test_per_system_override(self):
        config = ExperimentConfig(kernels={"ides": "reference"})
        assert config.kernel_for("ides") == "reference"
        assert config.kernel_for("vivaldi") == "batched"
        assert config.kernel_for("lat") == "batched"

    def test_default_entry_sets_the_fallback(self):
        config = ExperimentConfig(kernels={"default": "reference", "gnp": "batched"})
        assert config.kernel_for("gnp") == "batched"
        for system in ("vivaldi", "ides", "lat", "meridian"):
            assert config.kernel_for(system) == "reference"

    def test_kernels_normalized_to_sorted_tuple(self):
        # The field must stay hashable and order-independent: two configs
        # with the same mapping are the same config (and cache key).
        a = ExperimentConfig(kernels={"lat": "reference", "gnp": "reference"})
        b = ExperimentConfig(kernels={"gnp": "reference", "lat": "reference"})
        assert a == b
        assert isinstance(a.kernels, tuple)
        assert hash(a) == hash(b)

    def test_kernel_for_rejects_unknown_system(self):
        config = ExperimentConfig()
        with pytest.raises(ConfigError):
            config.kernel_for("warp_drive")
        with pytest.raises(ConfigError):
            config.kernel_for("default")

    def test_replace_preserves_the_table(self):
        config = ExperimentConfig(kernels={"vivaldi": "reference"})
        bumped = dataclasses.replace(config, seed=7)
        assert bumped.kernel_for("vivaldi") == "reference"
        assert bumped.seed == 7

    def test_retired_kernel_kwargs_are_gone(self):
        # The pre-kernels two-knob API is no longer accepted or readable.
        with pytest.raises(TypeError):
            ExperimentConfig(vivaldi_kernel="reference")
        with pytest.raises(TypeError):
            ExperimentConfig(coords_kernel="reference")
        assert not hasattr(ExperimentConfig(), "coords_kernel")


class TestExperimentContext:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(
            ExperimentConfig(n_nodes=60, vivaldi_seconds=20, selection_runs=2, max_clients=20)
        )

    def test_matrix_cached(self, context):
        assert context.matrix is context.matrix
        assert context.matrix.n_nodes == 60

    def test_clusters_available(self, context):
        assert context.ground_truth_clusters.shape == (60,)
        assert context.cluster_assignment.labels.shape == (60,)

    def test_severity_cached(self, context):
        assert context.severity is context.severity
        assert context.severity.n_nodes == 60

    def test_vivaldi_runs_configured_time(self, context):
        assert context.vivaldi.simulation_time == 20.0
        assert context.vivaldi is context.vivaldi

    def test_alert_built_from_vivaldi(self, context):
        ratios = context.alert.ratio_matrix
        assert ratios.shape == (60, 60)
        finite = ratios[np.isfinite(ratios)]
        assert finite.size > 0

    def test_selection_experiment_bound_to_config(self, context):
        experiment = context.selection_experiment()
        splits = experiment.splits()
        assert len(splits) == 2
        assert splits[0][0].size == context.config.n_candidates
