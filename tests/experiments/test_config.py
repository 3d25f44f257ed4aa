"""Tests for repro.experiments.config and the experiment context."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.config import PAPER_SCALE, ExperimentConfig
from repro.experiments.context import ExperimentContext


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

    def test_vivaldi_kernel_threads_to_embedding(self):
        """The context's shared embedding has one kernel; its address names it."""
        from repro.artifacts import ArtifactKey

        context = ExperimentContext(ExperimentConfig(n_nodes=24, vivaldi_seconds=2))
        assert not hasattr(context.vivaldi, "kernel")
        assert context.artifact_params(ArtifactKey("vivaldi"))["kernel"] == "batched"


class TestKernelsMapping:
    """Experiment runs have no kernel switch: they run the batched kernels."""

    def test_retired_kernel_kwargs_are_gone(self):
        # Neither the two-knob API nor the per-system mapping that replaced
        # it is accepted or readable.
        with pytest.raises(TypeError):
            ExperimentConfig(vivaldi_kernel="reference")
        with pytest.raises(TypeError):
            ExperimentConfig(coords_kernel="reference")
        with pytest.raises(TypeError):
            ExperimentConfig(kernels={"meridian": "reference"})
        config = ExperimentConfig()
        assert not hasattr(config, "coords_kernel")
        assert not hasattr(config, "kernels")


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
