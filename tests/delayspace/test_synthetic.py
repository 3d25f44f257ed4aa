"""Tests for repro.delayspace.synthetic."""

import numpy as np
import pytest

from repro.delayspace.synthetic import (
    ClusterSpec,
    SyntheticSpaceConfig,
    clustered_delay_space,
    euclidean_delay_space,
)
from repro.errors import ConfigError
from repro.tiv.severity import violating_triangle_fraction


class TestClusterSpec:
    def test_invalid_fraction(self):
        with pytest.raises(ConfigError):
            ClusterSpec("x", 0.0, (0, 0), 10.0)

    def test_invalid_radius(self):
        with pytest.raises(ConfigError):
            ClusterSpec("x", 0.5, (0, 0), 0.0)


class TestSyntheticSpaceConfig:
    def test_defaults_valid(self):
        assert SyntheticSpaceConfig().n_nodes == 400

    def test_fraction_sum_over_one(self):
        clusters = (
            ClusterSpec("a", 0.7, (0, 0), 10.0),
            ClusterSpec("b", 0.6, (50, 0), 10.0),
        )
        with pytest.raises(ConfigError):
            SyntheticSpaceConfig(clusters=clusters)

    def test_invalid_tiv_fraction(self):
        with pytest.raises(ConfigError):
            SyntheticSpaceConfig(tiv_edge_fraction=1.0)

    def test_invalid_inflation_shape(self):
        with pytest.raises(ConfigError):
            SyntheticSpaceConfig(inflation_shape=0.9)

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            SyntheticSpaceConfig(n_nodes=2)


class TestEuclideanDelaySpace:
    def test_shape_and_symmetry(self):
        matrix = euclidean_delay_space(20, rng=0)
        assert matrix.n_nodes == 20
        values = matrix.values
        assert np.allclose(values, values.T)

    def test_triangle_inequality_holds(self):
        matrix = euclidean_delay_space(25, rng=1, min_delay=0.0)
        assert violating_triangle_fraction(matrix) == 0.0

    def test_reproducible(self):
        a = euclidean_delay_space(10, rng=3).values
        b = euclidean_delay_space(10, rng=3).values
        assert np.array_equal(a, b)

    def test_min_delay_respected(self):
        matrix = euclidean_delay_space(10, rng=2, min_delay=5.0)
        assert matrix.edge_delays().min() >= 5.0

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            euclidean_delay_space(1)
        with pytest.raises(ConfigError):
            euclidean_delay_space(10, scale=0)


class TestClusteredDelaySpace:
    def test_basic_generation(self):
        config = SyntheticSpaceConfig(n_nodes=60)
        matrix = clustered_delay_space(config, rng=0)
        assert matrix.n_nodes == 60
        assert matrix.is_complete()
        assert matrix.edge_delays().min() >= config.min_delay

    def test_reproducible(self):
        config = SyntheticSpaceConfig(n_nodes=40)
        a = clustered_delay_space(config, rng=5).values
        b = clustered_delay_space(config, rng=5).values
        assert np.array_equal(a, b)

    def test_contains_tivs(self):
        config = SyntheticSpaceConfig(n_nodes=60, tiv_edge_fraction=0.3)
        matrix = clustered_delay_space(config, rng=1)
        assert violating_triangle_fraction(matrix) > 0.01

    def test_zero_tiv_fraction_is_nearly_metric(self):
        config = SyntheticSpaceConfig(
            n_nodes=50, tiv_edge_fraction=0.0, jitter_fraction=0.0
        )
        matrix = clustered_delay_space(config, rng=2)
        # Access delays preserve the metric property (they only add to both
        # sides of every triangle symmetrically through endpoints), so no
        # violations should appear without inflation or jitter.
        assert violating_triangle_fraction(matrix) == pytest.approx(0.0, abs=1e-6)

    def test_return_clusters(self):
        config = SyntheticSpaceConfig(n_nodes=50)
        matrix, clusters = clustered_delay_space(config, rng=3, return_clusters=True)
        assert clusters.shape == (50,)
        assert clusters.max() <= len(config.clusters)
        assert matrix.n_nodes == 50

    def test_cluster_structure_visible_in_delays(self):
        config = SyntheticSpaceConfig(n_nodes=80, tiv_edge_fraction=0.0, jitter_fraction=0.0)
        matrix, clusters = clustered_delay_space(config, rng=4, return_clusters=True)
        values = matrix.values
        same = clusters[:, None] == clusters[None, :]
        iu = np.triu_indices(80, k=1)
        within = values[iu][same[iu] & (clusters[iu[0]] < len(config.clusters))]
        across = values[iu][~same[iu]]
        assert within.mean() < across.mean()

    def test_higher_tiv_fraction_more_violations(self):
        low = clustered_delay_space(
            SyntheticSpaceConfig(n_nodes=60, tiv_edge_fraction=0.05), rng=7
        )
        high = clustered_delay_space(
            SyntheticSpaceConfig(n_nodes=60, tiv_edge_fraction=0.45), rng=7
        )
        assert violating_triangle_fraction(high) > violating_triangle_fraction(low)


class TestAccessDelayDistribution:
    def test_invalid_distribution_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpaceConfig(access_delay_distribution="uniform")

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpaceConfig(access_delay_distribution="pareto", access_delay_shape=1.0)

    def test_pareto_access_changes_the_matrix(self):
        exponential = clustered_delay_space(SyntheticSpaceConfig(n_nodes=40), rng=3)
        pareto = clustered_delay_space(
            SyntheticSpaceConfig(n_nodes=40, access_delay_distribution="pareto"), rng=3
        )
        assert not np.array_equal(exponential.values, pareto.values)

    def test_pareto_access_keeps_comparable_scale(self):
        # Both distributions are parameterised to the same mean, so the
        # typical delay level should not shift wildly, only the tail.
        exponential = clustered_delay_space(SyntheticSpaceConfig(n_nodes=60), rng=9)
        pareto = clustered_delay_space(
            SyntheticSpaceConfig(n_nodes=60, access_delay_distribution="pareto"), rng=9
        )
        ratio = np.nanmedian(pareto.values) / np.nanmedian(exponential.values)
        assert 0.5 < ratio < 2.0

    def test_default_distribution_stream_unchanged(self):
        # The knob's default must not perturb existing seeds: an explicitly
        # exponential config reproduces the pre-knob generation exactly.
        default = clustered_delay_space(SyntheticSpaceConfig(n_nodes=30), rng=1)
        explicit = clustered_delay_space(
            SyntheticSpaceConfig(n_nodes=30, access_delay_distribution="exponential"),
            rng=1,
        )
        assert np.array_equal(default.values, explicit.values)


class TestTivEdgeMask:
    def test_mask_shape_and_symmetry(self):
        config = SyntheticSpaceConfig(n_nodes=40, tiv_edge_fraction=0.2)
        matrix, mask = clustered_delay_space(config, rng=2, return_tiv_edges=True)
        assert mask.shape == (40, 40)
        assert mask.dtype == bool
        assert np.array_equal(mask, mask.T)
        assert not mask.diagonal().any()

    def test_mask_fraction_matches_request(self):
        n = 50
        config = SyntheticSpaceConfig(n_nodes=n, tiv_edge_fraction=0.25)
        _, mask = clustered_delay_space(config, rng=4, return_tiv_edges=True)
        iu = np.triu_indices(n, k=1)
        assert mask[iu].sum() == round(0.25 * iu[0].size)

    def test_zero_fraction_gives_empty_mask(self):
        config = SyntheticSpaceConfig(n_nodes=20, tiv_edge_fraction=0.0)
        _, mask = clustered_delay_space(config, rng=0, return_tiv_edges=True)
        assert not mask.any()

    def test_both_flags_return_clusters_then_mask(self):
        config = SyntheticSpaceConfig(n_nodes=20)
        matrix, clusters, mask = clustered_delay_space(
            config, rng=0, return_clusters=True, return_tiv_edges=True
        )
        assert clusters.shape == (20,)
        assert mask.shape == (20, 20)

    def test_mask_does_not_change_generation(self):
        config = SyntheticSpaceConfig(n_nodes=25)
        plain = clustered_delay_space(config, rng=6)
        with_mask, _ = clustered_delay_space(config, rng=6, return_tiv_edges=True)
        assert np.array_equal(plain.values, with_mask.values)
