"""Tests for repro.coords.lat."""

import numpy as np
import pytest

from repro.coords.lat import LATCoordinates, fit_lat
from repro.errors import EmbeddingError
from repro.stats.summary import absolute_errors
from tests.coords.oracles import lat_double_loop, oracle_norm

#: The library fit and the double-loop oracle, by the names the tests carry.
FITS = {"batched": fit_lat, "reference": lat_double_loop}


class TestLATCoordinates:
    def test_shape_validation(self):
        with pytest.raises(EmbeddingError):
            LATCoordinates(np.zeros(5), np.zeros(5))
        with pytest.raises(EmbeddingError):
            LATCoordinates(np.zeros((5, 2)), np.zeros(4))

    def test_adjustment_added_to_prediction(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        lat = LATCoordinates(coords, np.array([1.0, 2.0]))
        matrix = lat.predicted_matrix()
        assert matrix[0, 1] == 5.0 + 1.0 + 2.0
        assert matrix[0, 0] == 0.0

    def test_prediction_clamped_at_zero(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0]])
        lat = LATCoordinates(coords, np.array([-5.0, -5.0]))
        assert lat.predicted_matrix()[0, 1] == 0.0

    def test_predicted_matrix_matches_oracle(self, converged_vivaldi):
        lat = fit_lat(converged_vivaldi, rng=0)
        matrix = lat.predicted_matrix()
        coords, adj = lat.coordinates.tolist(), lat.adjustments
        assert matrix[3, 8] == oracle_norm(coords[3], coords[8]) + (adj[3] + adj[8])
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)


class TestFitLat:
    def test_adjustments_shape(self, converged_vivaldi):
        lat = fit_lat(converged_vivaldi, rng=1)
        assert lat.adjustments.shape == (converged_vivaldi.n_nodes,)
        assert np.all(np.isfinite(lat.adjustments))

    def test_explicit_samples(self, converged_vivaldi):
        n = converged_vivaldi.n_nodes
        samples = [[(i + 1) % n, (i + 2) % n] for i in range(n)]
        lat = fit_lat(converged_vivaldi, samples=samples)
        assert np.all(np.isfinite(lat.adjustments))

    def test_wrong_sample_length_raises(self, converged_vivaldi):
        with pytest.raises(EmbeddingError):
            fit_lat(converged_vivaldi, samples=[[1, 2]])

    @pytest.mark.parametrize(
        "sample",
        [
            -1,  # numpy would read node n-1
            "n",  # numpy would raise a bare IndexError
            1.7,  # int() would read node 1
            True,
            0,  # node 0's own id would average in a zero error
        ],
    )
    def test_sample_that_is_not_another_node_raises(self, converged_vivaldi, sample):
        n = converged_vivaldi.n_nodes
        samples = [[(i + 1) % n] for i in range(n)]
        samples[0] = [n if sample == "n" else sample]
        with pytest.raises(EmbeddingError, match="not another node"):
            fit_lat(converged_vivaldi, samples=samples)

    def test_invalid_sample_size_raises(self, converged_vivaldi):
        with pytest.raises(EmbeddingError):
            fit_lat(converged_vivaldi, sample_size=0)

    def test_reproducible_with_seed(self, converged_vivaldi):
        a = fit_lat(converged_vivaldi, rng=5).adjustments
        b = fit_lat(converged_vivaldi, rng=5).adjustments
        assert np.array_equal(a, b)

    def test_improves_or_matches_aggregate_error(self, converged_vivaldi):
        """LAT is designed to improve aggregate accuracy over plain Vivaldi."""
        measured = converged_vivaldi.matrix.values
        plain = absolute_errors(measured, converged_vivaldi.predicted_matrix()).mean()
        lat = fit_lat(converged_vivaldi, sample_size=20, rng=2)
        adjusted = absolute_errors(measured, lat.predicted_matrix()).mean()
        assert adjusted <= plain * 1.05


class TestKernels:
    """The one LAT fit against the double-loop oracle."""

    def test_unknown_kernel_raises(self, converged_vivaldi):
        # The kernel switch is gone: every kernel keyword is unknown.
        with pytest.raises(TypeError):
            fit_lat(converged_vivaldi, kernel="turbo")

    def test_explicit_samples_agree_exactly(self, converged_vivaldi):
        """With the sampling fixed, the fit and the oracle compute the same formula."""
        n = converged_vivaldi.n_nodes
        samples = [[(i + 1) % n, (i + 3) % n, (i + 7) % n] for i in range(n)]
        batched = fit_lat(converged_vivaldi, samples=samples)
        reference = lat_double_loop(converged_vivaldi, samples=samples)
        assert np.allclose(batched.adjustments, reference.adjustments, atol=1e-12)

    def test_ragged_and_empty_sample_lists(self, converged_vivaldi):
        n = converged_vivaldi.n_nodes
        samples = [[] if i % 3 == 0 else [(i + 1) % n, (i + 2) % n][: i % 3] for i in range(n)]
        batched = fit_lat(converged_vivaldi, samples=samples)
        reference = lat_double_loop(converged_vivaldi, samples=samples)
        assert np.allclose(batched.adjustments, reference.adjustments, atol=1e-12)
        # Nodes with no sample keep a zero adjustment in both.
        assert batched.adjustments[0] == 0.0

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_per_seed_determinism(self, converged_vivaldi, kernel):
        a = FITS[kernel](converged_vivaldi, rng=9)
        b = FITS[kernel](converged_vivaldi, rng=9)
        assert np.array_equal(a.adjustments, b.adjustments)

    def test_random_sampling_statistically_equivalent(self, converged_vivaldi):
        """The fit's one-draw sampling and the oracle's per-node draws differ
        but estimate the same quantity: the mean adjustment (half the average
        signed prediction error) must agree closely over the whole system."""
        batched = fit_lat(converged_vivaldi, sample_size=40, rng=2)
        reference = lat_double_loop(converged_vivaldi, sample_size=40, rng=2)
        assert np.all(np.isfinite(batched.adjustments))
        scale = np.abs(reference.adjustments).mean() + 1e-9
        assert abs(batched.adjustments.mean() - reference.adjustments.mean()) < 0.5 * scale

    def test_batched_improves_or_matches_aggregate_error(self, converged_vivaldi):
        measured = converged_vivaldi.matrix.values
        plain = absolute_errors(measured, converged_vivaldi.predicted_matrix()).mean()
        lat = fit_lat(converged_vivaldi, sample_size=20, rng=2)
        adjusted = absolute_errors(measured, lat.predicted_matrix()).mean()
        assert adjusted <= plain * 1.05
