"""Tests for repro.coords.ides."""

import numpy as np
import pytest

from repro.coords.ides import IDESConfig, IDESCoordinates, fit_ides
from repro.errors import EmbeddingError
from repro.stats.summary import median_absolute_error
from tests.coords.oracles import ides_per_host

#: The library fit and the per-host oracle, by the names the tests carry.
FITS = {"batched": fit_ides, "reference": ides_per_host}


class TestIDESConfig:
    def test_defaults(self):
        config = IDESConfig()
        assert config.dimension == 10
        assert config.n_landmarks is None

    def test_invalid_dimension(self):
        with pytest.raises(EmbeddingError):
            IDESConfig(dimension=0)


class TestIDESCoordinates:
    def test_shape_mismatch_raises(self):
        with pytest.raises(EmbeddingError):
            IDESCoordinates(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_predict_nonnegative_and_zero_diagonal(self, small_internet_matrix):
        coords = fit_ides(small_internet_matrix, IDESConfig(dimension=8))
        assert coords.predict(0, 0) == 0.0
        assert coords.predict(0, 1) >= 0.0
        assert coords.dimension == 8

    def test_predicted_matrix_matches_predict(self, small_internet_matrix):
        coords = fit_ides(small_internet_matrix, IDESConfig(dimension=8))
        matrix = coords.predicted_matrix()
        assert matrix[2, 5] == pytest.approx(coords.predict(2, 5))
        assert np.allclose(np.diag(matrix), 0.0)


class TestFitIdes:
    def test_svd_accuracy_reasonable(self, small_internet_matrix):
        coords = fit_ides(small_internet_matrix, IDESConfig(dimension=10))
        error = median_absolute_error(small_internet_matrix.values, coords.predicted_matrix())
        assert error < small_internet_matrix.median_delay()

    def test_higher_rank_fits_better(self, small_internet_matrix):
        low = fit_ides(small_internet_matrix, IDESConfig(dimension=2))
        high = fit_ides(small_internet_matrix, IDESConfig(dimension=20))
        measured = small_internet_matrix.values
        assert median_absolute_error(measured, high.predicted_matrix()) <= median_absolute_error(
            measured, low.predicted_matrix()
        )

    def test_can_represent_tiv(self):
        """IDES predictions are not bound by the triangle inequality."""
        from repro.coords.simulation import three_node_tiv_matrix

        matrix = three_node_tiv_matrix()
        coords = fit_ides(matrix, IDESConfig(dimension=3))
        predicted = coords.predicted_matrix()
        # A perfect rank-3 factorisation reproduces the TIV exactly.
        assert predicted[0, 2] > predicted[0, 1] + predicted[1, 2]

    def test_handles_missing_values(self):
        from repro.delayspace.matrix import DelayMatrix

        delays = np.array(
            [
                [0.0, 10.0, np.nan, 30.0],
                [10.0, 0.0, 12.0, 28.0],
                [np.nan, 12.0, 0.0, 26.0],
                [30.0, 28.0, 26.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        coords = fit_ides(matrix, IDESConfig(dimension=3))
        assert np.all(np.isfinite(coords.predicted_matrix()))


class TestKernels:
    """The one IDES fit against the per-host oracle: float-level equivalence."""

    def test_unknown_kernel_raises(self, small_internet_matrix):
        # The kernel switch is gone: every kernel keyword is unknown.
        with pytest.raises(TypeError):
            fit_ides(small_internet_matrix, kernel="turbo")

    def test_kernels_agree_to_float_accuracy(self, small_internet_matrix):
        """The multi-RHS projection solves the same least-squares systems.

        Same landmark selection (identical RNG stream), same factor
        matrices; LAPACK's multi-column path may round differently in the
        last ulps, hence allclose rather than array_equal.
        """
        batched = fit_ides(small_internet_matrix, IDESConfig(), rng=7)
        reference = ides_per_host(small_internet_matrix, IDESConfig(), rng=7)
        assert batched.landmarks == reference.landmarks
        assert np.allclose(batched.outgoing, reference.outgoing, atol=1e-9)
        assert np.allclose(batched.incoming, reference.incoming, atol=1e-9)

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_landmarks_keep_exact_landmark_vectors(self, small_internet_matrix, kernel):
        """Regression: the host projection must not touch landmark rows."""
        landmarks = list(range(0, 40, 4))
        coords = FITS[kernel](small_internet_matrix, IDESConfig(), rng=3, landmarks=landmarks)
        rerun = FITS[kernel](small_internet_matrix, IDESConfig(), rng=3, landmarks=landmarks)
        assert coords.landmarks == tuple(landmarks)
        assert np.array_equal(coords.outgoing[landmarks], rerun.outgoing[landmarks])
        assert np.array_equal(coords.incoming[landmarks], rerun.incoming[landmarks])

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_per_seed_determinism(self, small_internet_matrix, kernel):
        a = FITS[kernel](small_internet_matrix, IDESConfig(), rng=5)
        b = FITS[kernel](small_internet_matrix, IDESConfig(), rng=5)
        assert np.array_equal(a.outgoing, b.outgoing)
        assert np.array_equal(a.incoming, b.incoming)
