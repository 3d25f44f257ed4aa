"""Tests for repro.coords.base."""

import numpy as np
import pytest

from repro.coords.base import MatrixPredictor
from repro.errors import EmbeddingError


class TestMatrixPredictor:
    def test_requires_square(self):
        with pytest.raises(EmbeddingError):
            MatrixPredictor(np.zeros((2, 3)))

    def test_matrix_and_size(self):
        data = np.array([[0.0, 5.0], [5.0, 0.0]])
        predictor = MatrixPredictor(data)
        assert predictor.n_nodes == 2
        assert np.array_equal(predictor.predicted_matrix(), data)

    def test_diagonal_forced_zero(self):
        data = np.array([[9.0, 5.0], [5.0, 9.0]])
        predictor = MatrixPredictor(data)
        assert predictor.predicted_matrix()[0, 0] == 0.0

    def test_input_copied(self):
        data = np.array([[0.0, 5.0], [5.0, 0.0]])
        predictor = MatrixPredictor(data)
        data[0, 1] = 99.0
        assert predictor.predicted_matrix()[0, 1] == 5.0
        predictor.predicted_matrix()[0, 1] = 99.0
        assert predictor.predicted_matrix()[0, 1] == 5.0


class TestDelayPredictor:
    def test_predicted_matrix_is_the_one_read(self):
        """A system implements ``n_nodes`` and ``predicted_matrix``, nothing else."""
        from repro.coords.base import DelayPredictor

        assert DelayPredictor.__abstractmethods__ == {"n_nodes", "predicted_matrix"}
        assert not hasattr(DelayPredictor, "predict")

        class Constant(DelayPredictor):
            @property
            def n_nodes(self):
                return 3

        with pytest.raises(TypeError):
            Constant()
