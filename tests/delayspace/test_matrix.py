"""Tests for repro.delayspace.matrix."""

import numpy as np
import pytest

from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError


def _simple_matrix() -> DelayMatrix:
    delays = np.array(
        [
            [0.0, 10.0, 20.0, 30.0],
            [10.0, 0.0, 15.0, np.nan],
            [20.0, 15.0, 0.0, 25.0],
            [30.0, np.nan, 25.0, 0.0],
        ]
    )
    return DelayMatrix(delays, symmetrize=False)


class TestConstruction:
    def test_non_square_raises(self):
        with pytest.raises(DelayMatrixError):
            DelayMatrix(np.zeros((2, 3)))

    def test_too_small_raises(self):
        with pytest.raises(DelayMatrixError):
            DelayMatrix(np.zeros((1, 1)))

    def test_negative_delay_raises(self):
        data = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(DelayMatrixError):
            DelayMatrix(data)

    def test_diagonal_forced_to_zero(self):
        data = np.array([[5.0, 1.0], [1.0, 5.0]])
        matrix = DelayMatrix(data)
        assert matrix.delay(0, 0) == 0.0

    def test_symmetrize_averages(self):
        data = np.array([[0.0, 10.0], [20.0, 0.0]])
        matrix = DelayMatrix(data, symmetrize=True)
        assert matrix.delay(0, 1) == pytest.approx(15.0)
        assert matrix.delay(1, 0) == pytest.approx(15.0)

    def test_symmetrize_uses_available_half(self):
        data = np.array([[0.0, np.nan], [20.0, 0.0]])
        matrix = DelayMatrix(data, symmetrize=True)
        assert matrix.delay(0, 1) == pytest.approx(20.0)

    def test_asymmetric_without_symmetrize_raises(self):
        data = np.array([[0.0, 10.0], [20.0, 0.0]])
        with pytest.raises(DelayMatrixError):
            DelayMatrix(data, symmetrize=False)

    def test_label_mismatch_raises(self):
        with pytest.raises(DelayMatrixError):
            DelayMatrix(np.zeros((2, 2)), labels=["only-one"])

    def test_default_labels(self):
        matrix = _simple_matrix()
        assert matrix.labels == ("0", "1", "2", "3")

    def test_repr_contains_size(self):
        assert "n_nodes=4" in repr(_simple_matrix())


class TestAccessors:
    def test_values_readonly(self):
        matrix = _simple_matrix()
        with pytest.raises(ValueError):
            matrix.values[0, 1] = 99.0

    def test_to_array_is_copy(self):
        matrix = _simple_matrix()
        arr = matrix.to_array()
        arr[0, 1] = 99.0
        assert matrix.delay(0, 1) == 10.0

    def test_getitem(self):
        assert _simple_matrix()[0, 2] == 20.0

    def test_out_of_range_raises(self):
        with pytest.raises(DelayMatrixError):
            _simple_matrix().delay(0, 10)

    def test_len(self):
        assert len(_simple_matrix()) == 4

    def test_missing_fraction(self):
        matrix = _simple_matrix()
        assert matrix.missing_fraction() == pytest.approx(2 / 12)
        assert not matrix.is_complete()

    def test_edge_delays_skip_missing(self):
        assert _simple_matrix().edge_delays().size == 5

    def test_edges_iterator(self):
        edges = list(_simple_matrix().edges())
        assert (0, 1, 10.0) in edges
        assert all(i < j for i, j, _ in edges)
        assert len(edges) == 5

    def test_edges_include_missing(self):
        edges = list(_simple_matrix().edges(include_missing=True))
        assert len(edges) == 6

    def test_mean_median_delay(self):
        matrix = _simple_matrix()
        assert matrix.mean_delay() == pytest.approx(np.mean([10, 20, 30, 15, 25]))
        assert matrix.median_delay() == pytest.approx(20.0)


class TestTransformations:
    def test_submatrix(self):
        sub = _simple_matrix().submatrix([0, 2, 3])
        assert sub.n_nodes == 3
        assert sub.delay(0, 1) == 20.0
        assert sub.labels == ("0", "2", "3")

    def test_submatrix_duplicates_raise(self):
        with pytest.raises(DelayMatrixError):
            _simple_matrix().submatrix([0, 0, 1])

    def test_submatrix_too_small_raises(self):
        with pytest.raises(DelayMatrixError):
            _simple_matrix().submatrix([1])

    def test_reordered_is_permutation(self):
        matrix = _simple_matrix()
        reordered = matrix.reordered([3, 2, 1, 0])
        assert reordered.delay(0, 3) == matrix.delay(3, 0)

    def test_reordered_invalid_raises(self):
        with pytest.raises(DelayMatrixError):
            _simple_matrix().reordered([0, 1, 2])

    def test_fill_missing_median(self):
        filled = _simple_matrix().with_filled_missing()
        assert filled.is_complete()
        assert filled.delay(1, 3) == pytest.approx(20.0)

    def test_fill_missing_noop_when_complete(self):
        complete = DelayMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert complete.with_filled_missing().is_complete()

