"""Tests for repro.core.alert."""

import numpy as np
import pytest

from repro.coords.base import MatrixPredictor
from repro.core.alert import TIVAlert, prediction_ratios, severity_vs_prediction_ratio
from repro.errors import AlertError


@pytest.fixture(scope="module")
def internet_alert(small_internet_matrix, converged_vivaldi):
    return TIVAlert(small_internet_matrix, converged_vivaldi)


class TestTIVAlertBasics:
    def test_size_mismatch_raises(self, small_internet_matrix):
        with pytest.raises(AlertError):
            TIVAlert(small_internet_matrix, MatrixPredictor(np.zeros((3, 3))))

    def test_ratio_matrix_shape(self, internet_alert, small_internet_matrix):
        ratios = internet_alert.ratio_matrix
        n = small_internet_matrix.n_nodes
        assert ratios.shape == (n, n)
        assert np.all(np.isnan(np.diag(ratios)))

    def test_ratio_accessors(self, internet_alert, converged_vivaldi, small_internet_matrix):
        predicted = converged_vivaldi.predicted_matrix()[2, 7]
        assert internet_alert.ratio(2, 7) == predicted / small_internet_matrix.delay(2, 7)
        assert internet_alert.predicted_delay(2, 7) == predicted
        assert np.array_equal(internet_alert.predicted_matrix, converged_vivaldi.predicted_matrix())

    def test_is_alert_threshold(self, internet_alert):
        ratios = internet_alert.ratio_matrix
        iu = np.triu_indices_from(ratios, k=1)
        finite = np.isfinite(ratios[iu])
        i, j = iu[0][finite][0], iu[1][finite][0]
        value = internet_alert.ratio(i, j)
        assert (i, j) in internet_alert.alerted_edges(threshold=value + 0.01)
        assert (i, j) not in internet_alert.alerted_edges(threshold=value - 0.01)

    def test_is_alert_invalid_threshold(self, internet_alert):
        with pytest.raises(AlertError):
            internet_alert.alerted_edges(threshold=0.0)

    def test_alerted_edges_monotone_in_threshold(self, internet_alert):
        small = internet_alert.alerted_edges(threshold=0.3)
        large = internet_alert.alerted_edges(threshold=0.8)
        assert small <= large

    def test_from_ratio_matrix(self, small_internet_matrix):
        n = small_internet_matrix.n_nodes
        ratios = np.full((n, n), 1.0)
        np.fill_diagonal(ratios, np.nan)
        predicted = small_internet_matrix.with_filled_missing().to_array()
        alert = TIVAlert.from_ratio_matrix(small_internet_matrix, ratios, predicted)
        assert alert.ratio(0, 1) == 1.0
        assert alert.predicted_delay(0, 1) == predicted[0, 1]
        assert alert.alerted_edges(threshold=0.5) == set()
        # The alert holds copies, not the caller's arrays.
        ratios[0, 1] = predicted[0, 1] = 0.0
        assert alert.ratio(0, 1) == 1.0 and alert.predicted_delay(0, 1) != 0.0

    def test_from_ratio_matrix_requires_predicted(self, small_internet_matrix):
        n = small_internet_matrix.n_nodes
        with pytest.raises(TypeError):
            TIVAlert.from_ratio_matrix(small_internet_matrix, np.ones((n, n)))

    def test_from_ratio_matrix_bad_shape(self, small_internet_matrix):
        n = small_internet_matrix.n_nodes
        with pytest.raises(AlertError, match="ratio matrix shape"):
            TIVAlert.from_ratio_matrix(small_internet_matrix, np.ones((3, 3)), np.ones((n, n)))

    @pytest.mark.parametrize("size", [2, 4])
    def test_from_ratio_matrix_bad_predicted_shape(self, size):
        # A 2x2 prediction would raise IndexError on a later read, and a
        # 4x4 one would answer for nodes the delay matrix does not have.
        from repro.delayspace.matrix import DelayMatrix

        matrix = DelayMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]))
        with pytest.raises(AlertError, match="predicted-delay matrix shape"):
            TIVAlert.from_ratio_matrix(matrix, np.ones((3, 3)), np.ones((size, size)))


class TestPredictionRatios:
    def test_prediction_ratios(self):
        predicted = np.array([[0.0, 5.0, 8.0], [5.0, 0.0, 12.0], [8.0, 12.0, 0.0]])
        measured = np.array([[0.0, 10.0, np.nan], [10.0, 0.0, 12.0], [np.nan, 12.0, 0.0]])
        ratios = prediction_ratios(predicted, measured)
        assert ratios[0, 1] == 0.5
        assert ratios[1, 2] == 1.0
        assert np.isnan(ratios[0, 2])
        assert np.isnan(ratios[0, 0])

    def test_prediction_ratios_shape_mismatch(self):
        with pytest.raises(AlertError):
            prediction_ratios(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_alert_builds_its_prediction_once(self, small_internet_matrix, converged_vivaldi):
        calls = []

        class Counting(MatrixPredictor):
            def predicted_matrix(self):
                calls.append(1)
                return super().predicted_matrix()

        predicted = converged_vivaldi.predicted_matrix()
        alert = TIVAlert(small_internet_matrix, Counting(predicted))
        assert len(calls) == 1
        expected = prediction_ratios(predicted, small_internet_matrix.values)
        assert np.array_equal(alert.ratio_matrix, expected, equal_nan=True)


class TestAlertEvaluation:
    def test_evaluation_shapes(self, internet_alert, small_internet_severity):
        evaluation = internet_alert.evaluate(small_internet_severity, target_fraction=0.1)
        assert evaluation.thresholds.shape == evaluation.accuracy.shape
        assert evaluation.thresholds.shape == evaluation.recall.shape
        assert evaluation.target_fraction == 0.1

    def test_recall_monotone_in_threshold(self, internet_alert, small_internet_severity):
        evaluation = internet_alert.evaluate(small_internet_severity, target_fraction=0.1)
        assert np.all(np.diff(evaluation.recall) >= -1e-12)
        assert np.all(np.diff(evaluation.alert_fraction) >= -1e-12)

    def test_bounds(self, internet_alert, small_internet_severity):
        evaluation = internet_alert.evaluate(small_internet_severity, target_fraction=0.05)
        finite_acc = evaluation.accuracy[~np.isnan(evaluation.accuracy)]
        assert np.all((finite_acc >= 0) & (finite_acc <= 1))
        assert np.all((evaluation.recall >= 0) & (evaluation.recall <= 1))

    def test_alert_beats_random_guessing(self, internet_alert, small_internet_severity):
        """The paper's core claim: alerted edges are enriched in severe TIVs."""
        fraction = 0.1
        evaluation = internet_alert.evaluate(small_internet_severity, target_fraction=fraction)
        mask = evaluation.alert_fraction > 0.005
        assert mask.any()
        # Precision of a random alert would equal the target fraction.
        assert np.nanmax(evaluation.accuracy[mask]) > fraction * 1.5

    def test_custom_thresholds(self, internet_alert, small_internet_severity):
        evaluation = internet_alert.evaluate(
            small_internet_severity, target_fraction=0.2, thresholds=[0.2, 0.6]
        )
        assert evaluation.thresholds.tolist() == [0.2, 0.6]

    def test_invalid_thresholds_raise(self, internet_alert, small_internet_severity):
        with pytest.raises(AlertError):
            internet_alert.evaluate(small_internet_severity, thresholds=[0.0, 0.5])

    def test_mismatched_severity_raises(self, internet_alert, euclidean_matrix):
        from repro.tiv.severity import compute_tiv_severity

        other = compute_tiv_severity(euclidean_matrix)
        with pytest.raises(AlertError):
            internet_alert.evaluate(other)


class TestSeverityVsRatio:
    def test_binned_output(self, small_internet_matrix, small_internet_severity, internet_alert):
        stats = severity_vs_prediction_ratio(
            small_internet_matrix, small_internet_severity, internet_alert
        )
        assert stats.n_bins == 50  # 0..5 in steps of 0.1
        assert stats.counts.sum() > 0

    def test_shrunk_edges_have_higher_severity(
        self, small_internet_matrix, small_internet_severity, internet_alert
    ):
        """Fig. 19's trend: small prediction ratio -> high TIV severity."""
        iu = np.triu_indices(small_internet_matrix.n_nodes, k=1)
        ratios = internet_alert.ratio_matrix[iu]
        severities = small_internet_severity.severity[iu]
        valid = np.isfinite(ratios) & np.isfinite(severities)
        ratios, severities = ratios[valid], severities[valid]
        shrunk = severities[ratios <= 0.6]
        preserved = severities[ratios >= 0.9]
        assert shrunk.size > 0 and preserved.size > 0
        assert shrunk.mean() > preserved.mean()
