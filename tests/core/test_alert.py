"""Tests for repro.core.alert."""

import numpy as np
import pytest

from repro.coords.base import MatrixPredictor
from repro.core.alert import TIVAlert, severity_vs_prediction_ratio
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
        expected = converged_vivaldi.predict(2, 7) / small_internet_matrix.delay(2, 7)
        assert internet_alert.ratio(2, 7) == pytest.approx(expected)
        assert internet_alert.predicted_delay(2, 7) == pytest.approx(converged_vivaldi.predict(2, 7))

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
        alert = TIVAlert.from_ratio_matrix(small_internet_matrix, ratios)
        assert alert.ratio(0, 1) == 1.0
        assert alert.alerted_edges(threshold=0.5) == set()

    def test_from_ratio_matrix_bad_shape(self, small_internet_matrix):
        with pytest.raises(AlertError):
            TIVAlert.from_ratio_matrix(small_internet_matrix, np.ones((3, 3)))


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
