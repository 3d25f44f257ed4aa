"""The TIV alert mechanism (§5.1 of the paper).

When a delay space containing TIVs is embedded into a metric space, the
optimiser cannot honour every edge; edges that cause many violations have
many shorter detours, so the embedding sacrifices *them* — their predicted
distance ends up much smaller than their measured delay.  The **prediction
ratio** of an edge::

    ratio(i, j) = predicted_delay(i, j) / measured_delay(i, j)

is therefore a cheap, locally computable indicator: a ratio well below one
*alerts* that the edge likely causes severe TIVs.  The mechanism does not
predict the severity value, it only flags likely offenders — which is
exactly what neighbour-selection mechanisms need in order to avoid them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.coords.base import DelayPredictor
from repro.delayspace.matrix import DelayMatrix
from repro.errors import AlertError
from repro.stats.binning import BinnedStats, bin_by_value
from repro.tiv.severity import TIVSeverityResult


@dataclass(frozen=True)
class AlertEvaluation:
    """Accuracy and recall of the alert at a set of ratio thresholds.

    For a threshold ``t`` the alert fires on every edge with prediction
    ratio ≤ ``t``.  Against a ground-truth set of "bad" edges (the worst
    ``target_fraction`` by TIV severity):

    * accuracy (precision) = |alerted ∩ bad| / |alerted|
    * recall = |alerted ∩ bad| / |bad|

    Attributes
    ----------
    thresholds:
        The evaluated alert-ratio thresholds.
    target_fraction:
        Which worst-severity fraction the alert is evaluated against
        (e.g. 0.01 for the "worst 1 %" curve of Figs. 20–21).
    accuracy, recall:
        Arrays aligned with ``thresholds``.  Accuracy is ``nan`` where the
        alert fired on no edge.
    alert_fraction:
        Fraction of all edges the alert fired on, per threshold.
    """

    thresholds: np.ndarray
    target_fraction: float
    accuracy: np.ndarray = field(repr=False)
    recall: np.ndarray = field(repr=False)
    alert_fraction: np.ndarray = field(repr=False)


def prediction_ratios(predicted: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Predicted / measured delay for every entry of two N×N matrices.

    The prediction ratio is the quantity the paper's TIV alert mechanism
    thresholds: ratios well below one flag edges that the embedding had
    to shrink, which correlates with severe TIVs.  Entries with missing
    or zero measured delay, and the diagonal, are ``nan``.
    """
    predicted = np.asarray(predicted, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if predicted.shape != measured.shape or measured.ndim != 2:
        raise AlertError(
            f"predicted shape {predicted.shape} does not match measured shape {measured.shape}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(measured > 0, predicted / measured, np.nan)
    np.fill_diagonal(ratios, np.nan)
    return ratios


class TIVAlert:
    """Prediction-ratio based TIV alert for one embedded delay matrix.

    Parameters
    ----------
    matrix:
        The measured delay matrix.
    predictor:
        A fitted delay predictor (normally a converged
        :class:`~repro.coords.vivaldi.VivaldiSystem` snapshot); its
        prediction ratios drive the alert.
    """

    def __init__(self, matrix: DelayMatrix, predictor: DelayPredictor):
        if predictor.n_nodes != matrix.n_nodes:
            raise AlertError("predictor and matrix cover a different number of nodes")
        self._matrix = matrix
        self._predicted = predictor.predicted_matrix()
        self._ratios = prediction_ratios(self._predicted, matrix.values)

    @classmethod
    def from_ratio_matrix(
        cls, matrix: DelayMatrix, ratios: np.ndarray, predicted: np.ndarray
    ) -> "TIVAlert":
        """Build an alert from precomputed ratio and predicted-delay matrices."""
        ratios = np.array(ratios, dtype=float)
        predicted = np.array(predicted, dtype=float)
        shape = (matrix.n_nodes, matrix.n_nodes)
        for name, value in (("ratio", ratios), ("predicted-delay", predicted)):
            if value.shape != shape:
                raise AlertError(
                    f"{name} matrix shape {value.shape} does not match the delay matrix {shape}"
                )
        alert = cls.__new__(cls)
        alert._matrix = matrix
        alert._ratios = ratios
        alert._predicted = predicted
        return alert

    @property
    def matrix(self) -> DelayMatrix:
        """The measured delay matrix."""
        return self._matrix

    @property
    def ratio_matrix(self) -> np.ndarray:
        """Prediction-ratio matrix (``nan`` for unmeasured edges); copy."""
        return self._ratios.copy()

    @property
    def predicted_matrix(self) -> np.ndarray:
        """Predicted-delay matrix of the underlying embedding; copy."""
        return self._predicted.copy()

    def ratio(self, i: int, j: int) -> float:
        """Prediction ratio of edge ``(i, j)``."""
        return float(self._ratios[i, j])

    def predicted_delay(self, i: int, j: int) -> float:
        """Predicted delay of edge ``(i, j)`` in milliseconds."""
        return float(self._predicted[i, j])

    def ratios(self, rows, cols) -> np.ndarray:
        """Prediction ratios of many edges: ``ratio_matrix[rows, cols]``.

        ``rows`` and ``cols`` are index arrays combined by numpy
        broadcasting; the values equal :meth:`ratio` edge by edge.
        """
        return self._ratios[rows, cols]

    def predicted_delays(self, rows, cols) -> np.ndarray:
        """Predicted delays of many edges: ``predicted_matrix[rows, cols]``."""
        return self._predicted[rows, cols]

    def alerted_edges(self, *, threshold: float = 0.6) -> set[tuple[int, int]]:
        """All measured edges the alert fires on at ``threshold`` (i < j)."""
        if threshold <= 0:
            raise AlertError("threshold must be positive")
        iu = np.triu_indices(self._matrix.n_nodes, k=1)
        values = self._ratios[iu]
        mask = np.isfinite(values) & (values <= threshold)
        return {(int(a), int(b)) for a, b in zip(iu[0][mask], iu[1][mask])}

    # -- evaluation (Figs. 20 and 21) ----------------------------------------

    def evaluate(
        self,
        severity: TIVSeverityResult,
        *,
        target_fraction: float = 0.1,
        thresholds: Sequence[float] | None = None,
    ) -> AlertEvaluation:
        """Evaluate alert accuracy and recall against ground-truth severity.

        Parameters
        ----------
        severity:
            Ground-truth TIV severities of the same matrix.
        target_fraction:
            The worst-severity fraction treated as the positives
            (paper: 1 %, 5 %, 10 %, 20 %).
        thresholds:
            Alert-ratio thresholds to sweep; defaults to 0.05..1.0 in steps
            of 0.05.
        """
        if severity.n_nodes != self._matrix.n_nodes:
            raise AlertError("severity result does not match the delay matrix")
        if thresholds is None:
            thresholds = np.arange(0.05, 1.0001, 0.05)
        thresholds = np.asarray(list(thresholds), dtype=float)
        if np.any(thresholds <= 0):
            raise AlertError("thresholds must be positive")

        iu = np.triu_indices(self._matrix.n_nodes, k=1)
        ratios = self._ratios[iu]
        severities = severity.severity[iu]
        valid = np.isfinite(ratios) & np.isfinite(severities)
        ratios, severities = ratios[valid], severities[valid]
        if ratios.size == 0:
            raise AlertError("no measured edges with both a ratio and a severity")

        n_bad = max(1, int(round(target_fraction * ratios.size)))
        severity_cutoff = np.partition(severities, -n_bad)[-n_bad]
        bad = severities >= severity_cutoff

        accuracy = np.full(thresholds.size, np.nan)
        recall = np.zeros(thresholds.size)
        alert_fraction = np.zeros(thresholds.size)
        total_bad = int(np.count_nonzero(bad))
        for idx, t in enumerate(thresholds):
            alerted = ratios <= t
            n_alerted = int(np.count_nonzero(alerted))
            alert_fraction[idx] = n_alerted / ratios.size
            hits = int(np.count_nonzero(alerted & bad))
            if n_alerted:
                accuracy[idx] = hits / n_alerted
            if total_bad:
                recall[idx] = hits / total_bad
        return AlertEvaluation(
            thresholds=thresholds,
            target_fraction=float(target_fraction),
            accuracy=accuracy,
            recall=recall,
            alert_fraction=alert_fraction,
        )


def severity_vs_prediction_ratio(
    matrix: DelayMatrix,
    severity: TIVSeverityResult,
    alert: TIVAlert,
    *,
    bin_width: float = 0.1,
    max_ratio: float = 5.0,
) -> BinnedStats:
    """Binned TIV severity as a function of prediction ratio (Fig. 19).

    Edges are grouped into ``bin_width``-wide prediction-ratio bins between
    0 and ``max_ratio``; each bin reports the 10th/50th/90th percentile
    severity.  The monotone downward trend of the median is the empirical
    basis of the alert mechanism.
    """
    iu = np.triu_indices(matrix.n_nodes, k=1)
    ratios = alert.ratio_matrix[iu]
    severities = severity.severity[iu]
    valid = np.isfinite(ratios) & np.isfinite(severities)
    return bin_by_value(
        ratios[valid],
        severities[valid],
        bin_width=bin_width,
        x_min=0.0,
        x_max=max_ratio,
    )
