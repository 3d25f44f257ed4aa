"""Common interface for delay-prediction systems.

Every coordinate system in this library (Vivaldi, IDES, LAT) exposes the
same small surface: predict the delay between two nodes, and materialise the
full predicted-delay matrix.  The neighbour-selection harness and the TIV
alert mechanism are written against this interface, so plugging in a new
coordinate system (e.g. a hyperbolic embedding) only requires implementing
:class:`DelayPredictor`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import EmbeddingError


class DelayPredictor(abc.ABC):
    """A system that predicts pairwise network delays."""

    @property
    @abc.abstractmethod
    def n_nodes(self) -> int:
        """Number of nodes the predictor covers."""

    @abc.abstractmethod
    def predict(self, i: int, j: int) -> float:
        """Predicted delay between nodes ``i`` and ``j`` in milliseconds."""

    def predicted_matrix(self) -> np.ndarray:
        """Full N×N matrix of predicted delays (zero diagonal).

        The default implementation loops over :meth:`predict`; concrete
        systems override it with a vectorised version.
        """
        n = self.n_nodes
        out = np.zeros((n, n), dtype=float)
        for i in range(n):
            for j in range(i + 1, n):
                value = self.predict(i, j)
                out[i, j] = value
                out[j, i] = value
        return out

    def prediction_ratios(self, measured: np.ndarray) -> np.ndarray:
        """Return predicted / measured delay for every entry of ``measured``.

        The prediction ratio is the quantity the paper's TIV alert mechanism
        thresholds: ratios well below one flag edges that the embedding had
        to shrink, which correlates with severe TIVs.  Entries with missing
        or zero measured delay are ``nan``.
        """
        measured = np.asarray(measured, dtype=float)
        if measured.shape != (self.n_nodes, self.n_nodes):
            raise EmbeddingError(
                f"measured matrix shape {measured.shape} does not match "
                f"{self.n_nodes} nodes"
            )
        predicted = self.predicted_matrix()
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(measured > 0, predicted / measured, np.nan)
        np.fill_diagonal(ratios, np.nan)
        return ratios


class MatrixPredictor(DelayPredictor):
    """A :class:`DelayPredictor` backed by an explicit predicted matrix.

    Useful in tests and for treating ground-truth or externally computed
    predictions uniformly with real coordinate systems.
    """

    def __init__(self, predicted: np.ndarray):
        matrix = np.asarray(predicted, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise EmbeddingError("MatrixPredictor requires a square matrix")
        self._matrix = matrix.copy()
        np.fill_diagonal(self._matrix, 0.0)

    @property
    def n_nodes(self) -> int:
        return int(self._matrix.shape[0])

    def predict(self, i: int, j: int) -> float:
        return float(self._matrix[i, j])

    def predicted_matrix(self) -> np.ndarray:
        return self._matrix.copy()
