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


def squared_distance(diffs):
    """Sum of the squares of per-axis differences, in a fixed order.

    ``diffs`` yields one difference per coordinate axis: Python floats, or
    equally shaped arrays (one plane per axis).  The squares of the even
    axes are summed in order, then those of the odd axes, then the two
    totals.  Below 8 axes that is the order of numpy's contiguous
    dot-product loop on builds with two float64 SIMD lanes (the x86-64-v2
    baseline), so the result equals ``np.einsum("...d,...d->...", diff,
    diff)`` there bit for bit; unlike einsum, it does not depend on the
    numpy build.  The online embedding's scalar and batched queries,
    ``VivaldiSystem.predict_edges`` and fig11's oscillation fold all sum
    through it, so the answers that tests compare exactly agree bit for bit.

    Array planes are squared and summed in place (the first two become the
    totals), so pass temporaries the caller no longer needs.
    """
    lanes = []
    for axis, diff in enumerate(diffs):
        diff *= diff
        if axis < 2:
            lanes.append(diff)
        else:
            lanes[axis % 2] += diff
    if len(lanes) == 2:
        lanes[0] += lanes[1]
    return lanes[0]


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
