"""Common interface for delay-prediction systems.

Every coordinate system in this library (Vivaldi, IDES, LAT) exposes the
same small surface: the full predicted-delay matrix.  The
neighbour-selection harness and the TIV alert mechanism are written
against it, so plugging in a new coordinate system (e.g. a hyperbolic
embedding) only requires implementing :class:`DelayPredictor`.

Every predicted delay of a coordinate pair is ``sqrt`` of
:func:`squared_distance`, plus the two endpoints' terms (heights, LAT
adjustments) added together as one term, so each value is symmetric by
construction and every read of one pair gives the same bits.
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
    numpy build.  Every predicted distance sums through it:
    :func:`~repro.coords.vivaldi.pairwise_distances` (and so every
    ``predicted_matrix`` but IDES's), ``VivaldiSystem.predict_edges``,
    fig11's oscillation fold, and the online embedding's scalar and
    batched queries.

    Array planes are squared and summed in place (the first two become the
    totals), so pass temporaries the caller no longer needs.  A later
    plane is done with before the next is drawn, so a generator may write
    all of them into one buffer.
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
    def predicted_matrix(self) -> np.ndarray:
        """Full N×N matrix of predicted delays in milliseconds (zero diagonal)."""


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

    def predicted_matrix(self) -> np.ndarray:
        return self._matrix.copy()
