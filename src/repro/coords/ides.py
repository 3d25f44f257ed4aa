"""IDES: matrix-factorisation network coordinates (Mao & Saul, IMC 2004).

IDES drops the metric-space assumption entirely: each node ``i`` gets an
*outgoing* vector ``u_i`` and an *incoming* vector ``v_i``, and the delay
from ``i`` to ``j`` is predicted as the inner product ``u_i · v_j``.  Because
inner products are not constrained by the triangle inequality, IDES can in
principle represent TIVs — the paper evaluates it as a strawman (§4.2,
Fig. 15) and finds that this extra expressiveness does not translate into
better *neighbour selection*.

The implementation follows the IDES architecture: a small set of
**landmarks** measures the full landmark-to-landmark delay matrix, which is
factorised by a truncated SVD; every ordinary host then derives its outgoing
and incoming vectors by least squares from its measured delays *to the
landmarks only*.  This keeps the measurement cost at O(N · L) like the real
system — fitting a factorisation to the complete N×N matrix would both be
unrealistic and overstate IDES's accuracy.

Every ordinary host is projected by *one* least-squares solve with all
hosts' landmark measurements stacked as right-hand sides (the factor matrix
is shared, so LAPACK factorises it once).  It agrees to floating-point
accuracy with a per-host oracle in ``tests/coords``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.coords.base import DelayPredictor
from repro.delayspace.matrix import DelayMatrix
from repro.errors import EmbeddingError
from repro.stats.rng import RngLike, ensure_rng
from repro.utils import is_integer

@dataclass(frozen=True)
class IDESConfig:
    """Parameters of the IDES factorisation.

    Attributes
    ----------
    dimension:
        Rank of the factorisation (number of coordinates per vector).
    n_landmarks:
        Number of landmark nodes whose full pairwise delays seed the
        factorisation.  ``None`` picks ``max(2 * dimension, 20)`` (capped at
        the node count), matching the guidance in the IDES paper.
    """

    dimension: int = 10
    n_landmarks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise EmbeddingError("dimension must be >= 1")
        if self.n_landmarks is not None and self.n_landmarks < 2:
            raise EmbeddingError("n_landmarks must be >= 2")


class IDESCoordinates(DelayPredictor):
    """Fitted IDES coordinates.

    Attributes
    ----------
    outgoing:
        ``(n_nodes, dimension)`` matrix of outgoing vectors.
    incoming:
        ``(n_nodes, dimension)`` matrix of incoming vectors.
    landmarks:
        Indices of the landmark nodes used during fitting (empty tuple when
        constructed directly from vectors).
    """

    def __init__(
        self,
        outgoing: np.ndarray,
        incoming: np.ndarray,
        landmarks: Sequence[int] = (),
    ):
        out = np.asarray(outgoing, dtype=float)
        inc = np.asarray(incoming, dtype=float)
        if out.shape != inc.shape or out.ndim != 2:
            raise EmbeddingError("outgoing and incoming vectors must share a 2-D shape")
        self.outgoing = out
        self.incoming = inc
        self.landmarks = tuple(int(i) for i in landmarks)

    @property
    def n_nodes(self) -> int:
        return int(self.outgoing.shape[0])

    @property
    def dimension(self) -> int:
        """Rank of the factorisation."""
        return int(self.outgoing.shape[1])

    def predicted_matrix(self) -> np.ndarray:
        """``u_i · v_j``, clamped at 0, zero diagonal: directed, not symmetric."""
        predicted = self.outgoing @ self.incoming.T
        predicted = np.maximum(predicted, 0.0)
        np.fill_diagonal(predicted, 0.0)
        return predicted


def _filled(matrix: DelayMatrix) -> np.ndarray:
    data = matrix.with_filled_missing().to_array()
    np.fill_diagonal(data, 0.0)
    return data


def _fit_svd(data: np.ndarray, dimension: int) -> tuple[np.ndarray, np.ndarray]:
    u, s, vt = np.linalg.svd(data, full_matrices=False)
    k = min(dimension, s.size)
    outgoing = u[:, :k] * s[:k]
    incoming = vt[:k, :].T
    return outgoing, incoming


def fit_ides(
    matrix: DelayMatrix,
    config: IDESConfig | None = None,
    *,
    rng: RngLike = None,
    landmarks: Optional[Sequence[int]] = None,
) -> IDESCoordinates:
    """Fit landmark-based IDES coordinates to a delay matrix.

    Parameters
    ----------
    matrix:
        Measured delays (missing values are filled with the median delay).
    config:
        Factorisation parameters.
    rng:
        Seed or generator (landmark selection).
    landmarks:
        Explicit landmark node indices; chosen uniformly at random when
        omitted.
    """
    cfg = config if config is not None else IDESConfig()
    gen = ensure_rng(rng)
    data = _filled(matrix)
    n = matrix.n_nodes

    if landmarks is not None:
        if not all(is_integer(i) for i in landmarks):
            raise EmbeddingError(f"landmark ids must be integers, got {landmarks!r}")
        landmark_idx = np.asarray(landmarks, dtype=int)
        if np.unique(landmark_idx).size != landmark_idx.size:
            raise EmbeddingError("landmark list contains duplicates")
        if landmark_idx.size < 2:
            raise EmbeddingError("need at least 2 landmarks")
        if landmark_idx.min() < 0 or landmark_idx.max() >= n:
            raise EmbeddingError("landmark index out of range")
    else:
        count = cfg.n_landmarks if cfg.n_landmarks is not None else max(2 * cfg.dimension, 20)
        count = min(count, n)
        landmark_idx = np.sort(gen.choice(n, size=count, replace=False))

    rank = min(cfg.dimension, landmark_idx.size)
    landmark_out, landmark_in = _fit_svd(data[np.ix_(landmark_idx, landmark_idx)], rank)

    outgoing = np.zeros((n, rank))
    incoming = np.zeros((n, rank))
    outgoing[landmark_idx] = landmark_out
    incoming[landmark_idx] = landmark_in

    # Ordinary hosts solve least-squares systems against the landmark
    # vectors using only their measured delays to the landmarks.
    is_landmark = np.zeros(n, dtype=bool)
    is_landmark[landmark_idx] = True
    host_idx = np.flatnonzero(~is_landmark)
    if host_idx.size:
        # One solve per factor: the coefficient matrix is shared by all
        # hosts, so their measurements stack as right-hand-side columns and
        # LAPACK factorises the landmark matrix exactly once.
        rhs = data[np.ix_(host_idx, landmark_idx)].T
        outgoing[host_idx] = np.linalg.lstsq(landmark_in, rhs, rcond=None)[0].T
        incoming[host_idx] = np.linalg.lstsq(landmark_out, rhs, rcond=None)[0].T

    return IDESCoordinates(outgoing, incoming, landmarks=landmark_idx.tolist())
