"""Vivaldi with a localized adjustment term (Lee et al., SIGMETRICS 2006).

The LAT technique keeps the Euclidean coordinates produced by a network
embedding (here: Vivaldi) but gives every node ``x`` an additive,
non-Euclidean adjustment ``e_x``.  The predicted delay becomes::

    d̂(x, y) = ||c_x - c_y|| + e_x + e_y

where ``e_x`` is set to half the average signed prediction error observed by
node ``x`` against a sample of measured nodes::

    e_x = sum_{y in S_x} (d(x, y) - ||c_x - c_y||) / (2 |S_x|)

The paper evaluates LAT as a §4.2 strawman (Fig. 16) and finds it improves
aggregate accuracy a little but barely helps neighbour selection.

Every node's measured set is sampled in one RNG call (a row-shuffled
shifted-index matrix, the same trick as Vivaldi's neighbour sampling) and
all adjustment terms are evaluated as whole-array gathers over a padded
``(n, k)`` sample-index matrix.  A per-node, per-sample oracle in
``tests/coords`` checks it: with explicit ``samples`` the two agree to
floating point, while random sampling draws a different per-seed stream
(one draw versus n draws).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coords.base import DelayPredictor
from repro.coords.vivaldi import VivaldiSystem, _peer_lists, pairwise_distances
from repro.delayspace.matrix import DelayMatrix
from repro.errors import EmbeddingError
from repro.stats.rng import RngLike, ensure_rng

class LATCoordinates(DelayPredictor):
    """Euclidean coordinates plus per-node localized adjustment terms.

    Parameters
    ----------
    coordinates:
        ``(n_nodes, dimension)`` Euclidean coordinates (typically a Vivaldi
        snapshot).
    adjustments:
        Per-node adjustment terms ``e_x`` (ms).
    """

    def __init__(self, coordinates: np.ndarray, adjustments: np.ndarray):
        coords = np.asarray(coordinates, dtype=float)
        adj = np.asarray(adjustments, dtype=float)
        if coords.ndim != 2:
            raise EmbeddingError("coordinates must be a 2-D array")
        if adj.shape != (coords.shape[0],):
            raise EmbeddingError("adjustments must have one entry per node")
        self.coordinates = coords
        self.adjustments = adj

    @property
    def n_nodes(self) -> int:
        return int(self.coordinates.shape[0])

    def predicted_matrix(self) -> np.ndarray:
        """``||c_x - c_y|| + (e_x + e_y)``, clamped at 0: equal to its transpose bit for bit."""
        predicted = pairwise_distances(self.coordinates)
        predicted += np.add.outer(self.adjustments, self.adjustments)
        np.maximum(predicted, 0.0, out=predicted)
        np.fill_diagonal(predicted, 0.0)
        return predicted


def _padded_samples(sample_lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Mirror ragged per-node sample lists into a padded index matrix.

    Returns ``(pad, mask)`` where ``pad`` is ``(n, k_max)`` (pad slots hold
    index 0 — they are masked out before any arithmetic) and ``mask`` marks
    the real entries.
    """
    n = len(sample_lists)
    lengths = np.fromiter((len(s) for s in sample_lists), np.int64, count=n)
    width = int(lengths.max()) if n and lengths.max() > 0 else 1
    pad = np.zeros((n, width), dtype=np.int64)
    for i, sample in enumerate(sample_lists):
        pad[i, : lengths[i]] = sample
    mask = np.arange(width)[None, :] < lengths[:, None]
    return pad, mask


def _adjustments(
    measured: np.ndarray, coords: np.ndarray, pad: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Evaluate every node's adjustment term as whole-array gathers."""
    n = measured.shape[0]
    rows = np.arange(n)[:, None]
    sampled_delay = measured[rows, pad]
    valid = mask & np.isfinite(sampled_delay)

    diffs = coords[:, None, :] - coords[pad]
    predicted = np.sqrt(np.einsum("nkd,nkd->nk", diffs, diffs))
    errors = np.where(valid, sampled_delay - predicted, 0.0)
    counts = valid.sum(axis=1)
    adjustments = np.zeros(n)
    np.divide(errors.sum(axis=1), 2.0 * counts, out=adjustments, where=counts > 0)
    return adjustments


def fit_lat(
    vivaldi: VivaldiSystem,
    *,
    sample_size: Optional[int] = None,
    samples: Optional[Sequence[Sequence[int]]] = None,
    rng: RngLike = None,
) -> LATCoordinates:
    """Compute localized adjustment terms for a converged Vivaldi embedding.

    Parameters
    ----------
    vivaldi:
        A (converged) Vivaldi system; its coordinates and measured delay
        matrix are used.
    sample_size:
        Number of random measured nodes each node averages its error over.
        Defaults to the node's Vivaldi neighbour count (the realistic
        choice: a node only knows the delays it has measured).
    samples:
        Explicit per-node sample lists, overriding ``sample_size``.  Each
        id must be another node in ``0..n-1``, as a neighbour must.
    rng:
        Seed or generator used when sampling.
    """
    matrix: DelayMatrix = vivaldi.matrix
    coords = vivaldi.coordinates
    measured = matrix.values
    n = matrix.n_nodes
    gen = ensure_rng(rng)

    if samples is not None:
        pad, mask = _padded_samples(_peer_lists(samples, n, "sample"))
    else:
        k = sample_size if sample_size is not None else vivaldi.config.n_neighbors
        k = min(k, n - 1)
        if k < 1:
            raise EmbeddingError("sample_size must be >= 1")
        # Row i holds 0..n-1 with i removed (values >= i shift up by one);
        # one rng.permuted call shuffles every row independently and the
        # first k columns are the node's sample — no per-node choice() loop.
        candidates = np.tile(np.arange(n - 1, dtype=np.int64), (n, 1))
        candidates += candidates >= np.arange(n, dtype=np.int64)[:, None]
        pad = gen.permuted(candidates, axis=1)[:, :k]
        mask = np.ones(pad.shape, dtype=bool)
    return LATCoordinates(coords, _adjustments(measured, coords, pad, mask))
