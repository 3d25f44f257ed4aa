"""Delay matrix container.

A :class:`DelayMatrix` is the central data structure of the library: an
N×N matrix of round-trip delays in milliseconds.  The diagonal is zero;
missing measurements are represented as ``nan``.  All analysis modules
(TIV severity, Vivaldi, Meridian, the experiment harness) take a
``DelayMatrix`` as input.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import DelayMatrixError


class DelayMatrix:
    """Symmetric matrix of measured round-trip delays.

    Parameters
    ----------
    delays:
        Square array-like of delays in milliseconds.  The diagonal is forced
        to zero.  ``nan`` marks missing measurements.
    labels:
        Optional node labels (e.g. host names).  Defaults to stringified
        indices.
    symmetrize:
        If True (default), asymmetric inputs are symmetrised by averaging
        ``d(i, j)`` and ``d(j, i)`` (ignoring missing halves).  If False,
        asymmetric input raises :class:`DelayMatrixError`.
    """

    def __init__(
        self,
        delays: np.ndarray | Sequence[Sequence[float]],
        labels: Optional[Sequence[str]] = None,
        *,
        symmetrize: bool = True,
    ):
        matrix = np.array(delays, dtype=float, copy=True)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DelayMatrixError(
                f"delay matrix must be square, got shape {matrix.shape}"
            )
        if matrix.shape[0] < 2:
            raise DelayMatrixError("delay matrix needs at least 2 nodes")

        with np.errstate(invalid="ignore"):
            if np.any(matrix < 0):
                raise DelayMatrixError("delays must be non-negative")

        if symmetrize:
            matrix = self._symmetrized(matrix)
        else:
            finite = np.isfinite(matrix) & np.isfinite(matrix.T)
            if not np.allclose(matrix[finite], matrix.T[finite]):
                raise DelayMatrixError(
                    "delay matrix is asymmetric; pass symmetrize=True to average"
                )

        np.fill_diagonal(matrix, 0.0)
        self._delays = matrix
        n = matrix.shape[0]
        if labels is None:
            self._labels = tuple(str(i) for i in range(n))
        else:
            if len(labels) != n:
                raise DelayMatrixError(
                    f"expected {n} labels, got {len(labels)}"
                )
            self._labels = tuple(str(label) for label in labels)

    @staticmethod
    def _symmetrized(matrix: np.ndarray) -> np.ndarray:
        upper = matrix
        lower = matrix.T
        both = np.isfinite(upper) & np.isfinite(lower)
        only_upper = np.isfinite(upper) & ~np.isfinite(lower)
        only_lower = ~np.isfinite(upper) & np.isfinite(lower)
        result = np.full_like(matrix, np.nan)
        result[both] = (upper[both] + lower[both]) / 2.0
        result[only_upper] = upper[only_upper]
        result[only_lower] = lower[only_lower]
        return result

    # -- basic accessors ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the matrix."""
        return int(self._delays.shape[0])

    def __len__(self) -> int:
        return self.n_nodes

    @property
    def labels(self) -> tuple[str, ...]:
        """Node labels."""
        return self._labels

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the underlying N×N delay array (ms)."""
        view = self._delays.view()
        view.flags.writeable = False
        return view

    def to_array(self) -> np.ndarray:
        """Return a writable copy of the delay array."""
        return self._delays.copy()

    def delay(self, i: int, j: int) -> float:
        """Measured delay between nodes ``i`` and ``j`` (ms), ``nan`` if missing."""
        self._check_index(i)
        self._check_index(j)
        return float(self._delays[i, j])

    def __getitem__(self, key: tuple[int, int]) -> float:
        i, j = key
        return self.delay(i, j)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_nodes:
            raise DelayMatrixError(
                f"node index {i} out of range for a {self.n_nodes}-node matrix"
            )

    def __repr__(self) -> str:
        return f"DelayMatrix(n_nodes={self.n_nodes}, missing={self.missing_fraction():.3f})"

    # -- edge iteration and views -------------------------------------------

    def edges(self, *, include_missing: bool = False) -> Iterator[tuple[int, int, float]]:
        """Yield ``(i, j, delay)`` for every undirected edge with ``i < j``."""
        n = self.n_nodes
        for i in range(n):
            row = self._delays[i]
            for j in range(i + 1, n):
                d = row[j]
                if include_missing or np.isfinite(d):
                    yield i, j, float(d)

    def edge_delays(self) -> np.ndarray:
        """Return the delays of all measured undirected edges (upper triangle)."""
        iu = np.triu_indices(self.n_nodes, k=1)
        vals = self._delays[iu]
        return vals[np.isfinite(vals)]

    def edge_index_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(rows, cols)`` index arrays of all measured undirected edges."""
        iu = np.triu_indices(self.n_nodes, k=1)
        vals = self._delays[iu]
        mask = np.isfinite(vals)
        return iu[0][mask], iu[1][mask]

    def missing_fraction(self) -> float:
        """Fraction of off-diagonal entries that are missing."""
        n = self.n_nodes
        off_diag = n * (n - 1)
        missing = np.count_nonzero(~np.isfinite(self._delays)) - 0
        return float(missing) / off_diag if off_diag else 0.0

    def is_complete(self) -> bool:
        """True if every off-diagonal delay is measured."""
        return self.missing_fraction() == 0.0

    # -- transformations -----------------------------------------------------

    def submatrix(self, nodes: Sequence[int]) -> "DelayMatrix":
        """Return the delay matrix restricted to ``nodes`` (in the given order)."""
        idx = np.asarray(list(nodes), dtype=int)
        if idx.size < 2:
            raise DelayMatrixError("submatrix needs at least 2 nodes")
        for i in idx:
            self._check_index(int(i))
        if len(set(idx.tolist())) != idx.size:
            raise DelayMatrixError("submatrix node list contains duplicates")
        sub = self._delays[np.ix_(idx, idx)]
        labels = [self._labels[int(i)] for i in idx]
        return DelayMatrix(sub, labels=labels, symmetrize=False)

    def with_filled_missing(self) -> "DelayMatrix":
        """Return a copy with missing delays filled with the median measured delay."""
        data = self.to_array()
        mask = ~np.isfinite(data)
        np.fill_diagonal(mask, False)
        if not mask.any():
            return DelayMatrix(data, labels=self._labels, symmetrize=False)
        measured = data[np.isfinite(data) & ~np.eye(self.n_nodes, dtype=bool)]
        data[mask] = float(np.median(measured))
        return DelayMatrix(data, labels=self._labels, symmetrize=False)

    def reordered(self, order: Sequence[int]) -> "DelayMatrix":
        """Return a copy with nodes permuted into ``order`` (used for Fig. 3)."""
        idx = np.asarray(list(order), dtype=int)
        if idx.size != self.n_nodes or set(idx.tolist()) != set(range(self.n_nodes)):
            raise DelayMatrixError("order must be a permutation of all node indices")
        return self.submatrix(idx)

    # -- summaries -----------------------------------------------------------

    def mean_delay(self) -> float:
        """Mean of all measured edge delays."""
        return float(np.mean(self.edge_delays()))

    def median_delay(self) -> float:
        """Median of all measured edge delays."""
        return float(np.median(self.edge_delays()))


def edge_mask(n_nodes: int, edges: Optional[Iterable[tuple[int, int]]]) -> np.ndarray:
    """Symmetric ``(n_nodes, n_nodes)`` boolean mask of undirected ``edges``.

    ``mask[i, j]`` and ``mask[j, i]`` are True for every ``(i, j)`` in
    ``edges`` (either order).  Edges naming a node outside ``[0, n_nodes)``
    can never be used and are ignored, as a set-membership test would.
    """
    mask = np.zeros((n_nodes, n_nodes), dtype=bool)
    pairs = np.asarray(list(edges or ()), dtype=np.int64).reshape(-1, 2)
    inside = np.all((pairs >= 0) & (pairs < n_nodes), axis=1)
    a, b = pairs[inside, 0], pairs[inside, 1]
    mask[a, b] = True
    mask[b, a] = True
    return mask
