"""Shortest detour paths over the delay graph.

Figure 8 of the paper relates the direct delay of an edge to the length of
the shortest path between its endpoints through the delay graph: edges whose
shortest alternative path is much shorter than the direct delay are exactly
the edges that cause severe triangle inequality violations.

The computation treats the delay matrix as a dense weighted graph and runs
all-pairs shortest paths (SciPy's C implementation), so it scales to the
matrix sizes used by the experiment harness.

For large matrices (n ≥ 2000, where the O(N³)/O(N² log N) all-pairs sweep
stops being practical) the module also provides a **landmark
approximation**: exact single-source shortest paths are computed from a
small set of landmark nodes only, and every other distance is estimated as
``min over landmarks l of d(l, i) + d(l, j)``.  By the triangle inequality
of the shortest-path metric this is always an *upper bound* on the true
distance, and it is exact whenever one endpoint is a landmark (or the true
shortest path passes through one).  The sharded ``shortest`` artifact is
built from these row estimates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError

#: Bounds of the default landmark budget (see :func:`landmark_count`).
MIN_LANDMARKS = 16
MAX_LANDMARKS = 64


def landmark_count(n_nodes: int) -> int:
    """Default landmark budget for an ``n_nodes`` matrix: ``√n`` clamped.

    √n keeps the landmark sweep (L single-source Dijkstra runs) well below
    the all-pairs cost while growing coverage with the matrix; the clamp
    bounds both the minimum coverage and the sweep cost at paper scale.
    """
    n = int(n_nodes)
    if n < 2:
        raise DelayMatrixError("landmark selection needs at least 2 nodes")
    return min(MAX_LANDMARKS, max(MIN_LANDMARKS, int(round(math.sqrt(n)))), n)


def landmark_indices(
    n_nodes: int, n_landmarks: int, rng: np.random.Generator | int | None = 0
) -> np.ndarray:
    """Deterministically sample ``n_landmarks`` distinct landmark nodes.

    Uniform sampling matches the paper's finding that TIVs are pervasive
    rather than concentrated: any spread-out landmark set sees representative
    detours.  Returned sorted so the choice is stable under re-seeding.
    """
    n, k = int(n_nodes), int(n_landmarks)
    if not 1 <= k <= n:
        raise DelayMatrixError(f"need 1 <= n_landmarks <= {n}, got {n_landmarks}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return np.sort(gen.choice(n, size=k, replace=False))


def _masked_graph(matrix: DelayMatrix):
    from scipy.sparse.csgraph import csgraph_from_masked

    delays = matrix.to_array()
    return csgraph_from_masked(np.ma.masked_array(delays, mask=~np.isfinite(delays)))


def landmark_distances(
    matrix: DelayMatrix, landmarks: np.ndarray, *, method: str = "D"
) -> np.ndarray:
    """Exact shortest-path distances from every landmark: an ``(L, N)`` matrix.

    Runs SciPy's single-source sweep with ``indices=landmarks`` (Dijkstra
    by default), so the cost is L single-source runs rather than N.
    """
    from scipy.sparse.csgraph import shortest_path

    landmarks = np.asarray(landmarks, dtype=int)
    dist = shortest_path(
        _masked_graph(matrix), method=method, directed=False, indices=landmarks
    )
    return np.asarray(dist, dtype=float)


def landmark_shortest_rows(
    landmark_dists: np.ndarray,
    landmarks: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Landmark upper-bound shortest-path rows for sources ``[start, stop)``.

    ``estimate(i, j) = min over landmarks l of d(l, i) + d(l, j)`` — an
    upper bound on the true shortest path, exact on landmark rows.  The
    minimum accumulates landmark by landmark so peak extra memory is one
    ``(stop - start, N)`` block, never ``L`` of them.
    """
    lm = np.asarray(landmark_dists, dtype=float)
    landmarks = np.asarray(landmarks, dtype=int)
    n = lm.shape[1]
    start, stop = int(start), int(stop)
    if not 0 <= start <= stop <= n:
        raise DelayMatrixError(f"need 0 <= start <= stop <= {n}, got [{start}, {stop})")
    rows = np.full((stop - start, n), np.inf, dtype=float)
    for l in range(lm.shape[0]):
        np.minimum(rows, lm[l, start:stop, None] + lm[l, None, :], out=rows)
    # Landmark rows are exact by construction, but replace them anyway so a
    # disconnected landmark (inf to everything) cannot degrade its own row.
    in_range = (landmarks >= start) & (landmarks < stop)
    for l in np.flatnonzero(in_range):
        rows[landmarks[l] - start] = lm[l]
    rows[np.arange(stop - start), np.arange(start, stop)] = 0.0
    return rows


def landmark_shortest_path_matrix(
    matrix: DelayMatrix,
    *,
    n_landmarks: int | None = None,
    rng: np.random.Generator | int | None = 0,
    method: str = "D",
) -> np.ndarray:
    """Full landmark-approximated shortest-path matrix (convenience wrapper).

    Equivalent to stitching :func:`landmark_shortest_rows` over all rows;
    use the row form (as the sharded artifact tier does) when the dense
    result would not fit the memory budget.
    """
    count = landmark_count(matrix.n_nodes) if n_landmarks is None else int(n_landmarks)
    landmarks = landmark_indices(matrix.n_nodes, count, rng)
    dists = landmark_distances(matrix, landmarks, method=method)
    return landmark_shortest_rows(dists, landmarks, 0, matrix.n_nodes)


def shortest_path_matrix(matrix: DelayMatrix, *, method: str = "auto") -> np.ndarray:
    """Return the all-pairs shortest-path delay matrix.

    Missing edges are treated as absent (infinite direct delay); if the
    graph is disconnected the corresponding entries are ``inf``.

    Parameters
    ----------
    matrix:
        The delay matrix.
    method:
        Passed through to :func:`scipy.sparse.csgraph.shortest_path`
        (``"auto"``, ``"FW"``, ``"D"``...).
    """
    # An explicit missing-entry mask (in _masked_graph) keeps measured
    # zero-delay edges (e.g. co-located nodes) in the graph: a dense
    # csgraph input would treat every 0 entry as "no edge" and drop them.
    from scipy.sparse.csgraph import shortest_path

    dist = shortest_path(_masked_graph(matrix), method=method, directed=False)
    return np.asarray(dist, dtype=float)


def detour_gains(matrix: DelayMatrix, shortest: np.ndarray | None = None) -> np.ndarray:
    """Return per-edge detour gain ``direct_delay / shortest_path_delay``.

    A gain greater than one means a strictly shorter multi-hop path exists,
    i.e. the edge participates in at least one triangle inequality violation
    (possibly via multi-edge detours).  Only measured undirected edges are
    reported, in upper-triangle order.
    """
    if shortest is None:
        shortest = shortest_path_matrix(matrix)
    if shortest.shape != (matrix.n_nodes, matrix.n_nodes):
        raise DelayMatrixError("shortest-path matrix shape does not match the delay matrix")
    rows, cols = matrix.edge_index_pairs()
    direct = matrix.values[rows, cols]
    alt = shortest[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        # alt == 0 splits two ways: a zero-delay edge whose shortest path is
        # itself (neutral gain 1), and a positive edge with a zero-length
        # detour through co-located nodes (an unboundedly severe violation).
        gains = np.where(alt > 0, direct / alt, np.where(direct > 0, np.inf, 1.0))
    return np.asarray(gains, dtype=float)


def shortest_path_lengths_for_edges(
    matrix: DelayMatrix, shortest: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(edge_delays, shortest_path_delays)`` for all measured edges.

    This is the raw material of the bottom panel of Fig. 8: the distribution
    of shortest-path lengths for edges grouped by their direct delay.
    """
    if shortest is None:
        shortest = shortest_path_matrix(matrix)
    rows, cols = matrix.edge_index_pairs()
    return matrix.values[rows, cols].astype(float), shortest[rows, cols].astype(float)
