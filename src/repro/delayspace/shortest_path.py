"""Shortest detour paths over the delay graph.

Figure 8 of the paper relates the direct delay of an edge to the length of
the shortest path between its endpoints through the delay graph: edges whose
shortest alternative path is much shorter than the direct delay are exactly
the edges that cause severe triangle inequality violations.

The computation treats the delay matrix as a dense weighted graph and runs
an in-place numpy Floyd–Warshall over it: O(N³) work in N whole-matrix
steps, exact at every size.
"""

from __future__ import annotations

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError


def shortest_path_matrix(matrix: DelayMatrix) -> np.ndarray:
    """Return the all-pairs shortest-path delay matrix.

    Missing edges are treated as absent (infinite direct delay); if the
    graph is disconnected the corresponding entries are ``inf``.  Measured
    zero-delay edges (co-located nodes) stay in the graph.  The graph is
    undirected: a pair measured in either direction is an edge, at the
    smaller of the two delays.

    Floyd–Warshall relaxes every pair through each intermediate ``k`` in
    ascending order, one in-place ``(N, N)`` ``np.minimum`` per ``k``.
    """
    delays = matrix.to_array()
    dist = np.fmin(delays, delays.T)
    dist[np.isnan(dist)] = np.inf
    np.fill_diagonal(dist, 0.0)
    for k in range(matrix.n_nodes):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    return dist


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
