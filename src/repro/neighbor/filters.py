"""The naive TIV-severity filter strawman (§4.3 of the paper).

Assuming *global* knowledge of the delay matrix, the worst-severity edges
can be identified exactly.  The strawman strategy simply refuses to use
those edges — Vivaldi nodes do not probe across them and Meridian nodes do
not accept ring members across them.  The paper shows this barely helps
Vivaldi and actively hurts Meridian (under-populated rings), motivating the
finer-grained TIV alert mechanism of §5.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np

from repro.delayspace.matrix import DelayMatrix, edge_mask
from repro.errors import NeighborSelectionError
from repro.stats.rng import RngLike, ensure_rng
from repro.tiv.severity import TIVSeverityResult


def severity_excluded_edges(
    severity: TIVSeverityResult, *, fraction: float = 0.2
) -> set[tuple[int, int]]:
    """Return the globally worst ``fraction`` of edges by TIV severity.

    The paper's strawman removes the worst 20 % of edges.
    """
    return severity.worst_edges(fraction)


def random_neighbor_lists(
    matrix: DelayMatrix,
    *,
    n_neighbors: int = 32,
    rng: RngLike = None,
    excluded_edges: Optional[set[tuple[int, int]]] = None,
) -> list[list[int]]:
    """Draw random Vivaldi probing-neighbour lists, optionally avoiding edges.

    Parameters
    ----------
    matrix:
        The delay matrix (defines the node population).
    n_neighbors:
        Neighbours per node (paper: 32).
    rng:
        Seed or generator.
    excluded_edges:
        Edges (as ``(i, j)`` in any order) that must not be used.  When a
        node does not have enough non-excluded candidates the list is
        topped up from the excluded ones so Vivaldi never starves — matching
        the practical reality that a filter cannot leave a node isolated.
    """
    if n_neighbors < 1:
        raise NeighborSelectionError("n_neighbors must be >= 1")
    gen = ensure_rng(rng)
    n = matrix.n_nodes
    k = min(n_neighbors, n - 1)
    excluded = edge_mask(n, excluded_edges)

    lists: list[list[int]] = []
    for i in range(n):
        pool = np.delete(np.arange(n), i)
        gen.shuffle(pool)
        blocked = excluded[i, pool]
        chosen = pool[~blocked][:k].tolist()
        if len(chosen) < k:
            chosen.extend(pool[blocked][: k - len(chosen)].tolist())
        lists.append(chosen)
    return lists


def severity_filtered_neighbor_lists(
    matrix: DelayMatrix,
    severity: TIVSeverityResult,
    *,
    n_neighbors: int = 32,
    fraction: float = 0.2,
    rng: RngLike = None,
) -> list[list[int]]:
    """Random neighbour lists that avoid the worst-severity edges (§4.3)."""
    excluded = severity_excluded_edges(severity, fraction=fraction)
    return random_neighbor_lists(
        matrix, n_neighbors=n_neighbors, rng=rng, excluded_edges=excluded
    )


def neighbor_edge_severities(
    neighbor_lists: Sequence[Sequence[int]], severity: TIVSeverityResult
) -> np.ndarray:
    """TIV severity of every (node, neighbour) edge in the given lists.

    Used by Fig. 22 to show how the dynamic-neighbour procedure drains high
    severity edges out of the Vivaldi neighbour sets.  The values come in
    list order, from one gather over every (node, neighbour) pair.
    """
    sizes = [len(neighbors) for neighbors in neighbor_lists]
    rows = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.fromiter(chain.from_iterable(neighbor_lists), dtype=np.int64, count=rows.size)
    values = severity.severity[rows, cols]
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise NeighborSelectionError("neighbour lists contain no measured edges")
    return values
