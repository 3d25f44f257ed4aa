"""The TIV severity metric (Section 2.1 of the paper).

Given nodes A, B, C, edge AC *causes* a triangle inequality violation in the
triangle ABC when ``d(A,B) + d(B,C) < d(A,C)``.  The triangulation ratio of
that violation is ``d(A,C) / (d(A,B) + d(B,C))`` (always > 1 for a
violation).  The paper defines the **TIV severity** of edge AC over a node
set ``S`` as::

    severity(A, C) = sum over violating B of d(A,C) / (d(A,B) + d(B,C))  /  |S|

A severity of zero means the edge causes no violation; larger values mean
more and/or stronger violations.  The metric deliberately combines the
*number* of violations and their triangulation ratios, which the paper shows
is what neither quantity achieves alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError


@dataclass(frozen=True)
class TIVSeverityResult:
    """Per-edge TIV severity of a delay matrix.

    Attributes
    ----------
    severity:
        N×N symmetric matrix of TIV severities.  Entries for missing edges
        and the diagonal are ``nan``.
    violation_counts:
        N×N matrix with the number of third nodes B that witness a violation
        of edge (i, j).
    n_nodes:
        Number of nodes |S| used for the normalisation.
    """

    severity: np.ndarray = field(repr=False)
    violation_counts: np.ndarray = field(repr=False)
    n_nodes: int

    def edge_severities(self) -> np.ndarray:
        """Severity of every measured undirected edge (upper-triangle order)."""
        iu = np.triu_indices(self.n_nodes, k=1)
        vals = self.severity[iu]
        return vals[np.isfinite(vals)]

    def edge_severity(self, i: int, j: int) -> float:
        """Severity of the edge between nodes ``i`` and ``j``."""
        return float(self.severity[i, j])

    def worst_edges(self, fraction: float) -> set[tuple[int, int]]:
        """Return the ``fraction`` of measured edges with the highest severity.

        Edges are returned as ``(i, j)`` tuples with ``i < j``.  This is the
        primitive used both by the §4.3 naive filter strawman and by the
        alert-accuracy evaluation of Figs. 20–21.

        Selection runs in O(E) via :func:`np.argpartition` rather than a
        full O(E log E) sort.  Ties at the selection boundary are broken
        deterministically: every edge strictly above the boundary severity
        is included, and the remaining slots go to the boundary-severity
        edges earliest in upper-triangle order.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        iu = np.triu_indices(self.n_nodes, k=1)
        vals = self.severity[iu]
        finite = np.isfinite(vals)
        rows, cols, vals = iu[0][finite], iu[1][finite], vals[finite]
        count = max(1, int(round(fraction * vals.size)))
        if count >= vals.size:
            selected = np.arange(vals.size)
        else:
            kth = vals.size - count
            threshold = vals[np.argpartition(vals, kth)[kth]]
            above = np.flatnonzero(vals > threshold)
            boundary = np.flatnonzero(vals == threshold)
            selected = np.concatenate([above, boundary[: count - above.size]])
        return {(int(rows[k]), int(cols[k])) for k in selected}

    def severity_threshold(self, fraction: float) -> float:
        """Severity value separating the worst ``fraction`` of edges from the rest."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        vals = self.edge_severities()
        return float(np.quantile(vals, 1.0 - fraction))

    def violating_triangle_fraction(self) -> float:
        """Fraction of measured triangles that violate the inequality (§2).

        A triangle counts when all three of its edges are measured; it
        violates when one edge is longer than the sum of the other two.
        Delays are non-negative and the matrix is symmetric, so at most one
        edge of a triangle can be violated (in floating point too, since
        ``fl(x + y) >= max(x, y)`` for ``x, y >= 0``), and edge (a, c)
        counts witness b exactly when triangle (a, b, c) violates at
        (a, c).  The violating triangles are therefore the upper-triangle
        sum of :attr:`violation_counts`.  Severity is ``nan`` exactly on
        unmeasured edges and the diagonal (a zero-length detour makes a
        measured edge's severity ``inf``), so with ``M`` the measured-edge
        mask the triangles number ``((M @ M) * M).sum() / 6``.  Both counts
        are exact integers, so the fraction equals exhaustive enumeration
        bit for bit, in one O(N³) matrix product instead of a pass over
        every triple.
        """
        measured = (~np.isnan(self.severity)).astype(float)
        triangles = int(((measured @ measured) * measured).sum()) // 6
        if triangles == 0:
            return 0.0
        return int(np.triu(self.violation_counts, k=1).sum()) / triangles

    def summary(self) -> dict[str, float]:
        """Scalar summary of the edge-severity distribution."""
        vals = self.edge_severities()
        return {
            "edges": float(vals.size),
            "mean": float(vals.mean()),
            "median": float(np.median(vals)),
            "p90": float(np.quantile(vals, 0.90)),
            "max": float(vals.max()),
            "fraction_nonzero": float(np.count_nonzero(vals > 0) / vals.size),
        }


def _prepared_delays(matrix: DelayMatrix) -> np.ndarray:
    """Return the delay array with missing entries replaced by +inf.

    Using +inf makes missing edges automatically fail every "shorter detour"
    comparison, so they never register as violations or witnesses.
    """
    delays = matrix.to_array()
    missing = ~np.isfinite(delays)
    delays[missing] = np.inf
    np.fill_diagonal(delays, 0.0)
    return delays


def compute_tiv_severity(
    matrix: DelayMatrix, *, chunk_size: int | None = None
) -> TIVSeverityResult:
    """Compute the TIV severity of every edge of ``matrix``.

    The computation is O(N³) time, vectorised per source row, and covers
    one triangle: source row ``a`` evaluates only the columns ``c >= a``,
    and the lower triangle is their mirror.  The mirror is exact because a
    symmetric matrix gives ``d(c,b) + d(b,a)`` the same float as
    ``d(a,b) + d(b,c)``, summed over the witnesses b in the same order,
    and the counts are integers.  (A matrix that is not exactly symmetric,
    equal only within ``np.allclose`` or measured in one direction only,
    therefore counts by its upper-triangle orientation, as the triangle
    fraction does.)  Slices start at the diagonal, not past it, so every
    one that matters is at least two columns wide: numpy sums a one-column
    slice pairwise instead of in witness order, which would move the last
    edge by an ulp.

    Each source row materialises O(N²) temporaries (the ``two_hop`` float
    matrix plus the boolean witness mask and the ratio matrix — roughly
    ``20 * N²`` bytes at peak).

    Parameters
    ----------
    matrix:
        The delay matrix.
    chunk_size:
        Bound on the witness dimension processed at once, capping the
        per-row temporaries at O(chunk × N).  ``None`` (the default) takes
        every witness in one pass.  Results are equivalent up to
        floating-point summation order (the witness sum accumulates per
        chunk).
    """
    n = matrix.n_nodes
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    delays = _prepared_delays(matrix)
    step = n if chunk_size is None else min(chunk_size, n)
    severity = np.zeros((n, n), dtype=float)
    counts = np.zeros((n, n), dtype=np.int64)
    nodes = np.arange(n)

    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(n):
            d_a = delays[a]                   # d(A, B) for all B
            direct = d_a[None, a:]            # d(A, C) for C >= A, broadcast over B
            for b0 in range(0, n, step):
                b1 = min(b0 + step, n)
                # two_hop[b - b0, c - a] = d(A, b) + d(b, c)
                two_hop = d_a[b0:b1, None] + delays[b0:b1, a:]
                violating = two_hop < direct
                # A node cannot witness a violation of an edge it belongs to.
                if b0 <= a < b1:
                    violating[a - b0, :] = False
                same = nodes[max(a, b0):b1]
                violating[same - b0, same - a] = False  # B == C
                severity[a, a:] += np.where(violating, direct / two_hop, 0.0).sum(axis=0)
                counts[a, a:] += violating.sum(axis=0)

    severity /= n
    severity += severity.T
    counts += counts.T
    # Edges with a missing direct measurement have undefined severity.
    measured = np.isfinite(matrix.values)
    severity[~measured] = np.nan
    np.fill_diagonal(severity, np.nan)
    counts[~measured] = 0
    return TIVSeverityResult(severity=severity, violation_counts=counts, n_nodes=n)


def edge_tiv_severity(matrix: DelayMatrix, i: int, j: int) -> float:
    """Compute the TIV severity of the single edge (i, j).

    Useful when only a handful of edges is of interest; for whole-matrix
    analysis use :func:`compute_tiv_severity`.
    """
    ratios = triangulation_ratios(matrix, i, j)
    return float(ratios.sum() / matrix.n_nodes)


def triangulation_ratios(matrix: DelayMatrix, i: int, j: int) -> np.ndarray:
    """Return the triangulation ratios of all violations caused by edge (i, j).

    The result contains one value ``d(i,j) / (d(i,b) + d(b,j)) > 1`` per
    witness node ``b``; an empty array means the edge causes no violation.
    """
    if i == j:
        raise DelayMatrixError("an edge needs two distinct endpoints")
    delays = _prepared_delays(matrix)
    direct = delays[i, j]
    if not np.isfinite(direct):
        raise DelayMatrixError(f"edge ({i}, {j}) has no measured delay")
    two_hop = delays[i, :] + delays[:, j]
    two_hop[i] = np.inf
    two_hop[j] = np.inf
    violating = two_hop < direct
    # A zero-length detour is an unboundedly severe violation: +inf, as in
    # compute_tiv_severity.
    with np.errstate(divide="ignore"):
        return direct / two_hop[violating]


def violating_triangle_fraction(matrix: DelayMatrix) -> float:
    """Fraction of node triples whose triangle violates the inequality.

    The paper reports "around 12 %" for the DS² data.  A triangle (A, B, C)
    with all three edges measured counts as violating if any of its edges
    is longer than the sum of the other two.  The fraction is exact: it is
    :meth:`TIVSeverityResult.violating_triangle_fraction` of the matrix's
    severity, so a caller that already holds the severity should ask it.
    """
    if matrix.n_nodes < 3:
        raise DelayMatrixError("need at least 3 nodes to form a triangle")
    return compute_tiv_severity(matrix).violating_triangle_fraction()
