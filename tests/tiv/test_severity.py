"""Tests for repro.tiv.severity."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError
from repro.tiv.severity import (
    TIVSeverityResult,
    _prepared_delays,
    compute_tiv_severity,
    edge_tiv_severity,
    triangulation_ratios,
    violating_triangle_fraction,
)


@pytest.fixture(scope="module")
def tiv_matrix() -> DelayMatrix:
    delays = np.array(
        [
            [0.0, 5.0, 100.0, 40.0],
            [5.0, 0.0, 5.0, 38.0],
            [100.0, 5.0, 0.0, 36.0],
            [40.0, 38.0, 36.0, 0.0],
        ]
    )
    return DelayMatrix(delays, symmetrize=False)


class TestTriangulationRatios:
    def test_violating_edge_has_ratios(self, tiv_matrix):
        ratios = triangulation_ratios(tiv_matrix, 0, 2)
        assert ratios.size == 2  # witnesses: node 1 (5+5) and node 3 (40+36)
        assert np.all(ratios > 1.0)
        assert ratios.max() == pytest.approx(10.0)

    def test_non_violating_edge_empty(self, tiv_matrix):
        assert triangulation_ratios(tiv_matrix, 0, 1).size == 0

    def test_same_endpoints_raise(self, tiv_matrix):
        with pytest.raises(DelayMatrixError):
            triangulation_ratios(tiv_matrix, 1, 1)

    def test_missing_edge_raises(self):
        delays = np.array([[0.0, np.nan, 5.0], [np.nan, 0.0, 5.0], [5.0, 5.0, 0.0]])
        matrix = DelayMatrix(delays, symmetrize=False)
        with pytest.raises(DelayMatrixError):
            triangulation_ratios(matrix, 0, 1)


class TestComputeTivSeverity:
    def test_manual_value(self, tiv_matrix):
        result = compute_tiv_severity(tiv_matrix)
        expected = (100.0 / 10.0 + 100.0 / 76.0) / 4.0
        assert result.edge_severity(0, 2) == pytest.approx(expected)

    def test_symmetry(self, tiv_matrix):
        result = compute_tiv_severity(tiv_matrix)
        sev = result.severity
        finite = np.isfinite(sev)
        assert np.allclose(sev[finite], sev.T[finite])

    def test_matches_single_edge_function(self, tiv_matrix):
        # The second matrix gives edge (0, 2) a zero-length detour through
        # node 1: an infinite ratio, which must not warn on either path.
        zero_detour = DelayMatrix([[0, 0, 5], [0, 0, 0], [5, 0, 0]], symmetrize=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for matrix in (tiv_matrix, zero_detour):
                result = compute_tiv_severity(matrix)
                for i, j, _ in matrix.edges():
                    assert result.edge_severity(i, j) == pytest.approx(
                        edge_tiv_severity(matrix, i, j)
                    )
        assert edge_tiv_severity(zero_detour, 0, 2) == np.inf

    def test_diagonal_nan(self, tiv_matrix):
        result = compute_tiv_severity(tiv_matrix)
        assert np.all(np.isnan(np.diag(result.severity)))

    def test_euclidean_matrix_all_zero(self, euclidean_matrix):
        result = compute_tiv_severity(euclidean_matrix)
        assert np.all(result.edge_severities() == 0.0)
        assert np.all(result.violation_counts == 0)

    def test_violation_counts(self, tiv_matrix):
        result = compute_tiv_severity(tiv_matrix)
        assert result.violation_counts[0, 2] == 2
        assert result.violation_counts[0, 1] == 0

    def test_missing_edges_have_nan_severity(self):
        delays = np.array(
            [
                [0.0, np.nan, 20.0],
                [np.nan, 0.0, 10.0],
                [20.0, 10.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        result = compute_tiv_severity(matrix)
        assert np.isnan(result.severity[0, 1])
        assert result.edge_severities().size == 2

    def test_missing_witness_not_counted(self):
        # Node 1's delays are unknown to node 3, so node 1 cannot witness a
        # violation for edge (0, 3) even though it would if measured.
        delays = np.array(
            [
                [0.0, 5.0, 30.0, 100.0],
                [5.0, 0.0, 30.0, np.nan],
                [30.0, 30.0, 0.0, 90.0],
                [100.0, np.nan, 90.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        result = compute_tiv_severity(matrix)
        assert result.violation_counts[0, 3] == 0


class TestWorstEdgesAndSummary:
    def test_worst_edges_fraction(self, small_internet_severity):
        worst = small_internet_severity.worst_edges(0.1)
        total_edges = small_internet_severity.edge_severities().size
        assert len(worst) == int(round(0.1 * total_edges))
        assert all(i < j for i, j in worst)

    def test_worst_edges_are_actually_worst(self, small_internet_severity):
        result = small_internet_severity
        worst = result.worst_edges(0.05)
        iu = np.triu_indices(result.n_nodes, k=1)
        rest = [
            result.edge_severity(i, j)
            for i, j in zip(iu[0].tolist(), iu[1].tolist())
            if (i, j) not in worst and np.isfinite(result.severity[i, j])
        ]
        values = [result.edge_severity(i, j) for i, j in worst]
        assert min(values) >= max(rest)

    def test_worst_edges_invalid_fraction(self, small_internet_severity):
        with pytest.raises(ValueError):
            small_internet_severity.worst_edges(0.0)
        with pytest.raises(ValueError):
            small_internet_severity.worst_edges(2.0)

    def test_worst_edges_matches_full_sort(self, small_internet_severity):
        """The O(E) argpartition selection equals the explicit full sort."""
        result = small_internet_severity
        for fraction in (0.05, 0.2, 0.5, 1.0):
            worst = result.worst_edges(fraction)
            iu = np.triu_indices(result.n_nodes, k=1)
            vals = result.severity[iu]
            finite = np.isfinite(vals)
            rows, cols, vals = iu[0][finite], iu[1][finite], vals[finite]
            count = max(1, int(round(fraction * vals.size)))
            # Reference: sort by (-severity, index) — strictly-greater edges
            # first, boundary ties in upper-triangle order.
            order = np.lexsort((np.arange(vals.size), -vals))[:count]
            expected = {(int(rows[k]), int(cols[k])) for k in order}
            assert worst == expected

    def test_worst_edges_tie_stability(self):
        """Boundary ties resolve to the earliest edges in upper-triangle order."""
        n = 5
        severity = np.full((n, n), np.nan)
        iu = np.triu_indices(n, k=1)
        # Two clear winners, everything else tied at 1.0.
        tied_value = 1.0
        vals = np.full(iu[0].size, tied_value)
        vals[3] = 9.0
        vals[7] = 5.0
        severity[iu] = vals
        severity[(iu[1], iu[0])] = vals
        result = TIVSeverityResult(
            severity=severity,
            violation_counts=np.zeros((n, n), dtype=np.int64),
            n_nodes=n,
        )
        # 5 of 10 edges: the two distinct values plus the first three tied
        # edges in upper-triangle order.
        worst = result.worst_edges(0.5)
        tied_edges = [
            (int(iu[0][k]), int(iu[1][k]))
            for k in range(iu[0].size)
            if vals[k] == tied_value
        ]
        expected = {
            (int(iu[0][3]), int(iu[1][3])),
            (int(iu[0][7]), int(iu[1][7])),
            *tied_edges[:3],
        }
        assert worst == expected
        # Deterministic: repeated calls agree exactly.
        assert result.worst_edges(0.5) == worst

    def test_worst_edges_full_fraction_returns_all(self, small_internet_severity):
        worst = small_internet_severity.worst_edges(1.0)
        assert len(worst) == small_internet_severity.edge_severities().size

    def test_summary_keys(self, small_internet_severity):
        summary = small_internet_severity.summary()
        assert summary["edges"] > 0
        assert 0 <= summary["fraction_nonzero"] <= 1
        assert summary["max"] >= summary["p90"] >= summary["median"]


class TestViolatingTriangleFraction:
    def test_tiny_matrix_exact(self, tiv_matrix):
        # Triangles: (0,1,2) violated by edge 02; (0,1,3), (0,2,3), (1,2,3).
        # 0-2=100 vs 40+36=76 -> (0,2,3) violated too.
        assert violating_triangle_fraction(tiv_matrix) == pytest.approx(0.5)

    def test_euclidean_zero(self, euclidean_matrix):
        assert violating_triangle_fraction(euclidean_matrix) == 0.0

    def test_too_few_nodes_raises(self):
        matrix = DelayMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DelayMatrixError):
            violating_triangle_fraction(matrix)


class TestChunkedComputation:
    """The chunk_size knob bounds per-row memory without changing results."""

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 16, 80, 1000])
    def test_chunked_matches_unchunked(self, small_internet_matrix, chunk_size):
        full = compute_tiv_severity(small_internet_matrix)
        chunked = compute_tiv_severity(small_internet_matrix, chunk_size=chunk_size)
        np.testing.assert_allclose(
            chunked.severity, full.severity, rtol=1e-12, atol=1e-12, equal_nan=True
        )
        assert np.array_equal(chunked.violation_counts, full.violation_counts)
        assert chunked.n_nodes == full.n_nodes

    def test_chunked_matches_on_matrix_with_missing_edges(self):
        rng = np.random.default_rng(5)
        n = 30
        upper = rng.uniform(1.0, 300.0, size=(n, n))
        delays = np.triu(upper, k=1)
        delays = delays + delays.T
        iu = np.triu_indices(n, k=1)
        drop = rng.choice(iu[0].size, size=40, replace=False)
        delays[(iu[0][drop], iu[1][drop])] = np.nan
        delays[(iu[1][drop], iu[0][drop])] = np.nan
        matrix = DelayMatrix(delays, symmetrize=False)
        full = compute_tiv_severity(matrix)
        chunked = compute_tiv_severity(matrix, chunk_size=4)
        np.testing.assert_allclose(
            chunked.severity, full.severity, rtol=1e-12, atol=1e-12, equal_nan=True
        )
        assert np.array_equal(chunked.violation_counts, full.violation_counts)

    def test_chunk_size_one_on_tiny_matrix(self, tiv_matrix):
        full = compute_tiv_severity(tiv_matrix)
        chunked = compute_tiv_severity(tiv_matrix, chunk_size=1)
        np.testing.assert_allclose(
            chunked.severity, full.severity, rtol=1e-12, equal_nan=True
        )

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_invalid_chunk_size_rejected(self, tiv_matrix, chunk_size):
        with pytest.raises(ValueError):
            compute_tiv_severity(tiv_matrix, chunk_size=chunk_size)


def _violating_triangle_loop(matrix: DelayMatrix) -> float:
    """Scalar oracle: exhaustive enumeration, one (a, b) pair at a time."""
    n = matrix.n_nodes
    if n < 3:
        raise DelayMatrixError("need at least 3 nodes to form a triangle")
    delays = _prepared_delays(matrix)
    violated_count = 0
    triangle_count = 0
    for a in range(n):
        for b in range(a + 1, n):
            ab = delays[a, b]
            if not np.isfinite(ab):
                continue
            cs = np.arange(b + 1, n)
            if cs.size == 0:
                continue
            bc = delays[b, cs]
            ca = delays[cs, a]
            measured = np.isfinite(bc) & np.isfinite(ca)
            bc, ca = bc[measured], ca[measured]
            triangle_count += bc.size
            violated = (ab + bc < ca) | (bc + ca < ab) | (ca + ab < bc)
            violated_count += int(np.count_nonzero(violated))
    if triangle_count == 0:
        return 0.0
    return violated_count / triangle_count


def _tie_heavy_matrix(n: int, beta: float, seed: int, holes: float, zeros: float) -> DelayMatrix:
    """A symmetric matrix full of exact triangle-inequality ties.

    Small integer delays make ``d(a,b) + d(b,c) == d(c,a)`` common; their
    ``beta`` and ``1 ± beta`` multiples add non-integer ties, and zero
    delays and NaN holes cover the degenerate and missing cases.
    """
    rng = np.random.default_rng(seed)
    ints = rng.integers(0, 9, size=(n, n)).astype(float)
    scale = np.array([1.0, beta, 1.0 - beta, 1.0 + beta])[rng.integers(0, 4, size=(n, n))]
    values = np.where(rng.random((n, n)) < 0.8, ints, ints * scale)
    values[rng.random((n, n)) < zeros] = 0.0
    values[rng.random((n, n)) < holes] = np.nan
    upper = np.triu(values, k=1)
    return DelayMatrix(upper + upper.T, symmetrize=False)


def _severity_loop(matrix: DelayMatrix, chunk_size: int | None = None) -> TIVSeverityResult:
    """Scalar oracle: every source row over every column, one witness at a time.

    Each chunk of witnesses sums into its own partial row, in witness
    order, before the row total takes it — the order a whole-row numpy
    reduction over the chunk uses.
    """
    n = matrix.n_nodes
    delays = _prepared_delays(matrix)
    step = n if chunk_size is None else min(chunk_size, n)
    severity = np.zeros((n, n))
    counts = np.zeros((n, n), dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(n):
            direct = delays[a]
            for b0 in range(0, n, step):
                ratio_sum = np.zeros(n)
                for b in range(b0, min(b0 + step, n)):
                    two_hop = delays[a, b] + delays[b]
                    violating = two_hop < direct
                    violating[b] = False  # B == C
                    if b == a:
                        violating[:] = False
                    ratio_sum += np.where(violating, direct / two_hop, 0.0)
                    counts[a] += violating
                severity[a] += ratio_sum
    severity /= n
    measured = np.isfinite(matrix.values)
    severity[~measured] = np.nan
    np.fill_diagonal(severity, np.nan)
    counts[~measured] = 0
    return TIVSeverityResult(severity=severity, violation_counts=counts, n_nodes=n)


class TestSeverityOracle:
    """The one-triangle kernel equals the full-row scalar loop bit for bit."""

    @given(
        n=st.integers(min_value=2, max_value=40),
        beta=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        holes=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        zeros=st.sampled_from([0.0, 0.2]),
        chunk_size=st.sampled_from([None, 1, 7]),
    )
    # Slices that start past the diagonal (c > a) drift here by an ulp.
    @example(n=32, beta=0.1, seed=1, holes=0.0, zeros=0.0, chunk_size=None)
    @settings(max_examples=80, deadline=None)
    def test_bit_identical(self, n, beta, seed, holes, zeros, chunk_size):
        matrix = _tie_heavy_matrix(n, beta, seed, holes, zeros)
        expected = _severity_loop(matrix, chunk_size)
        actual = compute_tiv_severity(matrix, chunk_size=chunk_size)
        assert np.array_equal(actual.severity, expected.severity, equal_nan=True)
        assert np.array_equal(actual.violation_counts, expected.violation_counts)


class TestViolatingTriangleOracle:
    """The fraction derived from the severity counts equals enumeration."""

    @given(
        n=st.integers(min_value=3, max_value=40),
        beta=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        holes=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        zeros=st.sampled_from([0.0, 0.2]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical(self, n, beta, seed, holes, zeros):
        matrix = _tie_heavy_matrix(n, beta, seed, holes, zeros)
        expected = _violating_triangle_loop(matrix)
        actual = compute_tiv_severity(matrix).violating_triangle_fraction()
        assert type(actual) is type(expected)
        assert actual == expected
        assert violating_triangle_fraction(matrix) == expected

    @pytest.mark.parametrize("chunk_size", [None, 7])
    def test_bit_identical_on_internet_matrix(self, small_internet_matrix, chunk_size):
        # Chunking the witness sum reorders severity's float sums, never its
        # integer counts or its nan mask, so the fraction cannot move.
        severity = compute_tiv_severity(small_internet_matrix, chunk_size=chunk_size)
        expected = _violating_triangle_loop(small_internet_matrix)
        assert severity.violating_triangle_fraction() == expected
