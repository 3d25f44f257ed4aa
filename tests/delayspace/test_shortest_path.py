"""Tests for repro.delayspace.shortest_path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delayspace.matrix import DelayMatrix
from repro.delayspace.shortest_path import (
    detour_gains,
    shortest_path_lengths_for_edges,
    shortest_path_matrix,
)
from repro.errors import DelayMatrixError


def _tiv_matrix() -> DelayMatrix:
    delays = np.array(
        [
            [0.0, 5.0, 100.0],
            [5.0, 0.0, 5.0],
            [100.0, 5.0, 0.0],
        ]
    )
    return DelayMatrix(delays, symmetrize=False)


class TestShortestPathMatrix:
    def test_detour_shorter_than_direct(self):
        shortest = shortest_path_matrix(_tiv_matrix())
        assert shortest[0, 2] == pytest.approx(10.0)

    def test_diagonal_zero(self):
        shortest = shortest_path_matrix(_tiv_matrix())
        assert np.allclose(np.diag(shortest), 0.0)

    def test_never_longer_than_direct(self, small_internet_matrix):
        shortest = shortest_path_matrix(small_internet_matrix)
        values = small_internet_matrix.values
        finite = np.isfinite(values)
        assert np.all(shortest[finite] <= values[finite] + 1e-9)

    def test_symmetric(self, small_internet_matrix):
        shortest = shortest_path_matrix(small_internet_matrix)
        assert np.allclose(shortest, shortest.T)

    def test_one_sided_measurement_is_an_undirected_edge(self):
        delays = np.array([[0.0, 5.0, np.nan], [np.nan, 0.0, 7.0], [np.nan, 7.0, 0.0]])
        shortest = shortest_path_matrix(DelayMatrix(delays, symmetrize=False))
        assert shortest[1, 0] == shortest[0, 1] == 5.0
        assert shortest[2, 0] == shortest[0, 2] == 12.0

    def test_disconnected_nodes_are_inf(self):
        delays = np.full((4, 4), np.nan)
        np.fill_diagonal(delays, 0.0)
        delays[0, 1] = delays[1, 0] = 5.0
        delays[2, 3] = delays[3, 2] = 7.0
        matrix = DelayMatrix(delays, symmetrize=False)
        shortest = shortest_path_matrix(matrix)
        assert np.isinf(shortest[0, 2])


class TestDetourGains:
    def test_gain_for_tiv_edge(self):
        gains = detour_gains(_tiv_matrix())
        assert gains.max() == pytest.approx(10.0)

    def test_gains_at_least_one(self, small_internet_matrix):
        gains = detour_gains(small_internet_matrix)
        assert np.all(gains >= 1.0 - 1e-9)

    def test_metric_matrix_has_unit_gains(self, euclidean_matrix):
        gains = detour_gains(euclidean_matrix)
        assert np.allclose(gains, 1.0)

    def test_shape_mismatch_raises(self, small_internet_matrix):
        with pytest.raises(DelayMatrixError):
            detour_gains(small_internet_matrix, shortest=np.zeros((3, 3)))

    def test_precomputed_shortest_used(self):
        matrix = _tiv_matrix()
        shortest = shortest_path_matrix(matrix)
        assert np.array_equal(detour_gains(matrix, shortest), detour_gains(matrix))


class TestEdgeLengths:
    def test_paired_outputs(self, small_internet_matrix):
        delays, shortest = shortest_path_lengths_for_edges(small_internet_matrix)
        assert delays.shape == shortest.shape
        assert np.all(shortest <= delays + 1e-9)


def _disconnected_matrix() -> DelayMatrix:
    """Two 2-node components with no measurement between them."""
    delays = np.full((4, 4), np.nan)
    np.fill_diagonal(delays, 0.0)
    delays[0, 1] = delays[1, 0] = 5.0
    delays[2, 3] = delays[3, 2] = 7.0
    return DelayMatrix(delays, symmetrize=False)


def _zero_edge_matrix() -> DelayMatrix:
    """Co-located nodes 0 and 1 (a measured zero-delay edge) plus a TIV."""
    delays = np.array(
        [
            [0.0, 0.0, 20.0, 90.0],
            [0.0, 0.0, 20.0, 90.0],
            [20.0, 20.0, 0.0, 10.0],
            [90.0, 90.0, 10.0, 0.0],
        ]
    )
    return DelayMatrix(delays, symmetrize=False)


class TestDisconnectedGraphs:
    def test_cross_component_paths_are_inf(self):
        shortest = shortest_path_matrix(_disconnected_matrix())
        for i in (0, 1):
            for j in (2, 3):
                assert np.isinf(shortest[i, j])
                assert np.isinf(shortest[j, i])

    def test_within_component_paths_are_finite(self):
        shortest = shortest_path_matrix(_disconnected_matrix())
        assert shortest[0, 1] == pytest.approx(5.0)
        assert shortest[2, 3] == pytest.approx(7.0)

    def test_detour_gains_only_cover_measured_edges(self):
        # Every measured edge is itself a path, so gains stay finite even
        # when the graph as a whole is disconnected.
        gains = detour_gains(_disconnected_matrix())
        assert gains.shape == (2,)
        assert np.all(np.isfinite(gains))
        assert np.allclose(gains, 1.0)

    def test_edge_lengths_finite_on_disconnected_graph(self):
        delays, shortest = shortest_path_lengths_for_edges(_disconnected_matrix())
        assert np.all(np.isfinite(delays))
        assert np.all(np.isfinite(shortest))


class TestZeroDelayEdges:
    def test_zero_edge_is_a_zero_length_path(self):
        # Regression guard: a measured zero delay is an edge, not a missing
        # one (a dense sparse-graph conversion would drop it and report a
        # positive path between the co-located nodes).
        shortest = shortest_path_matrix(_zero_edge_matrix())
        assert shortest[0, 1] == 0.0

    def test_shortest_never_exceeds_direct_with_zero_edges(self):
        matrix = _zero_edge_matrix()
        shortest = shortest_path_matrix(matrix)
        values = matrix.values
        finite = np.isfinite(values)
        assert np.all(shortest[finite] <= values[finite] + 1e-9)

    def test_detour_gain_of_zero_edge_is_one(self):
        matrix = _zero_edge_matrix()
        gains = detour_gains(matrix)
        rows, cols = matrix.edge_index_pairs()
        zero_edge = np.flatnonzero((rows == 0) & (cols == 1))
        assert zero_edge.size == 1
        # direct == shortest == 0: no shorter detour exists, so the gain is
        # the neutral 1.0 rather than nan/inf.
        assert gains[zero_edge[0]] == pytest.approx(1.0)
        assert np.all(np.isfinite(gains))

    def test_zero_edge_still_detects_other_tivs(self):
        gains = detour_gains(_zero_edge_matrix())
        # Edge (0,3)/(1,3) at 90ms has a 30ms detour via node 2.
        assert gains.max() == pytest.approx(3.0)

    def test_positive_edge_with_zero_length_detour_has_infinite_gain(self):
        # Nodes 0, 1, 2, 3 are all pairwise co-located via zero-delay edges
        # (0-1, 1-2, 2-3), but the direct measurement 0-3 reads 50ms — so
        # the shortest path 0→2→3 is zero-length while the direct edge is
        # positive.
        delays = np.array(
            [
                [0.0, 0.0, 0.0, 50.0],
                [0.0, 0.0, 0.0, np.nan],
                [0.0, 0.0, 0.0, 0.0],
                [50.0, np.nan, 0.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        shortest = shortest_path_matrix(matrix)
        assert shortest[0, 3] == 0.0
        gains = detour_gains(matrix, shortest)
        rows, cols = matrix.edge_index_pairs()
        idx = np.flatnonzero((rows == 0) & (cols == 3))
        assert idx.size == 1
        # A 50ms edge with a 0ms detour is an unboundedly severe violation,
        # not a neutral gain of 1.
        assert np.isinf(gains[idx[0]])


def _floyd_warshall_loop(matrix: DelayMatrix) -> np.ndarray:
    """Scalar oracle: textbook Floyd–Warshall over plain Python floats."""
    n = matrix.n_nodes
    values = matrix.values
    dist = [
        [
            0.0 if i == j else float(values[i, j]) if np.isfinite(values[i, j]) else np.inf
            for j in range(n)
        ]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return np.array(dist)


@st.composite
def _graphs(draw) -> DelayMatrix:
    """Symmetric matrices with ties, zero edges, holes and split components."""
    n = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.integers(0, 9, size=(n, n)) * rng.choice([0.5, 1.0, 1.25], size=(n, n))
    values[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = np.nan
    component = rng.integers(0, draw(st.integers(min_value=1, max_value=3)), size=n)
    values[component[:, None] != component[None, :]] = np.nan
    upper = np.triu(values, k=1)
    return DelayMatrix(upper + upper.T, symmetrize=False)


class TestFloydWarshallOracle:
    @given(matrix=_graphs())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical(self, matrix):
        assert np.array_equal(shortest_path_matrix(matrix), _floyd_warshall_loop(matrix))
