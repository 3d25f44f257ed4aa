"""Tests for repro.neighbor.filters."""

import numpy as np
import pytest

from repro.errors import NeighborSelectionError
from repro.neighbor.filters import (
    neighbor_edge_severities,
    random_neighbor_lists,
    severity_excluded_edges,
    severity_filtered_neighbor_lists,
)
from repro.stats.rng import ensure_rng


def scalar_random_neighbor_lists(matrix, *, n_neighbors, rng, excluded_edges=None):
    """The per-pair frozenset loop the edge-mask version must reproduce."""
    gen = ensure_rng(rng)
    n = matrix.n_nodes
    k = min(n_neighbors, n - 1)
    excluded = {frozenset(edge) for edge in (excluded_edges or set())}
    lists = []
    for i in range(n):
        pool = np.delete(np.arange(n), i)
        gen.shuffle(pool)
        allowed = [int(j) for j in pool if frozenset((i, int(j))) not in excluded]
        blocked = [int(j) for j in pool if frozenset((i, int(j))) in excluded]
        chosen = allowed[:k]
        if len(chosen) < k:
            chosen.extend(blocked[: k - len(chosen)])
        lists.append(chosen)
    return lists


class TestSeverityExcludedEdges:
    def test_fraction_size(self, small_internet_severity):
        excluded = severity_excluded_edges(small_internet_severity, fraction=0.2)
        total = small_internet_severity.edge_severities().size
        assert len(excluded) == int(round(0.2 * total))

    def test_edges_normalised(self, small_internet_severity):
        excluded = severity_excluded_edges(small_internet_severity, fraction=0.1)
        assert all(i < j for i, j in excluded)


class TestRandomNeighborLists:
    def test_shape_and_no_self(self, small_internet_matrix):
        lists = random_neighbor_lists(small_internet_matrix, n_neighbors=8, rng=0)
        assert len(lists) == small_internet_matrix.n_nodes
        for i, neighbors in enumerate(lists):
            assert len(neighbors) == 8
            assert i not in neighbors
            assert len(set(neighbors)) == 8

    def test_neighbor_count_capped(self, tiny_tiv_matrix):
        lists = random_neighbor_lists(tiny_tiv_matrix, n_neighbors=10, rng=0)
        assert all(len(neighbors) == 3 for neighbors in lists)

    def test_invalid_count_raises(self, small_internet_matrix):
        with pytest.raises(NeighborSelectionError):
            random_neighbor_lists(small_internet_matrix, n_neighbors=0)

    def test_excluded_edges_avoided(self, small_internet_matrix):
        excluded = {(0, j) for j in range(1, 60)}
        lists = random_neighbor_lists(
            small_internet_matrix, n_neighbors=8, rng=1, excluded_edges=excluded
        )
        # Node 0 still has 8 neighbours, drawn from the non-excluded ones.
        assert len(lists[0]) == 8
        allowed = set(range(60, small_internet_matrix.n_nodes))
        assert set(lists[0]) <= allowed

    def test_topped_up_when_pool_too_small(self, small_internet_matrix):
        n = small_internet_matrix.n_nodes
        excluded = {(0, j) for j in range(1, n)}  # everything excluded for node 0
        lists = random_neighbor_lists(
            small_internet_matrix, n_neighbors=8, rng=2, excluded_edges=excluded
        )
        assert len(lists[0]) == 8  # falls back to excluded edges rather than starving

    def test_reproducible(self, small_internet_matrix):
        a = random_neighbor_lists(small_internet_matrix, n_neighbors=5, rng=9)
        b = random_neighbor_lists(small_internet_matrix, n_neighbors=5, rng=9)
        assert a == b


class TestRandomNeighborListsOracle:
    """The edge-mask lists equal the per-pair frozenset loop exactly."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_no_exclusions(self, small_internet_matrix, seed):
        assert random_neighbor_lists(
            small_internet_matrix, n_neighbors=32, rng=seed
        ) == scalar_random_neighbor_lists(small_internet_matrix, n_neighbors=32, rng=seed)

    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.9])
    def test_severity_exclusions(self, small_internet_matrix, small_internet_severity, fraction):
        excluded = severity_excluded_edges(small_internet_severity, fraction=fraction)
        kwargs = {"n_neighbors": 16, "rng": 3, "excluded_edges": excluded}
        assert random_neighbor_lists(
            small_internet_matrix, **kwargs
        ) == scalar_random_neighbor_lists(small_internet_matrix, **kwargs)

    def test_edges_in_either_order_and_out_of_range(self, small_internet_matrix):
        n = small_internet_matrix.n_nodes
        excluded = {(5, 0), (0, 7), (3, 3), (1, n + 4), (-1, 2)} | {(0, j) for j in range(40, 70)}
        kwargs = {"n_neighbors": 8, "rng": 12, "excluded_edges": excluded}
        assert random_neighbor_lists(
            small_internet_matrix, **kwargs
        ) == scalar_random_neighbor_lists(small_internet_matrix, **kwargs)


class TestSeverityFilteredLists:
    def test_filtered_lists_have_lower_severity(self, small_internet_matrix, small_internet_severity):
        plain = random_neighbor_lists(small_internet_matrix, n_neighbors=16, rng=3)
        filtered = severity_filtered_neighbor_lists(
            small_internet_matrix,
            small_internet_severity,
            n_neighbors=16,
            fraction=0.2,
            rng=3,
        )
        plain_sev = neighbor_edge_severities(plain, small_internet_severity).mean()
        filtered_sev = neighbor_edge_severities(filtered, small_internet_severity).mean()
        assert filtered_sev <= plain_sev

    def test_severities_nonnegative(self, small_internet_matrix, small_internet_severity):
        lists = random_neighbor_lists(small_internet_matrix, n_neighbors=4, rng=4)
        severities = neighbor_edge_severities(lists, small_internet_severity)
        assert np.all(severities >= 0)
        assert severities.size == small_internet_matrix.n_nodes * 4

    def test_empty_lists_raise(self, small_internet_severity):
        with pytest.raises(NeighborSelectionError):
            neighbor_edge_severities([[]], small_internet_severity)

    def test_matches_per_edge_loop(self, small_internet_severity):
        # Ragged lists, empty ones, numpy rows, self-edges (nan severity) and
        # repeated neighbours: the gather keeps the loop's values and order.
        rng = np.random.default_rng(8)
        n = small_internet_severity.n_nodes
        lists = [rng.integers(0, n, size=rng.integers(0, 6)) for _ in range(n)]
        lists[3] = [3, 3, 4]
        lists[5] = []
        lists[7] = lists[7].tolist()
        expected = []
        for i, neighbors in enumerate(lists):
            for j in neighbors:
                value = small_internet_severity.severity[i, int(j)]
                if np.isfinite(value):
                    expected.append(float(value))
        actual = neighbor_edge_severities(lists, small_internet_severity)
        assert actual.dtype == np.float64
        assert np.array_equal(actual, np.asarray(expected))
