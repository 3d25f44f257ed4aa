"""Tests for repro.core.dynamic_vivaldi."""

import numpy as np
import pytest

from repro.coords.vivaldi import VivaldiConfig
from repro.core.dynamic_vivaldi import DynamicNeighborVivaldi, DynamicVivaldiConfig
from repro.errors import EmbeddingError


def _config(period: int = 15, neighbors: int = 8) -> DynamicVivaldiConfig:
    return DynamicVivaldiConfig(
        vivaldi=VivaldiConfig(n_neighbors=neighbors), period=period
    )


class TestDynamicVivaldiConfig:
    def test_defaults(self):
        config = DynamicVivaldiConfig()
        assert config.period == 100
        assert config.candidate_multiplier == 2

    def test_validation(self):
        with pytest.raises(EmbeddingError):
            DynamicVivaldiConfig(period=0)
        with pytest.raises(EmbeddingError):
            DynamicVivaldiConfig(candidate_multiplier=1)


class TestDynamicNeighborVivaldi:
    def test_iteration_count(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=0)
        snapshots = dynamic.run(3)
        assert len(snapshots) == 4  # iteration 0 plus 3 refinements
        assert [s.iteration for s in snapshots] == [0, 1, 2, 3]

    def test_neighbor_list_sizes_preserved(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(neighbors=8), rng=1)
        snapshots = dynamic.run(2)
        for snap in snapshots:
            assert all(len(neighbors) == 8 for neighbors in snap.neighbor_lists)
            for i, neighbors in enumerate(snap.neighbor_lists):
                assert i not in neighbors

    def test_severity_decreases_over_iterations(
        self, small_internet_matrix, small_internet_severity
    ):
        """Fig. 22: refinement drains high-severity edges from neighbour sets."""
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(period=30, neighbors=16), rng=2)
        snapshots = dynamic.run(3)
        first = snapshots[0].neighbor_edge_severities(small_internet_severity).mean()
        last = snapshots[-1].neighbor_edge_severities(small_internet_severity).mean()
        assert last < first

    def test_snapshots_contain_predictions(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=3)
        snapshots = dynamic.run(1)
        n = small_internet_matrix.n_nodes
        for snap in snapshots:
            assert snap.predicted.shape == (n, n)
            assert snap.coordinates.shape[0] == n

    def test_run_continues_incrementally(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=4)
        dynamic.run(1)
        snapshots = dynamic.run(2)
        assert [s.iteration for s in snapshots] == [0, 1, 2, 3]

    def test_iteration_accessor(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=5)
        dynamic.run(2)
        assert dynamic.iteration(1).iteration == 1
        with pytest.raises(EmbeddingError):
            dynamic.iteration(9)

    def test_negative_iterations_raise(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=6)
        with pytest.raises(EmbeddingError):
            dynamic.run(-1)

    def test_zero_iterations_records_baseline(self, small_internet_matrix):
        dynamic = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=7)
        snapshots = dynamic.run(0)
        assert len(snapshots) == 1
        assert snapshots[0].iteration == 0

    def test_reproducible(self, small_internet_matrix):
        a = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=8).run(1)
        b = DynamicNeighborVivaldi(small_internet_matrix, _config(), rng=8).run(1)
        assert a[1].neighbor_lists == b[1].neighbor_lists
        assert np.allclose(a[1].predicted, b[1].predicted)

    def test_refinement_keeps_largest_ratio_candidates(self, small_internet_matrix):
        """The vectorised ranking keeps exactly the k largest-ratio pool edges."""
        dynamic = DynamicNeighborVivaldi(
            small_internet_matrix, _config(period=10, neighbors=6), rng=9
        )
        dynamic.run(0)
        measured = small_internet_matrix.values
        # Rank against the same coordinates the refinement sees (the
        # snapshot's predicted matrix is re-converged *after* refinement,
        # so it cannot be used for this check).
        predicted = dynamic.system.predicted_matrix()
        previous = dynamic.system.neighbors
        refined = dynamic._refine_neighbors()

        def ratio(i, j):
            d = measured[i, j]
            return predicted[i, j] / d if np.isfinite(d) and d > 0 else np.inf

        for i, kept in enumerate(refined):
            assert len(kept) == 6
            assert i not in kept
            assert len(set(kept)) == len(kept)
            # Every survivor must outrank (or tie) every dropped member of
            # the previous neighbour set, because the previous set was
            # fully contained in the candidate pool.
            dropped = [j for j in previous[i] if j not in kept]
            if dropped and kept:
                worst_kept = min(ratio(i, j) for j in kept)
                best_dropped = max(ratio(i, j) for j in dropped)
                assert worst_kept >= best_dropped - 1e-12

    @pytest.mark.parametrize("shape", ["duplicates", "ragged"])
    def test_refinement_refuses_lists_without_k_distinct_ids(
        self, small_internet_matrix, shape
    ):
        """Only lists of k distinct ids per node are refined; others raise."""
        dynamic = DynamicNeighborVivaldi(
            small_internet_matrix, _config(period=5, neighbors=4), rng=12
        )
        dynamic.run(0)
        n = small_internet_matrix.n_nodes
        if shape == "duplicates":
            lists = [[(i + d) % n for d in (1, 1, 2, 3)] for i in range(n)]
        else:
            lists = [[(i + d) % n for d in range(1, 5 - (i == 7))] for i in range(n)]
        dynamic.system.set_neighbors(lists)
        with pytest.raises(EmbeddingError, match="does not hold 4 distinct ids"):
            dynamic.run(1)
