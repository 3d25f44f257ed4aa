"""Tests for repro.coords.simulation."""

import numpy as np
import pytest

from repro.coords.simulation import VivaldiSimulation, three_node_tiv_matrix
from repro.coords.vivaldi import VivaldiConfig
from repro.errors import EmbeddingError


class TestThreeNodeMatrix:
    def test_default_values(self):
        matrix = three_node_tiv_matrix()
        assert matrix.n_nodes == 3
        assert matrix.delay(0, 1) == 5.0
        assert matrix.delay(2, 0) == 100.0
        assert matrix.labels == ("A", "B", "C")

    def test_custom_values(self):
        matrix = three_node_tiv_matrix(1.0, 2.0, 50.0)
        assert matrix.delay(0, 1) == 1.0
        assert matrix.delay(1, 2) == 2.0


class TestVivaldiSimulation:
    def test_edge_error_traces_recorded(self):
        sim = VivaldiSimulation(three_node_tiv_matrix(), VivaldiConfig(n_neighbors=2, dimension=2), rng=0)
        trace = sim.run(50, track_edges=[(0, 1), (2, 0)])
        assert trace.times.shape == (50,)
        assert set(trace.edge_errors) == {(0, 1), (2, 0)}
        assert trace.edge_errors[(0, 1)].shape == (50,)

    def test_three_node_tiv_never_converges(self):
        """Fig. 10: the TIV triangle cannot be embedded, errors stay large."""
        sim = VivaldiSimulation(three_node_tiv_matrix(), VivaldiConfig(n_neighbors=2, dimension=2), rng=1)
        trace = sim.run(100, track_edges=[(0, 1), (1, 2), (2, 0)])
        second_half = {e: errs[50:] for e, errs in trace.edge_errors.items()}
        total_abs_error = sum(np.abs(v).mean() for v in second_half.values())
        assert total_abs_error > 10.0  # cannot be driven to ~zero

    def test_euclidean_triangle_converges(self):
        """Control: a metric 3-node triangle embeds with small residual error."""
        matrix = three_node_tiv_matrix(30.0, 40.0, 60.0)
        sim = VivaldiSimulation(matrix, VivaldiConfig(n_neighbors=2, dimension=2), rng=2)
        trace = sim.run(200, track_edges=[(0, 1), (1, 2), (2, 0)])
        final_errors = [abs(float(errs[-1])) for errs in trace.edge_errors.values()]
        assert max(final_errors) < 10.0

    def test_oscillation_tracking(self, small_internet_matrix):
        sim = VivaldiSimulation(small_internet_matrix, VivaldiConfig(n_neighbors=8), rng=3)
        sim.system.run(20)
        trace = sim.run(30, track_oscillation=True)
        assert trace.oscillation_range is not None
        assert trace.oscillation_range.size == small_internet_matrix.edge_delays().size
        assert np.all(trace.oscillation_range >= 0)
        stats = trace.oscillation_vs_delay(bin_width=20.0)
        assert stats.counts.sum() == trace.oscillation_range.size

    def test_oscillation_not_tracked_raises(self, small_internet_matrix):
        sim = VivaldiSimulation(small_internet_matrix, VivaldiConfig(n_neighbors=8), rng=3)
        trace = sim.run(5)
        with pytest.raises(EmbeddingError):
            trace.oscillation_vs_delay()
        with pytest.raises(EmbeddingError):
            trace.movement_speed_summary()

    def test_movement_tracking(self, small_internet_matrix):
        sim = VivaldiSimulation(small_internet_matrix, VivaldiConfig(n_neighbors=8), rng=4)
        trace = sim.run(10, track_movement=True)
        assert trace.movement_speeds.shape == (10, small_internet_matrix.n_nodes)
        summary = trace.movement_speed_summary()
        assert summary["median"] >= 0
        assert summary["p90"] >= summary["median"]

    def test_tracked_errors_match_system_predictions(self, small_internet_matrix):
        """The vectorised trace gather equals per-pair predict calls."""
        sim = VivaldiSimulation(small_internet_matrix, VivaldiConfig(n_neighbors=8), rng=5)
        edges = [(0, 1), (2, 9), (4, 3)]
        trace = sim.run(1, track_edges=edges)
        for i, j in edges:
            expected = sim.system.predict(i, j) - float(small_internet_matrix.values[i, j])
            assert trace.edge_errors[(i, j)][-1] == pytest.approx(expected)

    def test_oscillation_matches_predicted_matrix(self, small_internet_matrix):
        """Edge-wise oscillation equals a replay of per-step predictions.

        The trace keeps the extrema of squared distances and takes one sqrt
        at the end.  A second, identically seeded simulation takes the
        extrema of ``predict_edges`` every step: the two must agree bit for
        bit, and agree with the full predicted matrix up to its summation
        order.  70 steps cross the 64-step fold boundary and end on a
        partial block.
        """
        from repro.coords.vivaldi import VivaldiSystem

        config = VivaldiConfig(n_neighbors=8)
        rows, cols = small_internet_matrix.edge_index_pairs()
        for steps in (5, 70):
            sim = VivaldiSimulation(small_internet_matrix, config, rng=6)
            trace = sim.run(steps, track_oscillation=True)

            replay = VivaldiSystem(small_internet_matrix, config, rng=6)
            running_min = np.full(rows.size, np.inf)
            running_max = np.full(rows.size, -np.inf)
            matrix_min = np.full(rows.size, np.inf)
            matrix_max = np.full(rows.size, -np.inf)
            for _ in range(steps):
                replay.step()
                values = replay.predict_edges(rows, cols)
                np.minimum(running_min, values, out=running_min)
                np.maximum(running_max, values, out=running_max)
                values = replay.predicted_matrix()[rows, cols]
                np.minimum(matrix_min, values, out=matrix_min)
                np.maximum(matrix_max, values, out=matrix_max)

            assert np.array_equal(trace.oscillation_range, running_max - running_min)
            assert np.allclose(trace.oscillation_range, matrix_max - matrix_min)
            assert np.array_equal(
                trace.edge_delays, small_internet_matrix.values[rows, cols]
            )

    def test_invalid_run_length(self, small_internet_matrix):
        sim = VivaldiSimulation(small_internet_matrix, rng=0)
        with pytest.raises(EmbeddingError):
            sim.run(0)

    def test_tracked_self_edge_raises(self, small_internet_matrix):
        sim = VivaldiSimulation(small_internet_matrix, rng=0)
        with pytest.raises(EmbeddingError):
            sim.run(5, track_edges=[(1, 1)])
