"""The multi-query batch closest-neighbour search must mirror the scalar query."""

import numpy as np
import pytest

from repro.delayspace.matrix import DelayMatrix
from repro.errors import MeridianError
from repro.meridian.overlay import MeridianOverlay
from repro.meridian.rings import MeridianConfig
from tests.meridian.oracle import OracleOverlay


def overlays(matrix, seed=0, **config_kwargs):
    """Two identically seeded overlays, one per query path under test."""
    ids = list(range(0, matrix.n_nodes, 2))
    config = MeridianConfig(**config_kwargs) if config_kwargs else None
    return (
        MeridianOverlay(matrix, ids, config, rng=seed),
        MeridianOverlay(matrix, ids, config, rng=seed),
    )


def assert_same_result(scalar, batch):
    assert scalar.target == batch.target
    assert scalar.selected == batch.selected
    assert scalar.selected_delay == batch.selected_delay
    assert scalar.optimal == batch.optimal
    assert scalar.probes == batch.probes
    assert scalar.hops == batch.hops


class TestBatchQueryEquivalence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_identical_to_sequential_scalar_queries(self, small_internet_matrix, seed):
        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=seed)
        targets = [node for node in range(small_internet_matrix.n_nodes) if node % 2]
        starts = [ov_scalar.meridian_ids[t % 40] for t in targets]
        scalar = [
            ov_scalar.closest_neighbor_query(t, start_node=s)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(targets, start_nodes=starts)
        for s, b in zip(scalar, batch):
            assert_same_result(s, b)

    def test_random_starts_consume_the_rng_identically(self, small_internet_matrix):
        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=3)
        targets = [1, 3, 5, 7, 9, 11]
        scalar = [ov_scalar.closest_neighbor_query(t) for t in targets]
        batch = ov_batch.closest_neighbor_query_batch(targets)
        for s, b in zip(scalar, batch):
            assert_same_result(s, b)

    def test_meridian_node_targets_supported(self, small_internet_matrix):
        # A Meridian node appearing as a target shows up in other nodes'
        # rings at delay 0 — the case the scalar path's self-delay caching
        # regression guarded against.
        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=1)
        targets = [0, 2, 4, 6]
        starts = [ov_scalar.meridian_ids[-1]] * len(targets)
        scalar = [
            ov_scalar.closest_neighbor_query(t, start_node=s)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(targets, start_nodes=starts)
        for s, b in zip(scalar, batch):
            assert_same_result(s, b)

    def test_no_termination_window_matches_too(self, small_internet_matrix):
        ov_scalar, ov_batch = overlays(
            small_internet_matrix, seed=2, use_termination=False
        )
        targets = [1, 9, 17, 33]
        starts = [ov_scalar.meridian_ids[0]] * len(targets)
        scalar = [
            ov_scalar.closest_neighbor_query(t, start_node=s)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(targets, start_nodes=starts)
        for s, b in zip(scalar, batch):
            assert_same_result(s, b)

    def test_shared_ingress_batch(self, small_internet_matrix):
        # The serving workload's shape: one front-end node receives the
        # whole batch, so first-round gathers are genuinely shared.
        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=4)
        targets = [node for node in range(1, 40, 2)]
        start = ov_scalar.meridian_ids[7]
        scalar = [
            ov_scalar.closest_neighbor_query(t, start_node=start) for t in targets
        ]
        batch = ov_batch.closest_neighbor_query_batch(
            targets, start_nodes=[start] * len(targets)
        )
        for s, b in zip(scalar, batch):
            assert_same_result(s, b)


class TestBatchQueryValidation:
    def test_empty_batch(self, small_internet_matrix):
        overlay, _ = overlays(small_internet_matrix)
        assert overlay.closest_neighbor_query_batch([]) == []

    def test_invalid_target_raises(self, small_internet_matrix):
        overlay, _ = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="not in the delay matrix"):
            overlay.closest_neighbor_query_batch([1, 10_000])

    def test_invalid_start_raises(self, small_internet_matrix):
        overlay, _ = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="not a Meridian node"):
            overlay.closest_neighbor_query_batch([1], start_nodes=[1])

    @pytest.mark.parametrize("max_hops", [-1, 0, 1])
    def test_hop_budget_matches_scalar(self, small_internet_matrix, max_hops):
        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=8)
        targets, starts = [1, 3, 5], [0, 2, 4]
        scalar = [
            ov_scalar.closest_neighbor_query(t, start_node=s, max_hops=max_hops)
            for t, s in zip(targets, starts)
        ]
        assert ov_batch.closest_neighbor_query_batch(
            targets, start_nodes=starts, max_hops=max_hops
        ) == scalar

    def test_mismatched_start_count_raises(self, small_internet_matrix):
        overlay, _ = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="entries for"):
            overlay.closest_neighbor_query_batch([1, 3], start_nodes=[0])

    def test_results_are_never_restarted(self, small_internet_matrix):
        overlay, _ = overlays(small_internet_matrix)
        results = overlay.closest_neighbor_query_batch([1, 3, 5])
        assert all(not r.restarted for r in results)
        assert all(isinstance(r.selected_delay, float) for r in results)


class TestBatchRestartPolicy:
    def test_restart_policy_matches_scalar(self, small_internet_matrix):
        # Every stalled query restarts through three of its node's members
        # (repeats included); the batch must replay the scalar control flow.
        def restart(overlay, current, target, delay):
            return overlay.node(current).members()[:3] * 2

        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=6)
        targets = list(range(1, 80, 2))
        starts = [ov_scalar.meridian_ids[t % 40] for t in targets]
        scalar = [
            ov_scalar.closest_neighbor_query(t, start_node=s, restart_policy=restart)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(
            targets, start_nodes=starts, restart_policy=restart
        )
        assert batch == scalar
        assert any(r.restarted for r in batch)


class TestScalarMeridianTargetRegression:
    def test_query_survives_advancing_to_a_meridian_target(self):
        # Regression for the latent KeyError: a query whose target is a
        # Meridian node can advance *to the target* (its ring members see
        # it at delay 0); the hop loop then reads probed_delay[current].
        delays = np.array(
            [
                [0.0, 10.0, 50.0],
                [10.0, 0.0, 40.0],
                [50.0, 40.0, 0.0],
            ]
        )
        from repro.delayspace.matrix import DelayMatrix

        overlay = MeridianOverlay(
            DelayMatrix(delays), [0, 1, 2], rng=0, full_membership=True
        )
        result = overlay.closest_neighbor_query(0, start_node=2)
        assert result.target == 0
        assert result.selected != 0  # never the target itself


def unreachable_matrix(matrix, unreachable):
    """``matrix`` with no measured delay between any Meridian node and ``unreachable``."""
    delays = matrix.to_array()
    for target in unreachable:
        delays[::2, target] = np.nan
        delays[target, ::2] = np.nan
    return DelayMatrix(delays, symmetrize=False)


class TestGroundTruthPerOverlay:
    """An overlay remembers each target's optimum; answers must not change."""

    def test_later_batches_match_scalar_queries(self, small_internet_matrix):
        ov_scalar, ov_batch = overlays(small_internet_matrix, seed=9)
        # Repeated targets, within a batch and across batches, and new ones.
        for targets in ([1, 3, 5, 7], [5, 9, 1, 11, 11], [13, 3, 15, 9, 17]):
            scalar = [ov_scalar.closest_neighbor_query(t) for t in targets]
            assert ov_batch.closest_neighbor_query_batch(targets) == scalar

    def test_true_closest_is_the_same_before_and_after_a_batch(self, small_internet_matrix):
        ids = range(0, small_internet_matrix.n_nodes, 2)
        batched = MeridianOverlay(small_internet_matrix, ids, rng=2)
        reference = OracleOverlay(small_internet_matrix, ids, rng=2)
        targets = [1, 3, 5, 7, 9, 11]
        expected = [reference.true_closest(t) for t in targets]
        assert [batched.true_closest(t) for t in targets[:3]] == expected[:3]
        results = batched.closest_neighbor_query_batch(targets[1:5])
        assert [(r.optimal, r.optimal_delay) for r in results] == expected[1:5]
        after = [batched.true_closest(t) for t in targets]
        assert after == expected
        assert all(type(node) is int and type(delay) is float for node, delay in after)

    def test_unreachable_target_raises_in_every_batch_that_asks(self, small_internet_matrix):
        matrix = unreachable_matrix(small_internet_matrix, [7, 13])
        ov_scalar, ov_batch = overlays(matrix, seed=4)
        failing = [([1, 7, 3], 7), ([7], 7), ([5, 3, 13, 9, 7], 13), ([1, 3, 7], 7)]
        for targets, named in failing:
            with pytest.raises(MeridianError, match=f"delay to target {named}$"):
                ov_batch.closest_neighbor_query_batch(targets, start_nodes=[0] * len(targets))
            with pytest.raises(MeridianError, match=f"delay to target {named}$"):
                ov_batch.true_closest(named)
        # Every target of the failed batches but the unreachable ones.
        targets = [1, 3, 5, 9, 11]
        scalar = [ov_scalar.closest_neighbor_query(t, start_node=0) for t in targets]
        assert ov_batch.closest_neighbor_query_batch(targets, start_nodes=[0] * 5) == scalar
        with pytest.raises(MeridianError, match="delay to target 13$"):
            ov_batch.closest_neighbor_query_batch([1, 13], start_nodes=[0, 0])
