"""The lock-step closest-neighbour search, batched and alone, against the oracle."""

import numpy as np
import pytest

from repro.delayspace.matrix import DelayMatrix
from repro.errors import MeridianError
from repro.meridian.overlay import MeridianOverlay
from repro.meridian.rings import MeridianConfig
from tests.meridian.oracle import OracleOverlay


def overlays(matrix, seed=0, **config_kwargs):
    """The oracle and the overlay under test, identically seeded."""
    ids = list(range(0, matrix.n_nodes, 2))
    config = MeridianConfig(**config_kwargs) if config_kwargs else None
    return (
        OracleOverlay(matrix, ids, config, rng=seed),
        MeridianOverlay(matrix, ids, config, rng=seed),
    )


def assert_same_result(expected, batch):
    assert expected.target == batch.target
    assert expected.selected == batch.selected
    assert expected.selected_delay == batch.selected_delay
    assert expected.optimal == batch.optimal
    assert expected.probes == batch.probes
    assert expected.hops == batch.hops


class TestBatchQueryEquivalence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_identical_to_sequential_oracle_queries(self, small_internet_matrix, seed):
        oracle, ov_batch = overlays(small_internet_matrix, seed=seed)
        targets = [node for node in range(small_internet_matrix.n_nodes) if node % 2]
        starts = [oracle.meridian_ids[t % 40] for t in targets]
        expected = [
            oracle.closest_neighbor_query(t, start_node=s)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(targets, start_nodes=starts)
        for e, b in zip(expected, batch):
            assert_same_result(e, b)

    def test_random_starts_consume_the_rng_identically(self, small_internet_matrix):
        oracle, ov_batch = overlays(small_internet_matrix, seed=3)
        targets = [1, 3, 5, 7, 9, 11]
        expected = [oracle.closest_neighbor_query(t) for t in targets]
        batch = ov_batch.closest_neighbor_query_batch(targets)
        for e, b in zip(expected, batch):
            assert_same_result(e, b)
        assert ov_batch._rng.bit_generator.state == oracle._rng.bit_generator.state

    def test_meridian_node_targets_supported(self, small_internet_matrix):
        # A Meridian node appearing as a target shows up in other nodes'
        # rings at delay 0, where a query may advance to its own target.
        oracle, ov_batch = overlays(small_internet_matrix, seed=1)
        targets = [0, 2, 4, 6]
        starts = [oracle.meridian_ids[-1]] * len(targets)
        expected = [
            oracle.closest_neighbor_query(t, start_node=s)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(targets, start_nodes=starts)
        for e, b in zip(expected, batch):
            assert_same_result(e, b)

    def test_no_termination_window_matches_too(self, small_internet_matrix):
        oracle, ov_batch = overlays(
            small_internet_matrix, seed=2, use_termination=False
        )
        targets = [1, 9, 17, 33]
        starts = [oracle.meridian_ids[0]] * len(targets)
        expected = [
            oracle.closest_neighbor_query(t, start_node=s)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(targets, start_nodes=starts)
        for e, b in zip(expected, batch):
            assert_same_result(e, b)

    def test_shared_ingress_batch(self, small_internet_matrix):
        # The serving workload's shape: one front-end node receives the
        # whole batch, so first-round gathers are genuinely shared.
        oracle, ov_batch = overlays(small_internet_matrix, seed=4)
        targets = [node for node in range(1, 40, 2)]
        start = oracle.meridian_ids[7]
        expected = [
            oracle.closest_neighbor_query(t, start_node=start) for t in targets
        ]
        batch = ov_batch.closest_neighbor_query_batch(
            targets, start_nodes=[start] * len(targets)
        )
        for e, b in zip(expected, batch):
            assert_same_result(e, b)


    def test_ties_go_to_the_lowest_member_id(self):
        # Node 0's ring holds members 2 and 1 in that order (the Meridian
        # list's order); both are eligible for target 3 and equally close
        # to it.  Both queries, like the oracle, advance to member 1.
        delays = np.array(
            [
                [0.0, 10.0, 10.0, 10.0],
                [10.0, 0.0, 3.0, 2.0],
                [10.0, 3.0, 0.0, 2.0],
                [10.0, 2.0, 2.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays)
        ids = [0, 2, 1]
        overlay = MeridianOverlay(matrix, ids, rng=0, full_membership=True)
        assert overlay.members(0) == [2, 1]
        expected = OracleOverlay(matrix, ids, full_membership=True).closest_neighbor_query(
            3, start_node=0
        )
        assert (expected.selected, expected.hops) == (1, [0, 1])
        assert overlay.closest_neighbor_query(3, start_node=0) == expected
        assert overlay.closest_neighbor_query_batch([3], start_nodes=[0]) == [expected]


class TestBatchQueryValidation:
    def test_empty_batch(self, small_internet_matrix):
        _, overlay = overlays(small_internet_matrix)
        assert overlay.closest_neighbor_query_batch([]) == []

    def test_invalid_target_raises(self, small_internet_matrix):
        _, overlay = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="not in the delay matrix"):
            overlay.closest_neighbor_query_batch([1, 10_000])

    def test_invalid_start_raises(self, small_internet_matrix):
        _, overlay = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="not a Meridian node"):
            overlay.closest_neighbor_query_batch([1], start_nodes=[1])

    @pytest.mark.parametrize("max_hops", [-1, 0, 1])
    def test_hop_budget_matches_oracle(self, small_internet_matrix, max_hops):
        oracle, ov_batch = overlays(small_internet_matrix, seed=8)
        targets, starts = [1, 3, 5], [0, 2, 4]
        expected = [
            oracle.closest_neighbor_query(t, start_node=s, max_hops=max_hops)
            for t, s in zip(targets, starts)
        ]
        assert ov_batch.closest_neighbor_query_batch(
            targets, start_nodes=starts, max_hops=max_hops
        ) == expected

    def test_mismatched_start_count_raises(self, small_internet_matrix):
        _, overlay = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="entries for"):
            overlay.closest_neighbor_query_batch([1, 3], start_nodes=[0])

    def test_results_are_never_restarted(self, small_internet_matrix):
        _, overlay = overlays(small_internet_matrix)
        results = overlay.closest_neighbor_query_batch([1, 3, 5])
        assert all(not r.restarted for r in results)
        assert all(isinstance(r.selected_delay, float) for r in results)


class TestNodeIds:
    """Meridian nodes, targets and start nodes must be integers: 3.0 and True
    equal nodes 3 and 1."""

    BAD = [2.7, 3.0, True, np.float64(2.0)]

    @pytest.mark.parametrize("bad", BAD)
    def test_non_integer_target_is_refused(self, small_internet_matrix, bad):
        _, overlay = overlays(small_internet_matrix)
        calls = [
            lambda: overlay.true_closest(bad),
            lambda: overlay.closest_neighbor_query(bad, start_node=0),
            lambda: overlay.closest_neighbor_query_batch([1, bad], start_nodes=[0, 0]),
        ]
        for call in calls:
            with pytest.raises(MeridianError, match="target .* is not an integer node id"):
                call()
        assert bad not in overlay._optimum

    @pytest.mark.parametrize("bad", BAD)
    def test_non_integer_meridian_node_is_refused(self, small_internet_matrix, bad):
        with pytest.raises(MeridianError, match="meridian node .* is not an integer node id"):
            MeridianOverlay(small_internet_matrix, [0, bad, 6])

    @pytest.mark.parametrize("bad", BAD + [np.float64(4.0)])
    def test_non_integer_start_node_is_refused(self, small_internet_matrix, bad):
        _, overlay = overlays(small_internet_matrix)
        with pytest.raises(MeridianError, match="start node .* is not an integer node id"):
            overlay.closest_neighbor_query(1, start_node=bad)
        with pytest.raises(MeridianError, match="start node .* is not an integer node id"):
            overlay.closest_neighbor_query_batch([1, 3], start_nodes=[0, bad])

    def test_numpy_integers_answer_as_python_ints(self, small_internet_matrix):
        _, plain = overlays(small_internet_matrix, seed=6)
        # The selection experiment passes its Meridian nodes as an int64 array.
        numpy_ids = MeridianOverlay(
            small_internet_matrix, np.arange(0, small_internet_matrix.n_nodes, 2), rng=6
        )
        assert numpy_ids.meridian_ids == plain.meridian_ids
        assert all(type(node) is int for node in numpy_ids.meridian_ids)
        assert numpy_ids.members(np.int64(4)) == plain.members(4)
        assert numpy_ids.true_closest(np.int64(2)) == plain.true_closest(2)
        assert numpy_ids.true_closest(np.int32(3)) == plain.true_closest(3)
        assert all(type(target) is int for target in numpy_ids._optimum)
        assert numpy_ids.closest_neighbor_query(
            np.int64(2), start_node=np.int64(4)
        ) == plain.closest_neighbor_query(2, start_node=4)
        assert numpy_ids.closest_neighbor_query_batch(
            [np.int64(2), 5], start_nodes=[np.int64(4), 0]
        ) == plain.closest_neighbor_query_batch([2, 5], start_nodes=[4, 0])


class TestBatchRestartPolicy:
    def test_restart_policy_matches_oracle(self, small_internet_matrix):
        # Every stalled query restarts through three of its node's members
        # (repeats included); the batch must replay the oracle's control flow.
        def restart(overlay, current, target, delay):
            return overlay.members(current)[:3] * 2

        oracle, ov_batch = overlays(small_internet_matrix, seed=6)
        targets = list(range(1, 80, 2))
        starts = [oracle.meridian_ids[t % 40] for t in targets]
        expected = [
            oracle.closest_neighbor_query(t, start_node=s, restart_policy=restart)
            for t, s in zip(targets, starts)
        ]
        batch = ov_batch.closest_neighbor_query_batch(
            targets, start_nodes=starts, restart_policy=restart
        )
        assert batch == expected
        assert any(r.restarted for r in batch)

    #: Start 0's only ring member is outside the β window for target 3, so
    #: the query stalls and restarts; node 2 is closer to 3 than 0 is.
    STALLS = np.array(
        [
            [0.0, 50.0, 30.0, 10.0],
            [50.0, 0.0, 30.0, 40.0],
            [30.0, 30.0, 0.0, 1.0],
            [10.0, 40.0, 1.0, 0.0],
        ]
    )

    def test_alternate_that_is_not_a_meridian_node_raises(self):
        # The restart would advance to client 2, a node with no rings.
        overlay = MeridianOverlay(DelayMatrix(self.STALLS), [0, 1], rng=0, full_membership=True)

        def to_client(overlay, current, target, delay):
            return [2]

        with pytest.raises(MeridianError, match="not a Meridian node"):
            overlay.closest_neighbor_query(3, start_node=0, restart_policy=to_client)
        with pytest.raises(MeridianError, match="not a Meridian node"):
            overlay.closest_neighbor_query_batch([3], start_nodes=[0], restart_policy=to_client)

    @pytest.mark.parametrize(
        "alternates, refused",
        [
            ([-2], "returned -2, not in the delay matrix"),
            ([2, -4], "returned -4, not in the delay matrix"),
            ([4], "returned 4, not in the delay matrix"),
            ([2.0], "restart alternate 2.0 is not an integer node id"),
            ([2, True], "restart alternate True is not an integer node id"),
        ],
        ids=["wraps-to-node-2", "wraps-to-start", "past-end", "float", "bool"],
    )
    def test_alternate_that_names_no_node_raises(self, alternates, refused):
        # A numpy index reads -2 as Meridian node 2, which the query would
        # advance to, and -4 as start 0, which would count as probed; 4
        # indexes nothing, and 2.0 would be probed as node 2.
        overlay = MeridianOverlay(DelayMatrix(self.STALLS), [0, 2], rng=0, full_membership=True)

        def restart(overlay, current, target, delay):
            return alternates

        with pytest.raises(MeridianError, match=refused):
            overlay.closest_neighbor_query(3, start_node=0, restart_policy=restart)
        with pytest.raises(MeridianError, match=refused):
            overlay.closest_neighbor_query_batch([3], start_nodes=[0], restart_policy=restart)


class TestScalarMeridianTargetRegression:
    def test_query_survives_advancing_to_a_meridian_target(self):
        # A query whose target is a Meridian node can advance *to the
        # target* (its ring members see it at delay 0); it must go on from
        # there and answer another node.
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

    def test_later_batches_match_oracle_queries(self, small_internet_matrix):
        oracle, ov_batch = overlays(small_internet_matrix, seed=9)
        # Repeated targets, within a batch and across batches, and new ones.
        for targets in ([1, 3, 5, 7], [5, 9, 1, 11, 11], [13, 3, 15, 9, 17]):
            expected = [oracle.closest_neighbor_query(t) for t in targets]
            assert ov_batch.closest_neighbor_query_batch(targets) == expected

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
        oracle, ov_batch = overlays(matrix, seed=4)
        failing = [([1, 7, 3], 7), ([7], 7), ([5, 3, 13, 9, 7], 13), ([1, 3, 7], 7)]
        for targets, named in failing:
            with pytest.raises(MeridianError, match=f"delay to target {named}$"):
                ov_batch.closest_neighbor_query_batch(targets, start_nodes=[0] * len(targets))
            with pytest.raises(MeridianError, match=f"delay to target {named}$"):
                ov_batch.true_closest(named)
        # Every target of the failed batches but the unreachable ones.
        targets = [1, 3, 5, 9, 11]
        expected = [oracle.closest_neighbor_query(t, start_node=0) for t in targets]
        assert ov_batch.closest_neighbor_query_batch(targets, start_nodes=[0] * 5) == expected
        with pytest.raises(MeridianError, match="delay to target 13$"):
            ov_batch.closest_neighbor_query_batch([1, 13], start_nodes=[0, 0])
