"""Tests for repro.meridian.overlay, including the Fig. 12 scenario."""

import numpy as np
import pytest

from repro.delayspace.matrix import DelayMatrix
from repro.errors import MeridianError
from repro.meridian.overlay import MeridianOverlay
from repro.meridian.rings import MeridianConfig
from tests.meridian.oracle import OracleOverlay
from tests.meridian.test_rings import row_rings

#: The overlay and its oracle, by the names the tests carry.
OVERLAYS = {"batched": MeridianOverlay, "reference": OracleOverlay}


def fig12_matrix() -> DelayMatrix:
    """The §3.2.2 / Fig. 12 scenario.

    Nodes: A=0, B=1, N=2, T=3 with d(A,T)=12, d(T,N)=1, d(A,N)=25,
    d(A,B)=11, d(B,T)=4, d(B,N)=12.  Three of the four triangles violate the
    triangle inequality, which makes Meridian return B although N is the
    true closest node to T.
    """
    delays = np.array(
        [
            [0.0, 11.0, 25.0, 12.0],
            [11.0, 0.0, 12.0, 4.0],
            [25.0, 12.0, 0.0, 1.0],
            [12.0, 4.0, 1.0, 0.0],
        ]
    )
    return DelayMatrix(delays, labels=("A", "B", "N", "T"), symmetrize=False)


class TestOverlayConstruction:
    def test_requires_two_meridian_nodes(self, small_internet_matrix):
        with pytest.raises(MeridianError):
            MeridianOverlay(small_internet_matrix, [0])

    def test_duplicate_nodes_raise(self, small_internet_matrix):
        with pytest.raises(MeridianError):
            MeridianOverlay(small_internet_matrix, [0, 0, 1])

    def test_out_of_range_node_raises(self, small_internet_matrix):
        with pytest.raises(MeridianError):
            MeridianOverlay(small_internet_matrix, [0, 10_000])

    def test_full_membership_populates_all(self, small_internet_matrix):
        ids = list(range(10))
        overlay = MeridianOverlay(
            small_internet_matrix, ids, MeridianConfig(k=16), rng=0, full_membership=True
        )
        for node_id in ids:
            assert len(overlay.members(node_id)) == 9

    def test_sampled_membership_capped(self, small_internet_matrix):
        ids = list(range(40))
        overlay = MeridianOverlay(
            small_internet_matrix,
            ids,
            MeridianConfig(),
            rng=0,
            membership_sample_size=10,
        )
        for node_id in ids:
            assert len(overlay.members(node_id)) <= 10

    def test_excluded_edges_not_used(self, small_internet_matrix):
        ids = list(range(10))
        excluded = {(0, j) for j in range(1, 10)}
        overlay = MeridianOverlay(
            small_internet_matrix,
            ids,
            rng=0,
            full_membership=True,
            excluded_edges=excluded,
        )
        assert overlay.members(0) == []

    def test_node_lookup_unknown_raises(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, [0, 1, 2], rng=0)
        with pytest.raises(MeridianError, match="50 is not a Meridian node"):
            overlay.members(50)
        with pytest.raises(MeridianError, match="not an integer node id"):
            overlay.members(1.0)

    def test_ring_occupancy_report(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, list(range(8)), rng=0, full_membership=True)
        for node_id in range(8):
            rings = row_rings(overlay._store, overlay._row_of[node_id])
            occupancy = [len(ring) for ring in rings]
            assert len(occupancy) == overlay.config.n_rings
            assert sum(occupancy) == 7

    def test_true_closest(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, list(range(20)), rng=0)
        target = 30
        node, delay = overlay.true_closest(target)
        measured = small_internet_matrix.values[list(range(20)), target]
        assert delay == pytest.approx(np.nanmin(measured))


class TestFig12Scenario:
    def test_tiv_misleads_meridian(self):
        matrix = fig12_matrix()
        overlay = MeridianOverlay(
            matrix, [0, 1, 2], MeridianConfig(beta=0.5), rng=0, full_membership=True
        )
        result = overlay.closest_neighbor_query(3, start_node=0)
        # Meridian ends at B even though N (delay 1) is the true closest.
        assert result.selected == 1
        assert result.optimal == 2
        assert result.optimal_delay == 1.0
        assert result.percentage_penalty == pytest.approx(300.0)
        assert not result.found_optimal
        assert result.hops[0] == 0

    def test_starting_elsewhere_can_succeed(self):
        matrix = fig12_matrix()
        overlay = MeridianOverlay(
            matrix, [0, 1, 2], MeridianConfig(beta=0.5), rng=0, full_membership=True
        )
        result = overlay.closest_neighbor_query(3, start_node=2)
        # Starting at N itself trivially finds N.
        assert result.selected == 2
        assert result.found_optimal


class TestQueryBehaviour:
    def test_query_counts_probes(self, small_internet_matrix):
        overlay = MeridianOverlay(
            small_internet_matrix, list(range(20)), rng=1, full_membership=True
        )
        result = overlay.closest_neighbor_query(30, start_node=0)
        assert result.probes >= 1
        assert result.selected in range(20)
        assert result.selected_delay >= result.optimal_delay or result.found_optimal

    def test_invalid_target_raises(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, [0, 1, 2], rng=0)
        with pytest.raises(MeridianError):
            overlay.closest_neighbor_query(1_000)

    def test_invalid_start_raises(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, [0, 1, 2], rng=0)
        with pytest.raises(MeridianError):
            overlay.closest_neighbor_query(5, start_node=7)

    def test_random_start_used_when_omitted(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, list(range(10)), rng=2)
        result = overlay.closest_neighbor_query(20)
        assert result.hops[0] in range(10)

    def test_no_termination_does_not_stop_early(self, small_internet_matrix):
        ids = list(range(30))
        target = 60
        with_term = MeridianOverlay(
            small_internet_matrix, ids, MeridianConfig(use_termination=True), rng=3, full_membership=True
        ).closest_neighbor_query(target, start_node=ids[0])
        without_term = MeridianOverlay(
            small_internet_matrix, ids, MeridianConfig(use_termination=False), rng=3, full_membership=True
        ).closest_neighbor_query(target, start_node=ids[0])
        assert without_term.selected_delay <= with_term.selected_delay + 1e-9

    def test_euclidean_ideal_setting_finds_optimal(self, euclidean_matrix):
        """On TIV-free data with ideal settings Meridian should be near perfect."""
        ids = list(range(20))
        overlay = MeridianOverlay(
            euclidean_matrix,
            ids,
            MeridianConfig(use_termination=False),
            rng=4,
            full_membership=True,
        )
        outcomes = [
            overlay.closest_neighbor_query(t, start_node=ids[t % len(ids)])
            for t in range(20, 40)
        ]
        exact = sum(1 for o in outcomes if o.found_optimal)
        assert exact >= 18

    def test_restart_policy_invoked(self):
        matrix = fig12_matrix()
        overlay = MeridianOverlay(
            matrix, [0, 1, 2], MeridianConfig(beta=0.5), rng=0, full_membership=True
        )
        calls = []

        def restart(ov, current, target, delay):
            calls.append((current, target))
            return [2]  # force N to be probed

        result = overlay.closest_neighbor_query(3, start_node=0, restart_policy=restart)
        assert calls, "restart policy should be consulted when the query stalls"
        assert result.restarted
        assert result.selected == 2
        assert result.found_optimal

    def test_restart_policy_returning_none_keeps_result(self):
        matrix = fig12_matrix()
        overlay = MeridianOverlay(
            matrix, [0, 1, 2], MeridianConfig(beta=0.5), rng=0, full_membership=True
        )
        result = overlay.closest_neighbor_query(
            3, start_node=0, restart_policy=lambda *args: None
        )
        assert result.selected == 1
        assert not result.restarted


class TestDegenerateOverlays:
    """Edge cases: empty rings, all-excluded candidate sets, minimal overlays."""

    def test_single_node_overlay_rejected(self, small_internet_matrix):
        with pytest.raises(MeridianError):
            MeridianOverlay(small_internet_matrix, [5])

    def test_empty_iterable_rejected(self, small_internet_matrix):
        with pytest.raises(MeridianError):
            MeridianOverlay(small_internet_matrix, [])

    def test_all_edges_excluded_leaves_every_ring_empty(self, small_internet_matrix):
        # The §4.3 strawman taken to its limit: every candidate edge is
        # flagged as TIV and filtered, so no node can populate any ring.
        ids = list(range(6))
        excluded = {(i, j) for i in ids for j in ids if i < j}
        overlay = MeridianOverlay(
            small_internet_matrix,
            ids,
            rng=0,
            full_membership=True,
            excluded_edges=excluded,
        )
        for node_id in ids:
            assert overlay.members(node_id) == []

    def test_query_with_empty_rings_returns_start_node(self, small_internet_matrix):
        # With no ring members the query cannot forward anywhere: it must
        # terminate immediately at the start node after its single probe.
        ids = [0, 1, 2]
        excluded = {(0, 1), (0, 2), (1, 2)}
        overlay = MeridianOverlay(
            small_internet_matrix,
            ids,
            rng=0,
            full_membership=True,
            excluded_edges=excluded,
        )
        result = overlay.closest_neighbor_query(10, start_node=0)
        assert result.selected == 0
        assert result.probes == 1
        assert result.hops == [0]
        # The ground-truth optimum is still computed over all Meridian nodes.
        assert result.optimal in ids

    def test_unmeasured_edges_leave_rings_empty(self):
        # Missing measurements (nan) between the Meridian nodes must be
        # skipped during construction, not stored as members.
        delays = np.array(
            [
                [0.0, np.nan, 20.0],
                [np.nan, 0.0, 30.0],
                [20.0, 30.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        overlay = MeridianOverlay(matrix, [0, 1], rng=0, full_membership=True)
        assert overlay.members(0) == []
        assert overlay.members(1) == []
        result = overlay.closest_neighbor_query(2, start_node=0)
        assert result.selected == 0
        assert result.selected_delay == 20.0

    def test_two_node_minimal_overlay_answers_queries(self, small_internet_matrix):
        overlay = MeridianOverlay(small_internet_matrix, [0, 1], rng=0, full_membership=True)
        result = overlay.closest_neighbor_query(40, start_node=0)
        assert result.selected in (0, 1)
        assert result.optimal in (0, 1)
        assert result.probes >= 1

    def test_target_with_no_measured_meridian_delay_raises(self):
        delays = np.array(
            [
                [0.0, 5.0, np.nan],
                [5.0, 0.0, np.nan],
                [np.nan, np.nan, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        overlay = MeridianOverlay(matrix, [0, 1], rng=0, full_membership=True)
        with pytest.raises(MeridianError):
            overlay.true_closest(2)


class TestKernels:
    """The overlay against the member-by-member oracle: exact equivalence.

    The array build only trades loop shape for array gathers — it consumes
    the RNG as the oracle does, so rings, member order and every query
    outcome must match bit for bit.
    """

    def test_unknown_kernel_raises(self, small_internet_matrix):
        # The kernel switch is gone: every kernel keyword is unknown.
        with pytest.raises(TypeError):
            MeridianOverlay(small_internet_matrix, [0, 1, 2], kernel="turbo")

    def test_kernel_property(self, small_internet_matrix):
        # One kernel, so an overlay names none; the TIV alert the §5.3
        # overlays read keeps the "batched" literal in its cache address.
        from repro.artifacts import ArtifactKey
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.context import ExperimentContext

        assert not hasattr(MeridianOverlay(small_internet_matrix, [0, 1], rng=0), "kernel")
        context = ExperimentContext(ExperimentConfig(n_nodes=40))
        assert context.artifact_params(ArtifactKey("alert"))["kernel"] == "batched"

    @staticmethod
    def _assert_same_rings(a: MeridianOverlay, b: OracleOverlay):
        assert a.meridian_ids == b.meridian_ids
        for node_id in a.meridian_ids:
            assert a.members(node_id) == b.members(node_id)
            assert row_rings(a._store, a._row_of[node_id]) == b.rings(node_id)

    @pytest.mark.parametrize("full_membership", [True, False])
    def test_identical_rings(self, small_internet_matrix, full_membership):
        overlays = [
            overlay(
                small_internet_matrix,
                range(0, 80, 2),
                rng=5,
                full_membership=full_membership,
                membership_sample_size=12,
            )
            for overlay in (MeridianOverlay, OracleOverlay)
        ]
        self._assert_same_rings(*overlays)

    def test_identical_rings_with_excluded_edges(self, small_internet_matrix):
        excluded = [(0, 2), (4, 6), (2, 10)]
        overlays = [
            overlay(
                small_internet_matrix,
                range(0, 80, 4),
                rng=3,
                excluded_edges=excluded,
            )
            for overlay in (MeridianOverlay, OracleOverlay)
        ]
        self._assert_same_rings(*overlays)

    def test_identical_rings_with_membership_adjuster(self, small_internet_matrix):
        # The oracle asks the adjuster edge by edge; the overlay build asks
        # once for every candidate and places the double placements in one
        # pass.
        class Doubling:
            def __call__(self, owner, member, delay):
                return delay * 2 if delay < 50 else None

            def placement_delays(self, owners, members, delays):
                return np.where(delays < 50, delays * 2, np.nan)

        adjuster = Doubling()
        overlays = [
            overlay(
                small_internet_matrix,
                range(0, 80, 4),
                rng=3,
                membership_adjuster=adjuster,
            )
            for overlay in (MeridianOverlay, OracleOverlay)
        ]
        self._assert_same_rings(*overlays)

    def test_identical_query_results(self, small_internet_matrix):
        meridian_ids = list(range(0, 80, 2))
        overlays = {
            kernel: overlay(small_internet_matrix, meridian_ids, rng=7)
            for kernel, overlay in (("batched", MeridianOverlay), ("reference", OracleOverlay))
        }
        targets = [node for node in range(80) if node % 2]
        for target in targets:
            start = meridian_ids[target % len(meridian_ids)]
            a = overlays["batched"].closest_neighbor_query(target, start_node=start)
            b = overlays["reference"].closest_neighbor_query(target, start_node=start)
            assert (a.selected, a.selected_delay) == (b.selected, b.selected_delay)
            assert (a.optimal, a.optimal_delay) == (b.optimal, b.optimal_delay)
            assert a.probes == b.probes
            assert a.hops == b.hops
            assert a.restarted == b.restarted

    def test_identical_true_closest(self, small_internet_matrix):
        overlays = [
            overlay(small_internet_matrix, range(0, 80, 2), rng=1)
            for overlay in (MeridianOverlay, OracleOverlay)
        ]
        for target in range(1, 80, 2):
            assert overlays[0].true_closest(target) == overlays[1].true_closest(target)

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_true_closest_rejects_targets_outside_the_matrix(self, small_internet_matrix, kernel):
        # numpy would wrap -1 to the last node and fail on n with a bare
        # IndexError; the query methods' error is the contract.
        overlay = OVERLAYS[kernel](small_internet_matrix, range(0, 80, 2), rng=1)
        for target in (-1, small_internet_matrix.n_nodes):
            with pytest.raises(MeridianError, match=f"target {target} is not in the delay matrix"):
                overlay.true_closest(target)
        assert overlay.true_closest(79) == overlay.true_closest(np.int64(79))

    def test_batched_true_closest_missing_delays_raise(self):
        delays = np.array(
            [
                [0.0, 5.0, np.nan],
                [5.0, 0.0, np.nan],
                [np.nan, np.nan, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        overlay = MeridianOverlay(matrix, [0, 1], rng=0)
        with pytest.raises(MeridianError):
            overlay.true_closest(2)
