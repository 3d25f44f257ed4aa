"""Tests for repro.core.tiv_aware_meridian."""

import numpy as np
import pytest

from repro.core.alert import TIVAlert
from repro.core.tiv_aware_meridian import (
    TIVAwareMeridianConfig,
    build_tiv_aware_overlay,
    tiv_aware_membership_adjuster,
    tiv_aware_restart_policy,
)
from repro.delayspace.matrix import DelayMatrix
from repro.errors import AlertError, MeridianError
from repro.meridian.overlay import MeridianOverlay
from repro.meridian.rings import MeridianConfig
from tests.meridian.test_rings import row_rings


def _fig12_matrix() -> DelayMatrix:
    delays = np.array(
        [
            [0.0, 11.0, 25.0, 12.0],
            [11.0, 0.0, 12.0, 4.0],
            [25.0, 12.0, 0.0, 1.0],
            [12.0, 4.0, 1.0, 0.0],
        ]
    )
    return DelayMatrix(delays, labels=("A", "B", "N", "T"), symmetrize=False)


def _geometric_alert(matrix: DelayMatrix) -> TIVAlert:
    """An alert whose 'embedding' is the TIV-free geometric truth.

    Predicted delays place the four nodes consistently (B, N, T mutually
    close; A 11-12 ms away), so the TIV-inflated edges A-N and B-N have
    prediction ratios well below one.
    """
    predicted = np.array(
        [
            [0.0, 11.0, 12.0, 12.0],
            [11.0, 0.0, 4.0, 4.0],
            [12.0, 4.0, 0.0, 1.0],
            [12.0, 4.0, 1.0, 0.0],
        ]
    )
    measured = matrix.values
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(measured > 0, predicted / measured, np.nan)
    np.fill_diagonal(ratios, np.nan)
    return TIVAlert.from_ratio_matrix(matrix, ratios, predicted)


class TestTIVAwareMeridianConfig:
    def test_defaults_match_paper(self):
        config = TIVAwareMeridianConfig()
        assert config.ts == 0.6
        assert config.tl == 2.0

    def test_validation(self):
        with pytest.raises(AlertError):
            TIVAwareMeridianConfig(ts=0)
        with pytest.raises(AlertError):
            TIVAwareMeridianConfig(ts=0.6, tl=0.5)
        with pytest.raises(AlertError):
            TIVAwareMeridianConfig(restart_members=0)


class TestMembershipAdjuster:
    def test_fires_only_outside_safe_range(self):
        matrix = _fig12_matrix()
        alert = _geometric_alert(matrix)
        adjuster = tiv_aware_membership_adjuster(alert)
        # Edge B-N (1, 2): measured 12, predicted 4 -> ratio 1/3 < ts -> fires.
        assert adjuster(1, 2, 12.0) == pytest.approx(4.0)
        # Edge A-B (0, 1): measured 11, predicted 11 -> ratio 1 -> no alert.
        assert adjuster(0, 1, 11.0) is None

    def test_double_placement_in_overlay(self):
        matrix = _fig12_matrix()
        alert = _geometric_alert(matrix)
        overlay = MeridianOverlay(
            matrix,
            [0, 1, 2],
            MeridianConfig(),
            rng=0,
            full_membership=True,
            membership_adjuster=tiv_aware_membership_adjuster(alert),
        )
        # Node B (1) should have N (2) placed in two rings: by measured 12 ms
        # and by predicted 4 ms.
        assert sum(2 in ring for ring in row_rings(overlay._store, overlay._row_of[1])) == 2


class TestRestartPolicy:
    def test_tiv_aware_overlay_recovers_true_closest(self):
        """With the alert, the Fig. 12 query finds N instead of stopping at B.

        The double ring placement makes N visible to B's query window at its
        predicted delay, so the TIV-aware overlay finds the true closest
        node where plain Meridian stops at B.
        """
        matrix = _fig12_matrix()
        alert = _geometric_alert(matrix)
        overlay, restart = build_tiv_aware_overlay(
            matrix, [0, 1, 2], alert, rng=0, full_membership=True
        )
        result = overlay.closest_neighbor_query(3, start_node=0, restart_policy=restart)
        assert result.found_optimal
        assert result.selected == 2

    def test_restart_policy_alone_recovers_when_edge_to_target_shrunk(self):
        """The query-restart path fires when the (current, target) edge is TIV'd.

        Here the measured delay from the start node A to the target T is
        inflated (TIV) while the prediction says they are close.  The
        inflated measurement makes A's probing window miss every ring
        member, so plain Meridian stalls at A; the restart policy re-opens
        the search using predicted delays and reaches N.
        """
        delays = np.array(
            [
                [0.0, 11.0, 25.0, 60.0],   # A-T measured delay inflated to 60
                [11.0, 0.0, 12.0, 4.0],
                [25.0, 12.0, 0.0, 1.0],
                [60.0, 4.0, 1.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        predicted = np.array(
            [
                [0.0, 11.0, 12.0, 12.0],
                [11.0, 0.0, 4.0, 4.0],
                [12.0, 4.0, 0.0, 1.0],
                [12.0, 4.0, 1.0, 0.0],
            ]
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(delays > 0, predicted / delays, np.nan)
        np.fill_diagonal(ratios, np.nan)
        alert = TIVAlert.from_ratio_matrix(matrix, ratios, predicted)
        # Ring construction without the adjuster: only the restart is TIV-aware.
        overlay = MeridianOverlay(matrix, [0, 1, 2], MeridianConfig(), rng=0, full_membership=True)
        baseline = overlay.closest_neighbor_query(3, start_node=0)
        restart = tiv_aware_restart_policy(alert)
        aware = overlay.closest_neighbor_query(3, start_node=0, restart_policy=restart)
        assert aware.selected_delay <= baseline.selected_delay
        assert aware.restarted or aware.found_optimal

    def test_without_alert_query_fails(self):
        matrix = _fig12_matrix()
        overlay = MeridianOverlay(matrix, [0, 1, 2], MeridianConfig(), rng=0, full_membership=True)
        result = overlay.closest_neighbor_query(3, start_node=0)
        assert not result.found_optimal

    def test_policy_silent_when_ratio_safe(self):
        matrix = _fig12_matrix()
        n = matrix.n_nodes
        ratios = np.ones((n, n))
        np.fill_diagonal(ratios, np.nan)
        alert = TIVAlert.from_ratio_matrix(matrix, ratios, matrix.with_filled_missing().values)
        policy = tiv_aware_restart_policy(alert)
        overlay = MeridianOverlay(matrix, [0, 1, 2], rng=0, full_membership=True)
        assert policy(overlay, 1, 3, 4.0) is None

    def test_restart_member_cap(self, small_internet_matrix, converged_vivaldi):
        alert = TIVAlert(small_internet_matrix, converged_vivaldi)
        config = TIVAwareMeridianConfig(restart_members=3)
        policy = tiv_aware_restart_policy(alert, config)
        overlay = MeridianOverlay(
            small_internet_matrix, list(range(20)), rng=1, full_membership=True
        )
        # Force the ratio condition by picking an edge the embedding shrank.
        ratios = alert.ratio_matrix
        candidates = np.argwhere(np.nan_to_num(ratios, nan=np.inf) < 0.6)
        pairs = [(int(a), int(b)) for a, b in candidates if a in range(20) and b >= 20]
        if not pairs:
            pytest.skip("no shrunk meridian-client edge in this random instance")
        current, target = pairs[0]
        members = policy(overlay, current, target, small_internet_matrix.delay(current, target))
        assert members is not None
        assert len(members) <= 3


class TestBuildTivAwareOverlay:
    def test_mismatched_alert_raises(self, small_internet_matrix, euclidean_matrix, converged_vivaldi):
        alert = TIVAlert(small_internet_matrix, converged_vivaldi)
        with pytest.raises(MeridianError):
            build_tiv_aware_overlay(euclidean_matrix, [0, 1, 2], alert)

    def test_overlay_and_policy_returned(self, small_internet_matrix, converged_vivaldi):
        alert = TIVAlert(small_internet_matrix, converged_vivaldi)
        overlay, policy = build_tiv_aware_overlay(
            small_internet_matrix, list(range(15)), alert, rng=0
        )
        assert isinstance(overlay, MeridianOverlay)
        assert callable(policy)
        result = overlay.closest_neighbor_query(40, restart_policy=policy)
        assert result.selected in range(15)
