"""TIV-aware Meridian (§5.3 of the paper).

Meridian's two stages are made TIV-aware with the help of an independent
network embedding (Vivaldi) that supplies prediction ratios:

* **Ring construction** — when the prediction ratio of the edge between a
  Meridian node and a prospective ring member falls outside the safe range
  ``[ts, tl]``, the member is placed into rings by *both* its measured delay
  and its predicted delay (double placement), so a TIV-distorted measurement
  cannot hide the member from the queries that need it.

* **Online recursive query** — when a query is about to terminate because no
  eligible ring member beat ``beta * d``, the current node checks the
  prediction ratio of its edge to the target; if it is below ``ts`` the edge
  is suspected of severe TIV and the node restarts the search using the
  *predicted* delay to the target to choose an alternative set of ring
  members to probe.

The paper uses ``ts = 0.6`` and ``tl = 2`` and reports ~5–6 % extra
on-demand probes for a visible improvement in the penalty CDF (Figs. 24–25).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.alert import TIVAlert
from repro.delayspace.matrix import DelayMatrix
from repro.errors import AlertError, MeridianError
from repro.meridian.node import MembershipAdjuster
from repro.meridian.overlay import MeridianOverlay, RestartPolicy
from repro.meridian.rings import MeridianConfig
from repro.stats.rng import RngLike


@dataclass(frozen=True)
class TIVAwareMeridianConfig:
    """Thresholds of the TIV-aware Meridian extensions.

    Attributes
    ----------
    ts:
        Lower safe bound on the prediction ratio (paper: 0.6).  Ratios below
        ``ts`` indicate the embedding shrank the edge — a severe-TIV alert.
    tl:
        Upper safe bound (paper: 2).  Ratios above ``tl`` indicate the edge
        was stretched; the member is also double-placed in that case.
    restart_members:
        How many ring members (closest to the target by *predicted* delay)
        the restart step asks to probe.
    """

    ts: float = 0.6
    tl: float = 2.0
    restart_members: int = 16

    def __post_init__(self) -> None:
        if self.ts <= 0:
            raise AlertError("ts must be positive")
        if self.tl <= self.ts:
            raise AlertError("tl must be greater than ts")
        if self.restart_members < 1:
            raise AlertError("restart_members must be >= 1")


class _TIVAwareAdjuster:
    """The §5.3 double-placement rule, per edge and for whole arrays."""

    def __init__(self, alert: TIVAlert, config: TIVAwareMeridianConfig):
        self._alert = alert
        self._config = config

    def __call__(self, owner: int, member: int, measured_delay: float) -> Optional[float]:
        cfg = self._config
        ratio = self._alert.ratio(owner, member)
        if not np.isfinite(ratio):
            return None
        if ratio < cfg.ts or ratio > cfg.tl:
            predicted = self._alert.predicted_delay(owner, member)
            if np.isfinite(predicted) and predicted >= 0:
                return float(predicted)
        return None

    def placement_delays(
        self, owners: np.ndarray, members: np.ndarray, delays: np.ndarray
    ) -> np.ndarray:
        """The adjuster over whole index arrays: ``nan`` where it returns None."""
        cfg = self._config
        ratio = self._alert.ratios(owners, members)
        predicted = self._alert.predicted_delays(owners, members)
        fires = np.isfinite(ratio) & ((ratio < cfg.ts) | (ratio > cfg.tl))
        fires &= np.isfinite(predicted) & (predicted >= 0)
        return np.where(fires, predicted, np.nan)


def tiv_aware_membership_adjuster(
    alert: TIVAlert, config: TIVAwareMeridianConfig | None = None
) -> MembershipAdjuster:
    """Build the §5.3 ring-construction adjuster.

    The returned callable, given ``(owner, member, measured_delay)``, returns
    the member's *predicted* delay when the alert's prediction ratio for the
    edge lies outside ``[ts, tl]`` (triggering double placement), or ``None``
    when the measured placement alone is safe.  It also answers for whole
    index arrays (``placement_delays``), which the overlay build reads from
    the alert's ratio and predicted-delay rows in one pass.
    """
    return _TIVAwareAdjuster(alert, config if config is not None else TIVAwareMeridianConfig())


def tiv_aware_restart_policy(
    alert: TIVAlert, config: TIVAwareMeridianConfig | None = None
) -> RestartPolicy:
    """Build the §5.3 query-restart policy.

    The returned callable is consulted by
    :meth:`repro.meridian.overlay.MeridianOverlay.closest_neighbor_query`
    when the recursion is about to stop at ``current``.  If the prediction
    ratio of the (current, target) edge is below ``ts`` — i.e. the measured
    delay to the target is suspected to be TIV-inflated — the policy selects
    the ``restart_members`` ring members whose *predicted* delay to the
    target is smallest and asks the overlay to probe them.
    """
    cfg = config if config is not None else TIVAwareMeridianConfig()

    def policy(
        overlay: MeridianOverlay, current: int, target: int, measured_delay: float
    ) -> Optional[Sequence[int]]:
        ratio = alert.ratio(current, target)
        if not np.isfinite(ratio) or ratio >= cfg.ts:
            return None
        members = overlay.node(current).members()
        if not members:
            return None
        predicted = alert.predicted_delays(np.asarray(members, dtype=np.int64), target)
        order = np.argsort(predicted, kind="stable")
        count = min(cfg.restart_members, len(members))
        return [members[int(k)] for k in order[:count]]

    return policy


def build_tiv_aware_overlay(
    matrix: DelayMatrix,
    meridian_nodes: Sequence[int],
    alert: TIVAlert,
    *,
    meridian_config: MeridianConfig | None = None,
    tiv_config: TIVAwareMeridianConfig | None = None,
    rng: RngLike = None,
    full_membership: bool = False,
    membership_sample_size: Optional[int] = None,
) -> tuple[MeridianOverlay, RestartPolicy]:
    """Construct a TIV-aware Meridian overlay and its restart policy.

    This is the convenience entry point used by the Fig. 24 / Fig. 25
    experiments: the overlay is built with the TIV-aware membership
    adjuster, and the matching restart policy is returned so callers can
    pass it to every query.  The overlay places every node's members,
    double placements included, in one whole-array pass.
    """
    if alert.matrix.n_nodes != matrix.n_nodes:
        raise MeridianError("alert was built for a different delay matrix size")
    cfg = tiv_config if tiv_config is not None else TIVAwareMeridianConfig()
    overlay = MeridianOverlay(
        matrix,
        meridian_nodes,
        meridian_config,
        rng=rng,
        full_membership=full_membership,
        membership_sample_size=membership_sample_size,
        membership_adjuster=tiv_aware_membership_adjuster(alert, cfg),
    )
    return overlay, tiv_aware_restart_policy(alert, cfg)
