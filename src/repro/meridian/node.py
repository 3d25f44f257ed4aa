"""A single Meridian node.

A Meridian node knows its own identifier, keeps a :class:`RingSet` of other
Meridian nodes, and can report which of its members are eligible to probe a
target given the β acceptance window.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MeridianError
from repro.meridian.rings import MeridianConfig, RingSet

# A membership adjuster inspects the (owner, member, measured delay) triple
# and may return a second delay at which the member should also be ring
# placed (or None to keep the default single placement).  The TIV-aware ring
# construction of §5.3 supplies one based on the TIV alert.  An adjuster may
# also offer ``placement_delays(owners, members, delays)``, the same answers
# for broadcast index arrays with ``nan`` for None; the batched overlay build
# then asks once for every candidate instead of once per edge.
MembershipAdjuster = Callable[[int, int, float], Optional[float]]


class MeridianNode:
    """One participant of the Meridian overlay.

    Parameters
    ----------
    node_id:
        Identifier of this node (an index into the delay matrix).
    config:
        Ring geometry and query parameters.
    """

    def __init__(self, node_id: int, config: MeridianConfig):
        self.node_id = int(node_id)
        self.config = config
        self.rings = RingSet(config)

    def __repr__(self) -> str:
        return f"MeridianNode(id={self.node_id}, members={len(self.rings)})"

    def add_member(
        self,
        member: int,
        delay: float,
        *,
        adjuster: MembershipAdjuster | None = None,
    ) -> bool:
        """Add ``member`` (measured at ``delay`` ms) to this node's rings.

        Parameters
        ----------
        member:
            The member's node id; must differ from this node's id.
        delay:
            Measured delay between this node and the member.
        adjuster:
            Optional membership adjuster (see :data:`MembershipAdjuster`).
        """
        if member == self.node_id:
            raise MeridianError("a Meridian node cannot be its own ring member")
        extra = adjuster(self.node_id, member, delay) if adjuster is not None else None
        return self.rings.add(member, delay, also_at_delay=extra)

    def eligible_members(self, delay_to_target: float) -> list[int]:
        """Members allowed to probe a target at ``delay_to_target`` ms away.

        Meridian asks exactly the ring members whose delay to this node lies
        within ``[(1 - beta) * d, (1 + beta) * d]``.
        """
        if delay_to_target < 0:
            raise MeridianError("delay_to_target must be non-negative")
        beta = self.config.beta
        low = (1.0 - beta) * delay_to_target
        high = (1.0 + beta) * delay_to_target
        return self.rings.members_within(low, high)

    def members(self) -> list[int]:
        """All ring members of this node."""
        return self.rings.members()
