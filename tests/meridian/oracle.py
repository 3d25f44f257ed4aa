"""The Meridian oracle: dict rings, a member-by-member build, one query at a time.

:class:`OracleOverlay` builds each node's rings by adding its candidates one
by one to a :class:`DictRingSet` (a dict per ring, first come first kept),
drawing candidates from the RNG exactly as
:class:`~repro.meridian.overlay.MeridianOverlay` draws them, and answers
every query with a scalar recursive search, probing one member at a time.
The overlay's one-pass ring store and lock-step batch search must agree
with it bit for bit: rings, member order, probes, hops and answers.
"""

import math

import numpy as np

from repro.errors import MeridianError
from repro.meridian.node import MeridianNode
from repro.meridian.overlay import QueryResult
from repro.meridian.rings import MeridianConfig, ring_bounds, ring_index
from repro.stats.rng import ensure_rng


class DictRingSet:
    """One node's rings as a dict per ring, holding each member's placement delay."""

    def __init__(self, config: MeridianConfig):
        self.config = config
        self._rings: list[dict[int, float]] = [dict() for _ in range(config.n_rings)]
        self._delays: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._delays)

    def __contains__(self, member: int) -> bool:
        return member in self._delays

    def add(self, member: int, delay: float, *, also_at_delay: float | None = None) -> bool:
        if delay < 0 or not math.isfinite(delay):
            raise MeridianError(f"invalid member delay {delay}")
        placed = False
        for d in [delay] if also_at_delay is None else [delay, also_at_delay]:
            ring = self._rings[ring_index(d, self.config)]
            if member in ring:
                placed = True
            elif len(ring) < self.config.k:
                ring[member] = d
                placed = True
        if placed:
            self._delays[member] = delay
        return placed

    def member_delay(self, member: int) -> float:
        try:
            return self._delays[member]
        except KeyError:
            raise MeridianError(f"node {member} is not a ring member") from None

    def members(self) -> list[int]:
        return list(self._delays)

    def ring_members(self, index: int) -> dict[int, float]:
        if not 0 <= index < self.config.n_rings:
            raise MeridianError(f"ring index {index} out of range")
        return dict(self._rings[index])

    def ring_of(self, member: int) -> list[int]:
        return [i for i, ring in enumerate(self._rings) if member in ring]

    def members_within(self, low: float, high: float) -> list[int]:
        """Members placed within ``[low, high]``, from the rings overlapping it."""
        if low > high:
            return []
        found: set[int] = set()
        for index, ring in enumerate(self._rings):
            inner, outer = ring_bounds(index, self.config)
            if outer < low or inner > high:
                continue
            found.update(member for member, delay in ring.items() if low <= delay <= high)
        return sorted(found)

    def occupancy(self) -> list[int]:
        return [len(ring) for ring in self._rings]


class OracleOverlay:
    """A Meridian overlay built member by member and queried target by target."""

    def __init__(
        self,
        matrix,
        meridian_nodes,
        config=None,
        *,
        rng=None,
        full_membership=False,
        membership_sample_size=None,
        excluded_edges=None,
        membership_adjuster=None,
    ):
        self.matrix = matrix
        self.config = config if config is not None else MeridianConfig()
        self.meridian_ids = [int(i) for i in meridian_nodes]
        self._delays = matrix.values
        self._rng = ensure_rng(rng)
        excluded = {frozenset((int(a), int(b))) for a, b in excluded_edges or ()}
        if membership_sample_size is None:
            membership_sample_size = self.config.k * self.config.n_rings
        self._nodes: dict[int, MeridianNode] = {}
        for node_id in self.meridian_ids:
            node = MeridianNode(node_id, self.config, DictRingSet(self.config))
            others = [m for m in self.meridian_ids if m != node_id]
            if full_membership or len(others) <= membership_sample_size:
                candidates = others
            else:
                chosen = self._rng.choice(len(others), size=membership_sample_size, replace=False)
                candidates = [others[int(c)] for c in chosen]
            for member in candidates:
                delay = self._delays[node_id, member]
                if frozenset((node_id, member)) in excluded or not np.isfinite(delay):
                    continue
                node.add_member(member, float(delay), adjuster=membership_adjuster)
            self._nodes[node_id] = node

    def node(self, node_id: int) -> MeridianNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MeridianError(f"{node_id} is not a Meridian node") from None

    def ring_occupancy(self) -> dict[int, list[int]]:
        return {node_id: self.node(node_id).rings.occupancy() for node_id in self.meridian_ids}

    def true_closest(self, target: int) -> tuple[int, float]:
        if not 0 <= target < self.matrix.n_nodes:
            raise MeridianError(f"target {target} is not in the delay matrix")
        best_node, best_delay = -1, np.inf
        for node_id in self.meridian_ids:
            d = self._delays[node_id, target]
            if node_id != target and np.isfinite(d) and d < best_delay:
                best_node, best_delay = node_id, float(d)
        if best_node < 0:
            raise MeridianError(f"no Meridian node has a measured delay to target {target}")
        return best_node, best_delay

    def _measured(self, a: int, b: int) -> float:
        d = self._delays[a, b]
        return float(d) if np.isfinite(d) else np.inf

    def _probe(self, members, target, probed_delay) -> tuple[dict[int, float], int]:
        """Each member's delay to ``target``, in member order, and the probes made.

        A member not probed before is probed once per time it is listed.
        """
        delays, new = {}, []
        for member in members:
            if member == target:
                delays[member] = probed_delay[member] = 0.0
            elif member in probed_delay:
                delays[member] = probed_delay[member]
            else:
                delays[member] = np.inf  # keeps the member's place in the order
                new.append(member)
        for member in new:
            delays[member] = probed_delay[member] = self._measured(member, target)
        return delays, len(new)

    def closest_neighbor_query(
        self, target, *, start_node=None, restart_policy=None, max_hops=64
    ) -> QueryResult:
        if not 0 <= target < self.matrix.n_nodes:
            raise MeridianError(f"target {target} is not in the delay matrix")
        if start_node is None:
            start_node = self.meridian_ids[int(self._rng.integers(0, len(self.meridian_ids)))]
        elif start_node not in self._nodes:
            raise MeridianError(f"start node {start_node} is not a Meridian node")
        config = self.config
        current = start_node
        current_delay = self._measured(current, target)
        probes, hops, restarted = 1, [start_node], False
        best_node, best_delay = current, current_delay
        probed_delay = {current: current_delay}

        for _ in range(max_hops):
            candidates = self.node(current).eligible_members(current_delay)
            delays, new_probes = self._probe(candidates, target, probed_delay)
            probes += new_probes
            next_node = None
            if delays:
                closest = min(delays, key=delays.get)
                if delays[closest] < best_delay:
                    best_node, best_delay = closest, delays[closest]
                if config.use_termination:
                    advance = delays[closest] <= config.beta * current_delay
                else:
                    advance = delays[closest] < current_delay
                if advance and closest != current:
                    next_node = closest
            if next_node is None and restart_policy is not None:
                alternates = restart_policy(self, current, target, current_delay)
                if alternates:
                    restarted = True
                    delays, new_probes = self._probe(
                        [m for m in alternates if m != current and m != target],
                        target,
                        probed_delay,
                    )
                    probes += new_probes
                    if delays:
                        closest = min(delays, key=delays.get)
                        if delays[closest] < best_delay:
                            best_node, best_delay = closest, delays[closest]
                        if delays[closest] < current_delay and closest != current:
                            next_node = closest
            if next_node is None:
                break
            current = next_node
            current_delay = probed_delay[current]
            hops.append(current)

        if best_node == target and len(probed_delay) > 1:
            # Never answer the target itself as its own closest neighbour.
            others = {k: v for k, v in probed_delay.items() if k != target}
            best_node = min(others, key=others.get)
            best_delay = others[best_node]
        optimal, optimal_delay = self.true_closest(target)
        return QueryResult(
            target=target,
            selected=best_node,
            selected_delay=float(best_delay),
            optimal=optimal,
            optimal_delay=float(optimal_delay),
            probes=probes,
            hops=hops,
            restarted=restarted,
        )

    def closest_neighbor_query_batch(
        self, targets, *, start_nodes=None, restart_policy=None, max_hops=64
    ) -> list[QueryResult]:
        starts = [None] * len(targets) if start_nodes is None else list(start_nodes)
        return [
            self.closest_neighbor_query(
                int(target), start_node=start, restart_policy=restart_policy, max_hops=max_hops
            )
            for target, start in zip(targets, starts)
        ]
