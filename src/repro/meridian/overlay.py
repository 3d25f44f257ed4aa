"""Meridian overlay construction and the recursive closest-neighbour query.

The overlay is built from a delay matrix and a set of node indices that act
as Meridian nodes; the remaining indices are clients/targets.  Delay lookups
into the matrix stand in for the network measurements a real deployment
would perform; every such lookup made *during a query* is counted as an
on-demand probe so probing overhead can be compared across variants (the
paper quotes the TIV-aware mechanisms' extra probing as ~5–6 %).

Two hooks make the §4.3 and §5.3 variants expressible without subclassing:

* ``excluded_edges`` — edges that must not be used for ring membership
  (the naive TIV-severity filter strawman);
* ``membership_adjuster`` / ``restart_policy`` — the TIV-alert-driven ring
  adjustment and query-restart policies (see
  :mod:`repro.core.tiv_aware_meridian`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol, Sequence

import numpy as np

from repro.delayspace.matrix import DelayMatrix, edge_mask
from repro.errors import MeridianError
from repro.meridian.rings import MeridianConfig, RingStore
from repro.stats.rng import RngLike, ensure_rng
from repro.utils import is_integer

# A restart policy is consulted when the recursive query is about to
# terminate at ``current`` for ``target`` (measured delay ``d``).  It may
# return an alternative set of members of ``current`` to probe (the §5.3
# restart uses the predicted delay to pick them), or None to accept
# termination.
RestartPolicy = Callable[["MeridianOverlay", int, int, float], Optional[Sequence[int]]]


class MembershipAdjuster(Protocol):
    """The §5.3 double-placement hook of the overlay build.

    Given broadcast index arrays of ring owners and candidate members and
    the candidates' measured delays, it returns a second placement delay
    per candidate, ``nan`` where the member is placed by its measured
    delay alone.  The overlay asks once, for every candidate at once.
    """

    def placement_delays(
        self, owners: np.ndarray, members: np.ndarray, delays: np.ndarray
    ) -> np.ndarray: ...


@dataclass
class QueryResult:
    """Outcome of one closest-neighbour query.

    Attributes
    ----------
    target:
        The target node the client asked about.
    selected:
        The Meridian node returned as the closest neighbour.
    selected_delay:
        Measured delay between ``selected`` and ``target`` (ms).
    optimal:
        The true closest Meridian node to the target.
    optimal_delay:
        Its measured delay to the target (ms).
    probes:
        Number of on-demand delay measurements performed during the query.
    hops:
        The sequence of Meridian nodes the query visited.
    restarted:
        Whether a restart policy re-opened the search at least once.
    """

    target: int
    selected: int
    selected_delay: float
    optimal: int
    optimal_delay: float
    probes: int
    hops: list[int] = field(default_factory=list)
    restarted: bool = False

    @property
    def percentage_penalty(self) -> float:
        """Percentage penalty of the selection versus the optimal choice.

        Defined in §4.1 as ``(delay_to_selected - delay_to_optimal) * 100 /
        delay_to_optimal``.  Zero means the query found the true closest
        neighbour.
        """
        if self.optimal_delay <= 0:
            return 0.0 if self.selected == self.optimal else float("inf")
        return (self.selected_delay - self.optimal_delay) * 100.0 / self.optimal_delay

    @property
    def found_optimal(self) -> bool:
        """True when the query returned the true closest Meridian node."""
        return self.selected == self.optimal or self.selected_delay <= self.optimal_delay


class MeridianOverlay:
    """A Meridian overlay over a delay matrix.

    Parameters
    ----------
    matrix:
        The delay matrix standing in for the network.
    meridian_nodes:
        Indices of the nodes that participate as Meridian nodes.
    config:
        Ring and query parameters.
    rng:
        Seed or generator used for member sampling and random start nodes.
    full_membership:
        If True every Meridian node uses *all* other Meridian nodes as ring
        candidates (the idealised §3.2.2 setting).  Otherwise each node
        samples ``membership_sample_size`` candidates.
    membership_sample_size:
        Number of candidate members each node considers when
        ``full_membership`` is False.  Defaults to ``k * n_rings`` (enough
        to fill every ring).
    excluded_edges:
        Set of ``(i, j)`` pairs (in any order) that must not be used for
        ring membership — the §4.3 severity-filter strawman.
    membership_adjuster:
        Optional TIV-aware double-placement hook (§5.3 ring construction),
        a :class:`MembershipAdjuster`.

    Every node's rings live in one :class:`~repro.meridian.rings.RingStore`,
    filled by one whole-array placement pass (excluded edges, sampled or
    full membership and adjuster double placements included), and every
    query, alone or in a batch, advances in lock-step over it.  Rings,
    probes, hops and answers are checked bit for bit against a
    member-by-member oracle over dict rings in ``tests/meridian``.
    """

    def __init__(
        self,
        matrix: DelayMatrix,
        meridian_nodes: Sequence[int],
        config: MeridianConfig | None = None,
        *,
        rng: RngLike = None,
        full_membership: bool = False,
        membership_sample_size: Optional[int] = None,
        excluded_edges: Optional[Iterable[tuple[int, int]]] = None,
        membership_adjuster: MembershipAdjuster | None = None,
    ):
        self._matrix = matrix
        self._delays = matrix.values
        self._config = config if config is not None else MeridianConfig()
        self._rng = ensure_rng(rng)

        ids = [_node_id(i, "meridian node") for i in meridian_nodes]
        if len(ids) < 2:
            raise MeridianError("a Meridian overlay needs at least 2 Meridian nodes")
        if len(set(ids)) != len(ids):
            raise MeridianError("meridian_nodes contains duplicates")
        for i in ids:
            if not 0 <= i < matrix.n_nodes:
                raise MeridianError(f"meridian node {i} is not in the delay matrix")
        self._meridian_ids = ids
        self._meridian_set = set(ids)
        self._meridian_arr = np.asarray(ids, dtype=np.int64)

        self._build_store(
            full_membership, membership_sample_size, excluded_edges, membership_adjuster
        )

    # -- construction ---------------------------------------------------------

    def _build_store(
        self,
        full_membership: bool,
        sample_size: Optional[int],
        excluded_edges: Optional[Iterable[tuple[int, int]]],
        adjuster: MembershipAdjuster | None,
    ) -> None:
        """Every node's candidates placed in one pass.

        Candidates are drawn with one ``rng.choice`` per node, in node
        order, laid out as one row per node, filtered by one boolean edge
        mask and handed to :meth:`RingStore.place`.
        """
        config = self._config
        if sample_size is None:
            sample_size = config.k * config.n_rings
        ids = self._meridian_arr
        n_meridian = ids.size
        # Column c of row r is position c of the node list without node r.
        if full_membership or n_meridian - 1 <= sample_size:
            cols = np.arange(n_meridian - 1)
            positions = cols[None, :] + (cols[None, :] >= np.arange(n_meridian)[:, None])
        else:
            positions = np.empty((n_meridian, sample_size), dtype=np.int64)
            for row in range(n_meridian):
                chosen = self._rng.choice(n_meridian - 1, size=sample_size, replace=False)
                positions[row] = chosen + (chosen >= row)
        owners = ids[:, None]
        members = ids[positions]
        delays = self._delays[owners, members]
        usable = np.isfinite(delays)
        if excluded_edges:
            usable &= ~edge_mask(self._matrix.n_nodes, excluded_edges)[owners, members]
        extra = None
        if adjuster is not None:
            extra = np.asarray(adjuster.placement_delays(owners, members, delays), dtype=float)
        self._store = RingStore.place(config, members, delays, usable, extra)
        self._row_of = np.full(self._matrix.n_nodes, -1, dtype=np.int64)
        self._row_of[ids] = np.arange(n_meridian)
        # target -> (closest Meridian node, its delay), filled on first use.
        self._optimum: dict[int, tuple[int, float]] = {}

    # -- accessors ------------------------------------------------------------

    @property
    def matrix(self) -> DelayMatrix:
        """The delay matrix backing the overlay."""
        return self._matrix

    @property
    def config(self) -> MeridianConfig:
        """The overlay's configuration."""
        return self._config

    @property
    def meridian_ids(self) -> list[int]:
        """Indices of the Meridian nodes."""
        return list(self._meridian_ids)

    def members(self, node_id: int) -> list[int]:
        """Every distinct ring member of Meridian node ``node_id``, in insertion order."""
        if type(node_id) is not int:
            node_id = _node_id(node_id, "node")
        if node_id not in self._meridian_set:
            raise MeridianError(f"{node_id} is not a Meridian node")
        store, row = self._store, self._row_of[node_id]
        return list(dict.fromkeys(store.members[row, : store.counts[row]].tolist()))

    def true_closest(self, target: int) -> tuple[int, float]:
        """Ground-truth closest Meridian node to ``target`` and its delay.

        Raises :class:`MeridianError` for a target that is not an integer
        or lies outside the delay matrix (as the query methods do) and for
        one no Meridian node has a measured delay to.
        """
        if type(target) is not int:
            target = _node_id(target, "target")
        if not 0 <= target < self._matrix.n_nodes:
            raise MeridianError(f"target {target} is not in the delay matrix")
        return self._true_closest_all([target])[0]

    def _true_closest_all(self, targets: list[int]) -> list[tuple[int, float]]:
        """:meth:`true_closest` of many in-range targets, each computed once.

        The delays are read-only, so every target's answer is remembered
        from the first call that asks for it.  The targets not seen before
        are answered by one two-dimensional gather over the Meridian rows;
        argmin keeps the first minimum, so ties go to the Meridian node
        listed first.  A target no Meridian node has a delay to raises,
        naming the first such target of ``targets``, and then nothing of
        the batch is remembered.
        """
        optimum = self._optimum
        new = [target for target in dict.fromkeys(targets) if target not in optimum]
        if new:
            columns = np.asarray(new, dtype=np.int64)
            delays = self._delays[self._meridian_arr[:, None], columns[None, :]]
            valid = (self._meridian_arr[:, None] != columns[None, :]) & np.isfinite(delays)
            unreachable = ~valid.any(axis=0)
            if unreachable.any():
                target = new[int(np.argmax(unreachable))]
                raise MeridianError(f"no Meridian node has a measured delay to target {target}")
            positions = np.argmin(np.where(valid, delays, np.inf), axis=0)
            nodes = self._meridian_arr[positions].tolist()
            values = delays[positions, np.arange(len(new))].tolist()
            optimum.update(zip(new, zip(nodes, values)))
        return [optimum[target] for target in targets]

    # -- the recursive query ---------------------------------------------------

    def _measured(self, a: int, b: int) -> float:
        d = self._delays[a, b]
        return float(d) if np.isfinite(d) else np.inf

    def _alternates(self, alternates: Sequence[int], current: int, target: int) -> list[int]:
        """A restart policy's alternates other than ``current`` and ``target``, as ints.

        An alternate that is not an integer, or lies outside the delay
        matrix, raises before anything is probed: a numpy index would read
        -2 as node ``n - 2``, and 2.0 would be probed as node 2.
        """
        members = []
        for member in alternates:
            if type(member) is not int:
                member = _node_id(member, "restart alternate")
            if not 0 <= member < self._matrix.n_nodes:
                raise MeridianError(f"restart policy returned {member}, not in the delay matrix")
            if member != current and member != target:
                members.append(member)
        return members

    def closest_neighbor_query(
        self,
        target: int,
        *,
        start_node: Optional[int] = None,
        restart_policy: RestartPolicy | None = None,
        max_hops: int = 64,
    ) -> QueryResult:
        """Run one recursive closest-neighbour query for ``target``.

        Parameters
        ----------
        target:
            Index of the target node (usually a client, i.e. not a Meridian
            node, although Meridian targets are allowed).
        start_node:
            Meridian node that receives the request; a random one is chosen
            when omitted (as the paper's clients do).
        restart_policy:
            Optional §5.3 restart hook consulted when the query is about to
            terminate.
        max_hops:
            Safety bound on the number of forwarding steps.

        A target or start node that is not an integer (``bool`` and floats
        such as 3.0 included) raises :class:`MeridianError`, as does a
        target outside the delay matrix or a start that is not a Meridian
        node.
        """
        starts = None if start_node is None else [start_node]
        return self.closest_neighbor_query_batch(
            [target], start_nodes=starts, restart_policy=restart_policy, max_hops=max_hops
        )[0]

    def closest_neighbor_query_batch(
        self,
        targets: Sequence[int],
        *,
        start_nodes: Optional[Sequence[int]] = None,
        restart_policy: RestartPolicy | None = None,
        max_hops: int = 64,
    ) -> list[QueryResult]:
        """Run the recursive closest-neighbour query for a batch of targets.

        Queries do not interact: each result (selected node, probe counts,
        hops, restarts, tie-breaking) is the one its target gets alone, as
        a batch of one (:meth:`closest_neighbor_query`).  With
        ``start_nodes`` omitted, each target in order draws its random
        start with one ``rng.integers`` call.  Every live query advances in
        lock-step: each hop is one eligibility test over the ring store
        rows the queries sit at and one delay gather for all of them; only
        a restart policy, where consulted, runs per query.  Ids are refused
        as :meth:`closest_neighbor_query` documents, before the RNG is
        drawn or anything is probed.
        """
        targets = [t if type(t) is int else _node_id(t, "target") for t in targets]
        for target in targets:
            if not 0 <= target < self._matrix.n_nodes:
                raise MeridianError(f"target {target} is not in the delay matrix")
        if start_nodes is None:
            starts = [
                self._meridian_ids[int(self._rng.integers(0, len(self._meridian_ids)))]
                for _ in targets
            ]
        else:
            starts = [s if type(s) is int else _node_id(s, "start node") for s in start_nodes]
            if len(starts) != len(targets):
                raise MeridianError(
                    f"start_nodes has {len(starts)} entries for {len(targets)} targets"
                )
            for start in starts:
                if start not in self._meridian_set:
                    raise MeridianError(f"start node {start} is not a Meridian node")
        if not targets:
            return []
        return self._lockstep_queries(
            np.asarray(targets, dtype=np.int64),
            np.asarray(starts, dtype=np.int64),
            restart_policy,
            max_hops,
        )

    def _lockstep_queries(
        self,
        targets: np.ndarray,
        starts: np.ndarray,
        restart_policy: RestartPolicy | None,
        max_hops: int,
    ) -> list[QueryResult]:
        """The lock-step query loop behind both query methods."""
        config = self._config
        store = self._store
        n_nodes = self._matrix.n_nodes
        count = targets.size
        optimum = self._true_closest_all(targets.tolist())

        first = self._delays[starts, targets]
        current = starts.copy()
        current_delay = np.where(np.isfinite(first), first, np.inf)
        best_node = starts.copy()
        best_delay = current_delay.copy()
        probes = np.ones(count, dtype=np.int64)
        probed = np.zeros((count, n_nodes), dtype=bool)
        probed[np.arange(count), starts] = True
        hops = np.empty((count, max(max_hops, 0) + 1), dtype=np.int64)
        hops[:, 0] = starts
        n_hops = np.ones(count, dtype=np.int64)
        restarted = np.zeros(count, dtype=bool)
        # Probe order, kept only where the final "never answer the target
        # itself" fallback can fire: a target that is a Meridian node.
        probe_log = {
            int(q): [int(starts[q])] for q in np.flatnonzero(self._row_of[targets] >= 0)
        }

        live = np.arange(count)
        for _ in range(max_hops):
            if live.size == 0:
                break
            target = targets[live]
            delay = current_delay[live]
            rows = self._row_of[current[live]]
            # The eligible (query, slot) pairs, grouped by query, and one
            # delay gather for all of them.
            query, slot = np.nonzero(
                store.eligible(rows, (1.0 - config.beta) * delay, (1.0 + config.beta) * delay)
            )
            member = store.members[rows[query], slot]
            measured = self._delays[member, target[query]]
            value = np.where(np.isfinite(measured), measured, np.inf)
            is_target = member == target[query]
            value[is_target] = 0.0

            # The closest eligible member per query; ties go to the lowest
            # member id, the first of a hop's candidates in id order.
            has_candidates = np.bincount(query, minlength=live.size) > 0
            group_starts = np.searchsorted(query, np.flatnonzero(has_candidates))
            closest_delay = np.full(live.size, np.inf)
            closest_delay[has_candidates] = np.minimum.reduceat(value, group_starts)
            closest = np.full(live.size, n_nodes)
            tied = np.where(value == closest_delay[query], member, n_nodes)
            closest[has_candidates] = np.minimum.reduceat(tied, group_starts)

            # Count each member once per query, however many of its ring
            # placements were eligible, and never the target itself.
            fresh = ~is_target & ~probed[live[query], member]
            query, member = query[fresh], member[fresh]
            if store.repeats:
                query, member = np.divmod(np.unique(query * n_nodes + member), n_nodes)
            probes[live] += np.bincount(query, minlength=live.size)
            probed[live[query], member] = True
            if probe_log:
                for q in probe_log.keys() & set(live[query].tolist()):
                    probe_log[q].extend(np.unique(member[live[query] == q]).tolist())

            improved = has_candidates & (closest_delay < best_delay[live])
            best_node[live[improved]] = closest[improved]
            best_delay[live[improved]] = closest_delay[improved]
            if config.use_termination:
                advance = closest_delay <= config.beta * delay
            else:
                advance = closest_delay < delay
            advance &= has_candidates & (closest != current[live])
            next_node = np.where(advance, closest, -1)
            next_delay = closest_delay

            # A stalled query consults the restart policy and probes its
            # alternates, one query at a time.
            stalled = np.flatnonzero(~advance) if restart_policy is not None else []
            for position in stalled:
                q = int(live[position])
                node, goal = int(current[q]), int(targets[q])
                alternates = restart_policy(self, node, goal, float(current_delay[q]))
                if not alternates:
                    continue
                restarted[q] = True
                members = self._alternates(alternates, node, goal)
                # An unprobed member listed twice counts twice.
                fresh = [m for m in members if not probed[q, m]]
                probes[q] += len(fresh)
                probed[q, fresh] = True
                if q in probe_log:
                    probe_log[q].extend(dict.fromkeys(fresh))
                if not members:
                    continue
                values = {m: self._measured(m, goal) for m in members}
                closest_member = min(values, key=values.get)
                if values[closest_member] < best_delay[q]:
                    best_node[q], best_delay[q] = closest_member, values[closest_member]
                if values[closest_member] < current_delay[q] and closest_member != node:
                    if closest_member not in self._meridian_set:
                        raise MeridianError(
                            f"restart policy chose {closest_member}, not a Meridian node"
                        )
                    next_node[position] = closest_member
                    next_delay[position] = values[closest_member]

            moving = next_node >= 0
            live = live[moving]
            current[live] = next_node[moving]
            current_delay[live] = next_delay[moving]
            hops[live, n_hops[live]] = next_node[moving]
            n_hops[live] += 1

        columns = zip(
            targets.tolist(),
            best_node.tolist(),
            best_delay.tolist(),
            optimum,
            probes.tolist(),
            hops[:, : n_hops.max()].tolist(),
            n_hops.tolist(),
            restarted.tolist(),
        )
        results = []
        for q, (
            target, selected, selected_delay, (optimal, optimal_delay), probe_count,
            hop_row, hop_count, was_restarted,
        ) in enumerate(columns):
            others = [m for m in probe_log.get(q, ()) if m != target]
            if selected == target and others:
                # Never answer the target itself: the closest other probed
                # node, first probed on ties (min over the probe order).
                values = [self._measured(m, target) for m in others]
                position = values.index(min(values))
                selected, selected_delay = others[position], values[position]
            results.append(
                QueryResult(
                    target=target,
                    selected=selected,
                    selected_delay=selected_delay,
                    optimal=optimal,
                    optimal_delay=optimal_delay,
                    probes=probe_count,
                    hops=hop_row[:hop_count],
                    restarted=was_restarted,
                )
            )
        return results


def _node_id(node, role: str) -> int:
    """``node`` as a Python int; a :class:`MeridianError` unless it is an integer."""
    if not is_integer(node):
        raise MeridianError(f"{role} {node!r} is not an integer node id")
    return int(node)
