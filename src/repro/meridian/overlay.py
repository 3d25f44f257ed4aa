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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.delayspace.matrix import DelayMatrix, edge_mask
from repro.errors import MeridianError
from repro.meridian.node import MembershipAdjuster, MeridianNode
from repro.meridian.rings import MeridianConfig, RingStore, StoredRingSet
from repro.stats.rng import RngLike, ensure_rng

# A restart policy is consulted when the recursive query is about to
# terminate at ``current`` for ``target`` (measured delay ``d``).  It may
# return an alternative set of members of ``current`` to probe (the §5.3
# restart uses the predicted delay to pick them), or None to accept
# termination.
RestartPolicy = Callable[["MeridianOverlay", int, int, float], Optional[Sequence[int]]]


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
        Optional TIV-aware double-placement hook (§5.3 ring construction).

    Every node's rings live in one :class:`~repro.meridian.rings.RingStore`,
    filled by one whole-array placement pass (excluded edges, sampled or
    full membership and adjuster double placements included), and batches
    of queries advance in lock-step over it.  Rings, probes, hops and
    answers are checked bit for bit against a member-by-member oracle over
    dict rings in ``tests/meridian``.
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

        ids = [int(i) for i in meridian_nodes]
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

        self._nodes: dict[int, MeridianNode] = {}
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
            extra = _second_placements(adjuster, owners, members, delays, usable)
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

    def node(self, node_id: int) -> MeridianNode:
        """Return the :class:`MeridianNode` with the given id."""
        node = self._nodes.get(node_id)
        if node is not None:
            return node
        if node_id not in self._meridian_set:
            raise MeridianError(f"{node_id} is not a Meridian node")
        # Node objects are made on first access, as views of their row of
        # the ring store.
        rings = StoredRingSet(self._store, int(self._row_of[node_id]))
        node = self._nodes[node_id] = MeridianNode(node_id, self._config, rings)
        return node

    def ring_occupancy(self) -> dict[int, list[int]]:
        """Per-node ring occupancy counts (used to study under-population)."""
        return {nid: self.node(nid).rings.occupancy() for nid in self._meridian_ids}

    def true_closest(self, target: int) -> tuple[int, float]:
        """Ground-truth closest Meridian node to ``target`` and its delay.

        Raises :class:`MeridianError` for a target outside the delay matrix
        (as the query methods do) and for one no Meridian node has a
        measured delay to.
        """
        if not 0 <= target < self._matrix.n_nodes:
            raise MeridianError(f"target {target} is not in the delay matrix")
        return self._true_closest_all([target])[0]

    def _true_closest_all(self, targets: list[int]) -> list[tuple[int, float]]:
        """:meth:`true_closest` of many in-range targets, each computed once.

        The delays are read-only, so every target's answer is remembered
        from the first call that asks for it.  The targets not seen before
        are answered by one two-dimensional gather over the Meridian rows;
        argmin keeps the first minimum, matching the scalar loop's
        tie-breaking.  A target no Meridian node has a delay to raises,
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

    def _gather_candidate_delays(
        self, members: Sequence[int], target: int, probed_delay: dict[int, float]
    ) -> tuple[dict[int, float], int]:
        """Delays of ``members`` to ``target`` in member order.

        Already-probed members reuse their cached delay; the target itself
        (it may be a ring member of the hop) is reported at 0.0 without a
        probe, being trivially its own closest node.  New members are
        measured in one array gather, recorded in ``probed_delay``, and
        counted: the second return value is the number of on-demand probes
        this call performed.

        The returned mapping preserves ``members`` order, so ``min`` over it
        breaks ties toward the member listed first.
        """
        delays: dict[int, float] = {}
        new: list[int] = []
        for member in members:
            if member == target:
                # Cache the trivial self-delay too: if the query advances
                # to the target (a Meridian-node target appearing in a
                # hop's rings), the hop loop reads probed_delay[current]
                # and must find it rather than crash.
                delays[member] = 0.0
                probed_delay[member] = 0.0
            elif member in probed_delay:
                delays[member] = probed_delay[member]
            else:
                delays[member] = np.inf  # placeholder, overwritten below
                new.append(member)
        if new:
            measured = self._delays[np.asarray(new, dtype=np.int64), target]
            values = np.where(np.isfinite(measured), measured, np.inf).tolist()
            for member, value in zip(new, values):
                probed_delay[member] = value
                delays[member] = value
        return delays, len(new)

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
        """
        if not 0 <= target < self._matrix.n_nodes:
            raise MeridianError(f"target {target} is not in the delay matrix")
        if start_node is None:
            start_node = self._meridian_ids[int(self._rng.integers(0, len(self._meridian_ids)))]
        elif start_node not in self._meridian_set:
            raise MeridianError(f"start node {start_node} is not a Meridian node")

        config = self._config
        probes = 0
        hops = [start_node]
        restarted = False

        current = start_node
        current_delay = self._measured(current, target)
        probes += 1

        best_node, best_delay = current, current_delay
        probed_delay: dict[int, float] = {current: current_delay}

        for _ in range(max_hops):
            node = self.node(current)
            candidates = node.eligible_members(current_delay)
            candidate_delays, new_probes = self._gather_candidate_delays(
                candidates, target, probed_delay
            )
            probes += new_probes

            next_node: Optional[int] = None
            if candidate_delays:
                closest_member = min(candidate_delays, key=candidate_delays.get)
                closest_delay = candidate_delays[closest_member]
                if closest_delay < best_delay:
                    best_node, best_delay = closest_member, closest_delay
                if config.use_termination:
                    advance = closest_delay <= config.beta * current_delay
                else:
                    advance = closest_delay < current_delay
                if advance and closest_member != current:
                    next_node = closest_member

            if next_node is None and restart_policy is not None:
                alternates = restart_policy(self, current, target, current_delay)
                if alternates:
                    restarted = True
                    alt_delays, new_probes = self._gather_candidate_delays(
                        [m for m in alternates if m != current and m != target],
                        target,
                        probed_delay,
                    )
                    probes += new_probes
                    if alt_delays:
                        closest_member = min(alt_delays, key=alt_delays.get)
                        closest_delay = alt_delays[closest_member]
                        if closest_delay < best_delay:
                            best_node, best_delay = closest_member, closest_delay
                        if closest_delay < current_delay and closest_member != current:
                            next_node = closest_member

            if next_node is None:
                break
            current = next_node
            current_delay = probed_delay[current]
            hops.append(current)

        # The query answers with the closest node it actually probed.
        if best_node == target and len(probed_delay) > 1:
            # Never return the target itself as its own closest neighbour.
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

    # -- the multi-query batch search ------------------------------------------

    def closest_neighbor_query_batch(
        self,
        targets: Sequence[int],
        *,
        start_nodes: Optional[Sequence[int]] = None,
        restart_policy: RestartPolicy | None = None,
        max_hops: int = 64,
    ) -> list[QueryResult]:
        """Run the recursive closest-neighbour query for a batch of targets.

        Results (selected node, probe counts, hops, restarts, tie-breaking)
        are identical to calling :meth:`closest_neighbor_query` once per
        target in order with the same ``restart_policy``, including RNG
        consumption when ``start_nodes`` is omitted.  Every live query
        advances in lock-step: each hop is one eligibility test over the
        ring store rows the queries sit at and one delay gather for all of
        them; only a restart policy, where consulted, runs per query.
        """
        targets = [int(t) for t in targets]
        for target in targets:
            if not 0 <= target < self._matrix.n_nodes:
                raise MeridianError(f"target {target} is not in the delay matrix")
        if start_nodes is None:
            starts = [
                self._meridian_ids[int(self._rng.integers(0, len(self._meridian_ids)))]
                for _ in targets
            ]
        else:
            starts = [int(s) for s in start_nodes]
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
        """The lock-step query loop; mirrors :meth:`closest_neighbor_query`."""
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
            # member id, as min() over the sorted members_within list does.
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
            # alternates exactly as the scalar query does.
            stalled = np.flatnonzero(~advance) if restart_policy is not None else []
            for position in stalled:
                q = int(live[position])
                node, goal = int(current[q]), int(targets[q])
                alternates = restart_policy(self, node, goal, float(current_delay[q]))
                if not alternates:
                    continue
                restarted[q] = True
                members = [int(m) for m in alternates if m != node and m != goal]
                # A repeated unprobed member counts once per occurrence,
                # like the scalar gather.
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
                    if self._row_of[closest_member] < 0:
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


def _second_placements(
    adjuster: MembershipAdjuster,
    owners: np.ndarray,
    members: np.ndarray,
    delays: np.ndarray,
    usable: np.ndarray,
) -> np.ndarray:
    """The adjuster's second placement delay of every candidate (``nan``: none).

    An adjuster exposing ``placement_delays(owners, members, delays)``
    answers for the whole candidate array at once; any other callable is
    asked about each usable candidate, row by row in node order, as a
    member-by-member build would ask.
    """
    whole = getattr(adjuster, "placement_delays", None)
    if whole is not None:
        return np.asarray(whole(owners, members, delays), dtype=float)
    extra = np.full(delays.shape, np.nan)
    for row, col in zip(*np.nonzero(usable)):
        value = adjuster(int(owners[row, 0]), int(members[row, col]), float(delays[row, col]))
        if value is not None:
            extra[row, col] = value
    return extra
