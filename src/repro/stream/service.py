"""The long-lived streaming coordinate service.

:class:`StreamCoordinateService` owns all live state: the online Vivaldi
embedding (:class:`repro.coords.online.OnlineVivaldi`), the recently
observed RTT of every measured edge, and a rolling per-edge TIV-severity
estimate maintained incrementally from sampled witnesses.  Events flow in
through :meth:`apply` (or the typed ``join``/``leave``/``observe``
methods); queries — ``closest``, ``distance``, ``tiv_alert`` — are
answered from the live state at any point, which is exactly the paper's
setting: a distributed system making placement decisions from coordinates
*while* the measurements that shape them keep arriving.

The rolling severity estimate adapts the paper's §3.1 metric to the
stream: the offline severity of edge (A, C) averages, over all witnesses
B, the ratio ``d(A,C) / (d(A,B) + d(B,C))`` clipped below at 1 (non-
violating witnesses contribute 1).  Here each new observation of (A, C)
samples up to ``severity_witnesses`` witnesses with known RTTs to both
endpoints and folds their mean ratio into an EWMA — bounded work per
event, converging to the offline metric on a static matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.coords.online import MAX_RTT, OnlineVivaldi, OnlineVivaldiConfig
from repro.errors import StreamError
from repro.stats.rng import RngLike, ensure_rng
from repro.stream.events import Event, MeasurementEvent, NodeJoin, NodeLeave
from repro.utils import fits_int64, is_integer


@dataclass(frozen=True)
class DefenseConfig:
    """Parameters of the measurement-defense layer.

    The defense has two cooperating parts, modelled on what production
    coordinate systems ("Network Coordinates in the Wild") deploy against
    hostile or broken measurement feeds:

    * An **adaptive residual gate**: once the system is warm, a
      measurement whose relative residual (``|predicted - observed| /
      observed``) is a large multiple of the EWMA of recently *accepted*
      residuals is rejected before it can move the embedding.
    * A **reputation/quarantine ledger**: every gate decision updates the
      reporting node's suspicion EWMA (rejections charge it, acceptances
      decay it).  A node whose suspicion crosses ``quarantine_threshold``
      is quarantined — its reports are dropped outright — until probation
      samples (every ``probation_interval``-th report is re-gated) decay
      its suspicion below ``release_threshold``.  The ledger survives
      leave/rejoin, so a liar cannot launder its reputation by flapping.

    Attributes
    ----------
    warmup_observations:
        Accepted measurements before the gate arms (the embedding must
        localise before residuals mean anything).
    node_warmup_updates:
        Per-endpoint coordinate updates below which the gate is skipped
        for a measurement — fresh joiners legitimately produce huge
        residuals while re-localising.
    gate_multiplier:
        A measurement is rejected when its relative residual exceeds
        ``gate_multiplier * max(residual EWMA, gate_floor)``.
    gate_floor:
        Lower bound of the adaptive threshold base, so a near-perfect
        embedding does not start rejecting ordinary noise.
    residual_alpha:
        EWMA weight of each accepted residual.
    suspicion_alpha:
        EWMA weight of each gate decision in the reporter's suspicion.
    quarantine_threshold / release_threshold:
        Hysteresis bounds: suspicion above the first quarantines the
        node, decay below the second releases it.
    probation_interval:
        While quarantined, every N-th report is re-gated instead of
        dropped, giving a falsely accused node a path back in.
    drop_late_events:
        Accept out-of-order streams instead of raising — the survival
        posture for clock-skewed feeds.  A measurement that arrives
        behind the service clock is dropped (counted, never applied); a
        late join or leave still applies, because dropping it would break
        every later event on that node, and the clock does not move back.
    """

    warmup_observations: int = 256
    node_warmup_updates: int = 16
    gate_multiplier: float = 4.0
    gate_floor: float = 0.1
    residual_alpha: float = 0.05
    suspicion_alpha: float = 0.1
    quarantine_threshold: float = 0.6
    release_threshold: float = 0.25
    probation_interval: int = 8
    drop_late_events: bool = True

    def __post_init__(self) -> None:
        if self.warmup_observations < 0:
            raise StreamError("warmup_observations must be >= 0")
        if self.node_warmup_updates < 0:
            raise StreamError("node_warmup_updates must be >= 0")
        if self.gate_multiplier <= 1:
            raise StreamError("gate_multiplier must be > 1")
        if self.gate_floor <= 0:
            raise StreamError("gate_floor must be > 0")
        if not 0 < self.residual_alpha <= 1:
            raise StreamError("residual_alpha must lie in (0, 1]")
        if not 0 < self.suspicion_alpha <= 1:
            raise StreamError("suspicion_alpha must lie in (0, 1]")
        if not 0 < self.release_threshold < self.quarantine_threshold < 1:
            raise StreamError(
                "thresholds must satisfy 0 < release < quarantine < 1"
            )
        if self.probation_interval < 1:
            raise StreamError("probation_interval must be >= 1")


@dataclass(frozen=True)
class StreamServiceConfig:
    """Parameters of the streaming service.

    Attributes
    ----------
    online:
        Parameters of the online Vivaldi embedding.
    alert_threshold:
        A :meth:`StreamCoordinateService.tiv_alert` query alerts when the
        predicted/observed delay ratio of the edge falls below this (the
        coordinate system "shrunk" the edge, the TIV shortcut signature
        the paper's alert mechanism keys on).
    severity_witnesses:
        Witnesses sampled per observation for the rolling severity
        estimate (bounds per-event work).
    severity_alpha:
        EWMA weight of a new severity sample against the running
        estimate.
    defense:
        Optional measurement-defense layer (``None`` — the default —
        trusts every event, preserving the pre-defense trajectories the
        golden stream snapshots pin).
    """

    online: OnlineVivaldiConfig = field(default_factory=OnlineVivaldiConfig)
    alert_threshold: float = 0.5
    severity_witnesses: int = 8
    severity_alpha: float = 0.3
    defense: DefenseConfig | None = None

    def __post_init__(self) -> None:
        if not 0 < self.alert_threshold < 1:
            raise StreamError("alert_threshold must lie in (0, 1)")
        if self.severity_witnesses < 1:
            raise StreamError("severity_witnesses must be >= 1")
        if not 0 < self.severity_alpha <= 1:
            raise StreamError("severity_alpha must lie in (0, 1]")

    def as_dict(self) -> dict:
        """JSON-safe form, round-tripped by :meth:`from_dict`."""
        payload = asdict(self)
        payload["defense"] = asdict(self.defense) if self.defense is not None else None
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamServiceConfig":
        payload = dict(payload)
        online = OnlineVivaldiConfig(**payload.pop("online"))
        defense = payload.pop("defense", None)
        if defense is not None:
            defense = DefenseConfig(**defense)
        return cls(online=online, defense=defense, **payload)


def _edge(a: int, b: int) -> tuple[int, int]:
    """The edge-table key of ``(a, b)``; :func:`_node_id` refuses an id that is not an int."""
    if type(a) is not int or type(b) is not int:
        a, b = _node_id(a), _node_id(b)
    return (a, b) if a <= b else (b, a)


def _node_id(node) -> int:
    """``node`` as a Python int; a :class:`StreamError` unless it is an integer."""
    if not is_integer(node):
        raise StreamError(f"node id {node!r} is not an integer")
    return int(node)


#: Rows the edge table holds before it first grows (it doubles when full).
_MIN_ROWS = 256

#: Edge ids spanning fewer values than this order by one packed int64 key.
_PACKED_SPAN = 2**31

#: The largest severity estimate the service holds.
_MAX_FLOAT = sys.float_info.max


def _pair_order(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The order a lexsort on (a, b) gives unique id pairs with a < b.

    One argsort of the packed key ``(a - lo) * span + (b - lo)`` over the
    ids' range orders them the same way; ids spanning 2**31 values or
    more, whose key could overflow int64, take the lexsort.
    """
    if not a.size:
        return np.empty(0, dtype=np.intp)
    lo = int(a.min())
    span = int(b.max()) - lo + 1
    if span < _PACKED_SPAN:
        return np.argsort((a - lo) * span + (b - lo))
    return np.lexsort((b, a))


def _empty_columns(capacity: int) -> tuple[np.ndarray, ...]:
    """Edge-table columns of ``capacity`` rows: a, b, RTT, observed-at, severity, live.

    Severity starts NaN, the mark of a row without an estimate, and every
    row starts free.
    """
    return (
        np.empty(capacity, dtype=np.int64),
        np.empty(capacity, dtype=np.int64),
        np.empty(capacity),
        np.empty(capacity),
        np.full(capacity, math.nan),
        np.zeros(capacity, dtype=bool),
    )


class StreamCoordinateService:
    """Event-driven coordinate service over a churning population."""

    def __init__(
        self,
        config: StreamServiceConfig | None = None,
        *,
        rng: RngLike = None,
    ):
        self._config = config if config is not None else StreamServiceConfig()
        rng = ensure_rng(rng)
        self._embedding = OnlineVivaldi(self._config.online, rng=rng)
        self._rng = rng
        # Live measurement memory, the edge table: each remembered
        # undirected edge (a, b), a < b, owns one row of six numpy
        # columns (both ids, the last RTT, when it was observed, the
        # rolling severity, NaN until the edge's first witness sample, and
        # whether the row holds an edge at all, written only where a row
        # is taken or freed).  ``_row_of`` finds an edge's row;
        # ``_free_rows`` stacks the rows that hold no edge, those leave()
        # freed and those the table has not used yet.  Single values go
        # through memoryviews of the columns (a numpy scalar store costs
        # twice as much); checkpoints and batch reads gather whole
        # columns.  Per active node, ``_peer_rtt`` maps each measured peer
        # to that edge's RTT, so the severity update reads witness RTTs
        # without building edge keys.
        self._row_of: dict[tuple[int, int], int] = {}
        self._set_columns(*_empty_columns(_MIN_ROWS))
        self._free_rows = list(range(_MIN_ROWS - 1, -1, -1))
        self._peer_rtt: dict[int, dict[int, float]] = {}
        self._clock = 0.0
        self._events = 0
        self._dropped = 0
        # Defense state (inert while config.defense is None).  The
        # suspicion ledger is keyed by node id and deliberately survives
        # leave/rejoin — reputation cannot be laundered by flapping.
        self._residual_ewma: float | None = None
        self._gate_accepted = 0
        self._rejected = 0
        self._quarantine_drops = 0
        self._late_dropped = 0
        self._suspicion: dict[int, float] = {}
        self._quarantined: set[int] = set()
        self._probation: dict[int, int] = {}
        self._ever_quarantined: set[int] = set()

    # -- state accessors ------------------------------------------------------

    @property
    def config(self) -> StreamServiceConfig:
        return self._config

    @property
    def embedding(self) -> OnlineVivaldi:
        """The live online-Vivaldi embedding (shared state, not a copy)."""
        return self._embedding

    @property
    def clock(self) -> float:
        """Timestamp of the latest applied event."""
        return self._clock

    @property
    def n_events(self) -> int:
        """Total events applied."""
        return self._events

    @property
    def n_active(self) -> int:
        return self._embedding.n_active

    @property
    def n_observed_edges(self) -> int:
        """Edges with a remembered RTT observation."""
        return len(self._row_of)

    @property
    def dropped_measurements(self) -> int:
        """Measurements discarded for an unusable RTT (non-finite or <= 0).

        The embedding never moves on such a measurement and the edge is
        never recorded — but silently ignoring them hides a broken
        measurement feed, so the service counts every drop.
        """
        return self._dropped

    @property
    def rejected_measurements(self) -> int:
        """Measurements refused by the defense (gate + quarantine drops)."""
        return self._rejected + self._quarantine_drops

    @property
    def late_dropped_events(self) -> int:
        """Out-of-order events dropped under ``defense.drop_late_events``."""
        return self._late_dropped

    def quarantined_nodes(self) -> list[int]:
        """Currently quarantined node ids, sorted."""
        return sorted(self._quarantined)

    def suspicion_of(self, node: int) -> float:
        """Current suspicion EWMA of ``node`` (0 if never charged).

        Ids are refused as in :meth:`join` (3.0 and True would find nodes 3
        and 1).
        """
        if type(node) is not int:
            node = _node_id(node)
        return self._suspicion.get(node, 0.0)

    def defense_stats(self) -> dict:
        """Summary of the defense ledger (all-zero when defense is off)."""
        return {
            "gate_rejected": self._rejected,
            "quarantine_drops": self._quarantine_drops,
            "late_dropped_events": self._late_dropped,
            "rejected_measurements": self.rejected_measurements,
            "quarantined_nodes": len(self._quarantined),
            "ever_quarantined_nodes": len(self._ever_quarantined),
            "quarantined": sorted(self._quarantined),
            "ever_quarantined": sorted(self._ever_quarantined),
            "residual_ewma": self._residual_ewma,
        }

    def active_nodes(self) -> list[int]:
        return self._embedding.active_nodes()

    def observed_edges(self) -> list[tuple[int, int]]:
        """Undirected edges with a remembered RTT observation, sorted.

        The edges are the edge map's own key tuples, put in order by their
        rows' ids: a new tuple per edge would cost a caller that keeps the
        list about 120 bytes an edge.
        """
        edges = list(self._row_of)
        rows = np.fromiter(self._row_of.values(), dtype=np.intp, count=len(edges))
        return [edges[i] for i in _pair_order(self._a[rows], self._b[rows]).tolist()]

    # -- the edge table ---------------------------------------------------------

    def _set_columns(self, a, b, rtt, seen, severity, live) -> None:
        self._a, self._b, self._rtt, self._seen = a, b, rtt, seen
        self._severity, self._live = severity, live
        self._a_cells, self._b_cells, self._rtt_cells, self._seen_cells = (
            memoryview(a), memoryview(b), memoryview(rtt), memoryview(seen)
        )
        self._severity_cells, self._live_cells = memoryview(severity), memoryview(live)

    def _grow_rows(self) -> int:
        """Double the full edge table and return the first new row.

        The other new rows go on the (empty) free stack, lowest on top.
        """
        used = self._a.size
        columns = _empty_columns(2 * used)
        for column, old in zip(
            columns, (self._a, self._b, self._rtt, self._seen, self._severity, self._live)
        ):
            column[:used] = old
        self._set_columns(*columns)
        self._free_rows = list(range(2 * used - 1, used, -1))
        return used

    def _live_rows(self) -> np.ndarray:
        """The rows that hold an edge, ordered by id pair."""
        rows = np.flatnonzero(self._live)
        return rows[_pair_order(self._a[rows], self._b[rows])]

    def _severity_at(self, row: int) -> float | None:
        value = self._severity_cells[row]
        return None if value != value else value

    # -- event ingestion ------------------------------------------------------

    def apply(self, event: Event) -> None:
        """Apply one trace event to the live state."""
        if isinstance(event, MeasurementEvent):
            self.observe(event.src, event.dst, event.rtt, event.t)
        elif isinstance(event, NodeJoin):
            self.join(event.node, event.t)
        elif isinstance(event, NodeLeave):
            self.leave(event.node, event.t)
        else:
            raise StreamError(f"unknown stream event {event!r}")

    def _advance(self, t: float) -> None:
        if t < self._clock:
            defense = self._config.defense
            if defense is None or not defense.drop_late_events:
                raise StreamError(
                    f"event at t={t} arrived after the clock reached {self._clock}; "
                    "traces must be time-ordered"
                )
        else:
            self._clock = float(t)
        self._events += 1

    def join(self, node: int, t: float = 0.0) -> None:
        """Node joined: allocate live state (fresh coordinate, no memory).

        A node id that is not an integer, or lies outside int64 (the id
        columns' type), is refused before the clock or the event counter
        moves; a numpy integer joins as the equal int.
        """
        if type(node) is not int:
            node = _node_id(node)
        if not fits_int64(node):
            raise StreamError(f"node id {node} lies outside int64")
        self._advance(t)
        if self._embedding.is_active(node):
            raise StreamError(f"node {node} joined twice without leaving")
        self._embedding.join(node, t)
        self._peer_rtt.setdefault(node, {})

    def leave(self, node: int, t: float = 0.0) -> None:
        """Node left: drop its coordinate and every edge observation on it.

        Dropping the edges keeps the memory bounded by the *live* edge
        set and prevents a returning node from inheriting stale evidence
        recorded before it went away.  Ids are refused as in :meth:`join`
        (3.0 and True would find nodes 3 and 1).
        """
        if type(node) is not int:
            node = _node_id(node)
        self._advance(t)
        if not self._embedding.is_active(node):
            raise StreamError(f"node {node} left while not active")
        self._embedding.leave(node)
        peer_rtt, row_of, free = self._peer_rtt, self._row_of, self._free_rows
        severity, live = self._severity_cells, self._live_cells
        for peer in peer_rtt.pop(node, {}):
            row = row_of.pop((node, peer) if node <= peer else (peer, node))
            severity[row] = math.nan  # the next edge in this row starts unestimated
            live[row] = False
            free.append(row)
            peer_rtt[peer].pop(node, None)

    def observe(self, src: int, dst: int, rtt: float, t: float = 0.0) -> None:
        """Apply one measurement: update coordinates, memory and severity.

        With a defense configured, the measurement first passes the
        quarantine check and the adaptive residual gate; a rejected
        measurement still advances the clock and the event counter (so
        WAL replay stays aligned) but never touches the embedding or the
        edge memory.  A self-measurement (``src == dst``) and a node id
        that is not an integer, as :meth:`join` requires, are refused
        before they touch any state.
        """
        if type(src) is not int or type(dst) is not int:
            # numpy integers pass as the equal Python ints, as in join().  A
            # float such as 3.0 finds node 3 by equality but cannot be
            # written to an id column.
            src, dst = _node_id(src), _node_id(dst)
        if src == dst:
            raise StreamError(f"measurement {src}->{dst} is a self-measurement")
        defense = self._config.defense
        if (
            defense is not None
            and defense.drop_late_events
            and t < self._clock
        ):
            # Clock-skewed arrival: drop rather than raise, but keep the
            # event counter moving so recovery replays stay aligned.
            self._events += 1
            self._late_dropped += 1
            return
        self._advance(t)
        if not self._embedding.is_active(src) or not self._embedding.is_active(dst):
            missing = src if not self._embedding.is_active(src) else dst
            raise StreamError(
                f"measurement {src}->{dst} references inactive node {missing}"
            )
        if defense is not None and not self._admit(defense, src, dst, rtt):
            return
        self._embedding.observe(src, dst, rtt, t)
        if not 0.0 < rtt <= MAX_RTT:
            # The embedding no-oped on this RTT (not a number, not
            # positive, or too large to embed) and the edge would carry
            # unusable evidence — count the drop instead of hiding it.
            self._dropped += 1
            return
        rtt = float(rtt)
        edge = (src, dst) if src <= dst else (dst, src)
        row = self._row_of.get(edge)
        if row is None:
            free = self._free_rows
            row = free.pop() if free else self._grow_rows()
            self._row_of[edge] = row
            self._a_cells[row], self._b_cells[row] = edge
            self._live_cells[row] = True
        self._rtt_cells[row] = rtt
        self._seen_cells[row] = t
        peer_rtt = self._peer_rtt
        peer_rtt[src][dst] = rtt
        peer_rtt[dst][src] = rtt
        self._update_severity(src, dst, row, rtt)

    # -- the measurement defense ----------------------------------------------

    def _admit(self, defense: DefenseConfig, src: int, dst: int, rtt: float) -> bool:
        """Quarantine check + adaptive residual gate for one measurement."""
        if src in self._quarantined:
            self._probation[src] = self._probation.get(src, 0) + 1
            if self._probation[src] % defense.probation_interval:
                self._quarantine_drops += 1
                return False
            # Probation sample: falls through to the gate below; an
            # acceptance decays suspicion toward release.
        if not 0.0 < rtt <= MAX_RTT:
            return True  # the unusable-RTT drop path counts these itself
        gate_armed = (
            self._gate_accepted >= defense.warmup_observations
            and self._embedding.update_count_of(src) >= defense.node_warmup_updates
            and self._embedding.update_count_of(dst) >= defense.node_warmup_updates
        )
        if not gate_armed:
            # Warmup traffic is admitted untested and (unlike post-warmup
            # skips) does not feed the residual EWMA: fresh-node residuals
            # are legitimately enormous and would inflate the threshold.
            self._gate_accepted += 1
            return True
        predicted = self._embedding.distance(src, dst)
        # Normalise by the *smaller* of prediction and report (floored at
        # 1 ms): dividing by the reported RTT alone would cap an inflated
        # lie at a relative residual of (k-1)/k no matter how large the
        # inflation factor k is, hiding arbitrarily big lies just above
        # the gate threshold.
        residual = abs(predicted - rtt) / max(min(predicted, rtt), 1.0)
        base = self._residual_ewma if self._residual_ewma is not None else defense.gate_floor
        threshold = defense.gate_multiplier * max(base, defense.gate_floor)
        if residual > threshold:
            self._rejected += 1
            # Attribute the rejection to *both* endpoints unless one is
            # already quarantined and thus explains it alone.  Charging the
            # probed endpoint matters: a liar whose inflated self-reports
            # were embedded during warmup looks self-consistent on its own
            # edges, and the honest probes *toward* its bogus coordinate
            # are where the disagreement (and hence the charge) surfaces.
            # Innocent nodes shed their occasional liar-adjacent charges
            # through absolution on their accepted traffic.
            if src in self._quarantined:
                self._charge(defense, src)
            elif dst in self._quarantined:
                pass  # the known-bad endpoint already explains the miss
            else:
                self._charge(defense, src)
                self._charge(defense, dst)
            return False
        self._gate_accepted += 1
        if self._residual_ewma is None:
            self._residual_ewma = residual
        else:
            self._residual_ewma = (
                defense.residual_alpha * residual
                + (1.0 - defense.residual_alpha) * self._residual_ewma
            )
        self._absolve(defense, src)
        self._absolve(defense, dst)
        return True

    def _charge(self, defense: DefenseConfig, node: int) -> None:
        alpha = defense.suspicion_alpha
        suspicion = alpha + (1.0 - alpha) * self._suspicion.get(node, 0.0)
        self._suspicion[node] = suspicion
        if suspicion > defense.quarantine_threshold and node not in self._quarantined:
            self._quarantined.add(node)
            self._ever_quarantined.add(node)
            self._probation[node] = 0

    def _absolve(self, defense: DefenseConfig, node: int) -> None:
        suspicion = (1.0 - defense.suspicion_alpha) * self._suspicion.get(node, 0.0)
        self._suspicion[node] = suspicion
        if node in self._quarantined and suspicion < defense.release_threshold:
            self._quarantined.discard(node)
            self._probation.pop(node, None)

    def _update_severity(self, src: int, dst: int, row: int, rtt: float) -> None:
        """Fold one witness sample into the rolling severity of the edge in ``row``.

        Witnesses are the common peers of ``src`` and ``dst`` (never the
        endpoints themselves: there are no self-edges), visited in sorted
        order.  A map's iteration order depends on its insertion history,
        which a restored service does not share, so summing in map order
        would let a checkpoint round trip move the estimate by an ulp.
        """
        near_src = self._peer_rtt[src]
        near_dst = self._peer_rtt[dst]
        witnesses = sorted(near_src.keys() & near_dst.keys())
        if not witnesses:
            return
        k = self._config.severity_witnesses
        if len(witnesses) > k:
            chosen = self._rng.choice(len(witnesses), size=k, replace=False)
            witnesses = [witnesses[index] for index in chosen.tolist()]
        # Every witness is a peer of both endpoints, so both maps hold the
        # positive RTT of its edge to that endpoint.
        total = 0.0
        for witness in witnesses:
            # The paper's severity ratio: >1 iff the witness offers a
            # faster two-hop detour than the direct edge (a TIV).
            ratio = rtt / (near_src[witness] + near_dst[witness])
            total += ratio if ratio > 1.0 else 1.0
        sample = total / len(witnesses)
        severity = self._severity_cells
        previous = severity[row]
        if previous != previous:  # NaN: the edge's first sample
            estimate = sample
        else:
            alpha = self._config.severity_alpha
            estimate = alpha * sample + (1 - alpha) * previous
        # A ratio past the float range (a 1e300 ms RTT over a 1e-300 ms
        # detour) saturates instead of turning the estimate infinite,
        # which from_state refuses.
        severity[row] = estimate if estimate < _MAX_FLOAT else _MAX_FLOAT

    # -- live queries ---------------------------------------------------------
    # Each refuses a node id that is not an integer, as observe() does: 3.0
    # and True would find nodes 3 and 1 by equality.  The embedding reads
    # raise EmbeddingError, as they do for an inactive node; the edge-table
    # reads raise StreamError.

    def distance(self, a: int, b: int) -> float:
        """Predicted delay between two active nodes, from the live embedding."""
        return self._embedding.distance(a, b)

    def closest(self, node: int, k: int = 1) -> list[tuple[int, float]]:
        """The ``k`` active nodes predicted closest to ``node``."""
        return self._embedding.closest(node, k)

    def closest_batch(self, nodes, k: int = 1) -> list[list[tuple[int, float]]]:
        """Batch :meth:`closest` over the live embedding (one vector op)."""
        return self._embedding.closest_batch(nodes, k)

    def distance_batch(self, pairs):
        """Predicted delays for a batch of ``(a, b)`` pairs (one vector op)."""
        return self._embedding.distance_batch(pairs)

    def tiv_alert_batch(self, edges) -> list[dict]:
        """The :meth:`tiv_alert` verdict of each ``(a, b)`` edge; one distance op answers all.

        A node id that is not an integer and an edge without an observed
        measurement raise, as in :meth:`tiv_alert`.
        """
        row_of = self._row_of
        keyed, rows = [], []
        for a, b in edges:
            if type(a) is not int or type(b) is not int:
                a, b = _node_id(a), _node_id(b)
            edge = (a, b) if a <= b else (b, a)
            row = row_of.get(edge)
            if row is None:
                raise StreamError(
                    f"no observed measurement for edge {edge}; cannot evaluate a TIV alert"
                )
            keyed.append(edge)
            rows.append(row)
        rows = np.array(rows, dtype=np.intp)
        rtts = self._rtt[rows].tolist()
        seen = self._seen[rows].tolist()
        severities = self._severity[rows].tolist()
        predicted = self._embedding.distance_batch(keyed).tolist()
        threshold = self._config.alert_threshold
        clock = self._clock
        verdicts = []
        for edge, rtt, observed_at, severity, pred in zip(
            keyed, rtts, seen, severities, predicted
        ):
            ratio = pred / rtt if rtt > 0 else float("nan")
            verdicts.append(
                {
                    "edge": edge,
                    "predicted": pred,
                    "observed": rtt,
                    "ratio": ratio,
                    "alerted": bool(ratio < threshold),
                    "severity_estimate": None if severity != severity else severity,
                    "observation_age": clock - observed_at,
                }
            )
        return verdicts

    def observed_rtt_batch(self, edges) -> np.ndarray:
        """Last observed RTT of each ``(a, b)`` edge, ``nan`` where none is remembered.

        Only finite, positive RTTs are ever remembered (:meth:`observe`
        drops the rest), so ``nan`` marks exactly the edges a
        :meth:`tiv_alert` query refuses.
        """
        get = self._row_of.get
        rows = np.fromiter((get(_edge(a, b), -1) for a, b in edges), dtype=np.intp)
        observed = self._rtt[rows]
        observed[rows < 0] = math.nan
        return observed

    def severity_estimate(self, a: int, b: int) -> float | None:
        """Rolling TIV-severity estimate of edge (a, b), if any evidence."""
        row = self._row_of.get(_edge(a, b))
        return None if row is None else self._severity_at(row)

    def worst_edges(self, count: int = 10) -> list[tuple[tuple[int, int], float]]:
        """The ``count`` edges with the highest rolling severity estimate.

        Ties rank by id pair, ascending.  A count that is not a
        non-negative integer raises :class:`StreamError`.
        """
        if not is_integer(count) or count < 0:
            raise StreamError(f"worst_edges count {count!r} is not a non-negative integer")
        rows = self._live_rows()
        severity = self._severity[rows]
        estimated = ~np.isnan(severity)
        rows, severity = rows[estimated], severity[estimated]
        # The rows are in id-pair order, so a stable sort keeps it for ties.
        top = np.argsort(-severity, kind="stable")[:count]
        rows = rows[top]
        return [
            ((a, b), value)
            for a, b, value in zip(
                self._a[rows].tolist(), self._b[rows].tolist(), severity[top].tolist()
            )
        ]

    def tiv_alert(self, a: int, b: int) -> dict:
        """TIV-alert query for edge (a, b) against the live state.

        Returns the predicted/observed ratio (the paper's alert signal:
        a ratio far below 1 means the embedding shrunk the edge, the
        signature of a TIV-inflated measurement), whether it crosses the
        alert threshold, the rolling severity estimate and the age of the
        supporting observation.  A node id that is not an integer
        (``bool`` and floats such as 3.0 included) and an edge without an
        observed measurement raise :class:`StreamError`.  This is
        :meth:`tiv_alert_batch` on a batch of one.
        """
        return self.tiv_alert_batch([(a, b)])[0]

    def staleness(self) -> dict[str, float]:
        """Summary of per-node coordinate staleness at the current clock."""
        ages = self._embedding.staleness(self._clock)
        if not ages:
            return {"nodes": 0.0, "mean": float("nan"), "max": float("nan")}
        values = list(ages.values())
        return {
            "nodes": float(len(values)),
            "mean": float(sum(values) / len(values)),
            "max": float(max(values)),
        }

    # -- durable state ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything future behaviour depends on, as arrays plus JSON-safe values.

        Captures the embedding's full-capacity state, the edge memory and
        severity EWMAs, the defense ledger and the *shared* RNG stream
        (the service and its embedding draw from one generator, so its
        bit-generator state appears here exactly once).  The edge memory
        is four arrays with rows sorted by id pair, so equal states give
        equal arrays: ``edge_ids`` (E x 2 int64) with ``edge_obs`` (E x 2
        float64: the RTT and the time it was observed), and
        ``severity_ids`` (S x 2 int64) with ``severity`` (S float64), the
        edges that hold an estimate.  They are gathered from the edge
        table's columns, with no per-edge Python work: the rows marked
        live, put in order by one argsort of a packed id-pair key (one
        lexsort where the live ids span 2**31 values or more; both give
        the same order, so the arrays do not depend on which ran).  Row
        numbers and free rows are not stored, and neither are the per-node
        RTT maps: those are exactly the adjacency of the edge table over
        the active nodes, which :meth:`from_state` rebuilds.  Restoring via
        :meth:`from_state` and continuing a replay is bit-identical to
        never having stopped — the guarantee
        :func:`repro.stream.durability.recover` and the recovery property
        tests pin.
        """
        rows = self._live_rows()
        edge_ids = np.empty((rows.size, 2), dtype=np.int64)
        edge_ids[:, 0] = self._a[rows]
        edge_ids[:, 1] = self._b[rows]
        edge_obs = np.empty((rows.size, 2))
        edge_obs[:, 0] = self._rtt[rows]
        edge_obs[:, 1] = self._seen[rows]
        severity = self._severity[rows]
        estimated = ~np.isnan(severity)
        return {
            "config": self._config.as_dict(),
            "embedding": self._embedding.state_dict(),
            "rng_state": self._rng.bit_generator.state,
            "edge_ids": edge_ids,
            "edge_obs": edge_obs,
            "severity_ids": edge_ids[estimated],
            "severity": severity[estimated],
            "clock": float(self._clock),
            "events": int(self._events),
            "dropped": int(self._dropped),
            "residual_ewma": self._residual_ewma,
            "gate_accepted": int(self._gate_accepted),
            "rejected": int(self._rejected),
            "quarantine_drops": int(self._quarantine_drops),
            "late_dropped": int(self._late_dropped),
            "suspicion": {int(node): float(s) for node, s in self._suspicion.items()},
            "quarantined": sorted(self._quarantined),
            "probation": {int(node): int(c) for node, c in self._probation.items()},
            "ever_quarantined": sorted(self._ever_quarantined),
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamCoordinateService":
        """Rebuild a service whose behaviour bit-matches the captured one.

        The checkpoint's edge arrays become rows 0..E-1 of the edge table,
        in the order they come.  A :class:`StreamError` naming the edge
        refuses an edge that is not an ordered pair of distinct active
        nodes or comes twice, a severity row whose edge is not in the
        edge table, and a non-finite severity.
        """
        config = StreamServiceConfig.from_dict(state["config"])
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
        service = cls(config, rng=rng)
        service._embedding = OnlineVivaldi.from_state(
            state["embedding"], config.online, rng=rng
        )
        service._adopt_edges(
            state["edge_ids"], state["edge_obs"], state["severity_ids"], state["severity"]
        )
        service._clock = float(state["clock"])
        service._events = int(state["events"])
        service._dropped = int(state["dropped"])
        ewma = state["residual_ewma"]
        service._residual_ewma = float(ewma) if ewma is not None else None
        service._gate_accepted = int(state["gate_accepted"])
        service._rejected = int(state["rejected"])
        service._quarantine_drops = int(state["quarantine_drops"])
        service._late_dropped = int(state["late_dropped"])
        service._suspicion = {
            int(node): float(s) for node, s in state["suspicion"].items()
        }
        service._quarantined = {int(node) for node in state["quarantined"]}
        service._probation = {
            int(node): int(c) for node, c in state["probation"].items()
        }
        service._ever_quarantined = {int(node) for node in state["ever_quarantined"]}
        return service

    def __reduce__(self):
        # copy.copy, copy.deepcopy and pickle go through the checkpoint
        # state: the memoryviews over the edge-table columns cannot be
        # copied, and from_state rebuilds a service that continues
        # bit-identically.
        return (type(self).from_state, (self.state_dict(),))

    def _adopt_edges(self, edge_ids, edge_obs, severity_ids, severity) -> None:
        """Make a checkpoint's edge arrays rows 0..E-1 of this empty edge table.

        Derives the per-node RTT maps as the table's adjacency.  A stored
        NaN or infinite severity is refused: NaN marks a row without an
        estimate, so it could not be told from a missing one.
        """
        ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1, 2)
        obs = np.asarray(edge_obs, dtype=float).reshape(-1, 2)
        n = len(ids)
        if len(obs) != n:
            raise StreamError(f"the edge table has {n} ids but {len(obs)} observations")
        a, b = ids[:, 0], ids[:, 1]
        active = self._embedding.active_nodes()
        bad = (a >= b) | ~np.isin(a, active) | ~np.isin(b, active)
        if bad.any():
            i = int(bad.argmax())
            raise StreamError(
                f"edge ({a[i]}, {b[i]}) is not an ordered pair of distinct active nodes"
            )
        a_ids, b_ids = a.tolist(), b.tolist()
        row_of = dict(zip(zip(a_ids, b_ids), range(n)))
        if len(row_of) < n:
            # The dict kept each edge's last row: the first row it did not
            # keep is the first repeat.
            row = next(row for row, edge in enumerate(zip(a_ids, b_ids)) if row_of[edge] != row)
            raise StreamError(f"edge ({a_ids[row]}, {b_ids[row]}) is in the edge table twice")

        estimated = np.asarray(severity_ids, dtype=np.int64).reshape(-1, 2)
        values = np.asarray(severity, dtype=float).reshape(-1)
        if len(values) != len(estimated):
            raise StreamError(
                f"the severity table has {len(estimated)} ids but {len(values)} values"
            )
        # zip hands map one reused tuple, so no per-edge tuple outlives
        # its lookup (each would be work for the garbage collector).
        sa, sb = estimated[:, 0].tolist(), estimated[:, 1].tolist()
        rows = list(map(row_of.get, zip(sa, sb)))
        if None in rows:
            i = rows.index(None)
            raise StreamError(
                f"severity row of edge ({sa[i]}, {sb[i]}) is not in the edge table"
            )
        finite = np.isfinite(values)
        if not finite.all():
            i = int(finite.argmin())
            raise StreamError(f"severity {values[i]} of edge ({sa[i]}, {sb[i]}) is not finite")

        capacity = max(n, _MIN_ROWS)
        self._set_columns(*_empty_columns(capacity))
        self._a[:n] = a
        self._b[:n] = b
        self._rtt[:n] = obs[:, 0]
        self._seen[:n] = obs[:, 1]
        self._severity[rows] = values
        self._live[:n] = True
        self._row_of = row_of
        self._free_rows = list(range(capacity - 1, n - 1, -1))
        peer_rtt: dict[int, dict[int, float]] = {node: {} for node in active}
        for x, y, rtt in zip(a_ids, b_ids, obs[:, 0].tolist()):
            peer_rtt[x][y] = rtt
            peer_rtt[y][x] = rtt
        self._peer_rtt = peer_rtt
