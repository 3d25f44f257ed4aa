"""Online (per-observation) Vivaldi with height, error and rho gravity.

The batched :class:`~repro.coords.vivaldi.VivaldiSystem` simulates a fixed
node population in synchronous probe rounds — the right shape for the
paper's frozen-matrix experiments, and the wrong one for a long-lived
service where measurements arrive one at a time and nodes join and leave
at will.  This module provides the incremental update path underneath
:mod:`repro.stream`: a slot-compacted membership table whose coordinates
advance one observation at a time, following the "Network Coordinates in
the Wild" (Ledlie et al., NSDI 2007) extensions to Vivaldi's adaptive
timestep (Dabek et al., SIGCOMM 2004, Fig. 3):

* **height** — each node carries a non-Euclidean height modelling its
  access-link delay; the predicted delay between two nodes is the
  Euclidean distance between their vectors plus both heights.
* **error** — each node tracks a relative-error confidence, capped at
  ``max_error``, that weights how far an observation moves it.
* **rho gravity** — after every movement the coordinate is pulled toward
  the origin with a force quadratic in ``|x| / rho``, countering the
  slow drift of the whole coordinate system.

With ``use_height=False`` and ``rho=0`` the per-observation update is
exactly the scalar Vivaldi rule of the Gauss-Seidel oracle
``tests/coords/oracles.py::GaussSeidelVivaldi.probe``, which is what the
stream-vs-batch equivalence tests pin.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from repro.coords.base import squared_distance
from repro.errors import EmbeddingError
from repro.stats.rng import RngLike, ensure_rng
from repro.utils import fits_int64, is_integer


#: The largest RTT (ms) an observation may carry, and the cap on a height:
#: the fourth root of the largest float, about 1.2e77.  An update moves a
#: coordinate by up to an RTT plus two heights and then squares the moved
#: row's norm, which at this scale stays far below overflow; a 1e160 ms RTT
#: overflowed it and turned the coordinate into NaN.  The height needs the
#: cap too: its update divides by the core distance, so nearly coincident
#: nodes could inflate a height far past any RTT.
MAX_RTT = sys.float_info.max**0.25


def _check_id(node) -> None:
    """Refuse a node id that is not an integer (``bool`` included)."""
    if not is_integer(node):
        raise EmbeddingError(f"node id {node!r} is not an integer")


def _check_new_id(node) -> None:
    """Refuse an id that cannot join: not an integer, or outside int64.

    The batch queries look ids up in an int64 array, so a larger id could
    join but never be queried.
    """
    _check_id(node)
    if not fits_int64(node):
        raise EmbeddingError(f"node id {node!r} lies outside int64")


def _check_k(k) -> None:
    """Refuse a neighbour count that is not an integer (``bool`` included) or below 1."""
    if type(k) is not int and not is_integer(k):
        raise EmbeddingError(f"k {k!r} is not an integer")
    if k < 1:
        raise EmbeddingError("k must be >= 1")


@dataclass(frozen=True)
class OnlineVivaldiConfig:
    """Parameters of the online coordinate update.

    Attributes
    ----------
    dimension:
        Dimensionality of the Euclidean component (paper: 5).
    cc:
        Adaptive-timestep constant scaling coordinate movement (0.25).
    ce:
        Constant scaling the error-estimate update (0.25).
    rho:
        Gravity tuning factor (Ledlie et al.): after each update the
        coordinate is pulled toward the origin by ``(|x| / rho)**2``, but
        never past it.  ``0`` disables gravity.
    use_height:
        Whether coordinates carry the non-Euclidean height component.
    min_height:
        Floor of the height component (heights never reach zero, an
        access link always costs something).
    initial_error:
        Error estimate assigned to a freshly joined node; also the cap
        (``max_error``) applied after every update, per the edgeIO /
        serf convention of ``max_error = 1.5``.
    min_error:
        Floor applied to error estimates so the confidence weight
        ``e_i / (e_i + e_j)`` stays defined.
    """

    dimension: int = 5
    cc: float = 0.25
    ce: float = 0.25
    rho: float = 150.0
    use_height: bool = True
    min_height: float = 1e-5
    initial_error: float = 1.5
    min_error: float = 1e-3

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise EmbeddingError("dimension must be >= 1")
        if not 0 < self.cc <= 1 or not 0 < self.ce <= 1:
            raise EmbeddingError("cc and ce must lie in (0, 1]")
        if self.rho < 0:
            raise EmbeddingError("rho must be >= 0 (0 disables gravity)")
        if self.min_height <= 0:
            raise EmbeddingError("min_height must be > 0")
        if self.initial_error <= 0 or self.min_error <= 0:
            raise EmbeddingError("initial_error and min_error must be > 0")
        if self.min_error > self.initial_error:
            raise EmbeddingError("min_error must not exceed initial_error")


class OnlineVivaldi:
    """A live Vivaldi embedding over a churning node population.

    Node identifiers are integers, as in traces, the WAL and checkpoints;
    ties between equal predicted delays order by id.  Internally each
    active node owns a slot in preallocated
    coordinate/height/error arrays; slots freed by :meth:`leave` are
    reused by later joins, so capacity tracks the *concurrent* population,
    not the total number of identifiers ever seen.
    """

    def __init__(
        self,
        config: OnlineVivaldiConfig | None = None,
        *,
        rng: RngLike = None,
        capacity: int = 64,
    ):
        if capacity < 1:
            raise EmbeddingError("capacity must be >= 1")
        self._config = config if config is not None else OnlineVivaldiConfig()
        self._rng = ensure_rng(rng)
        cap = int(capacity)
        dim = self._config.dimension
        self._coords = np.zeros((cap, dim))
        self._heights = np.full(cap, self._config.min_height)
        self._errors = np.full(cap, self._config.initial_error)
        self._last_update = np.full(cap, -np.inf)
        self._update_counts = np.zeros(cap, dtype=np.int64)
        self._slots: dict = {}
        self._free: list[int] = []
        self._observations = 0
        # Sorted (ids, slots) arrays over the active population, rebuilt
        # lazily after membership changes: the batch query path gathers
        # against these instead of re-scanning the slot dict per query.
        self._active_cache: tuple | None = None

    # -- membership -----------------------------------------------------------

    @property
    def config(self) -> OnlineVivaldiConfig:
        return self._config

    @property
    def n_active(self) -> int:
        """Number of currently active nodes."""
        return len(self._slots)

    @property
    def observations(self) -> int:
        """Total measurement observations applied so far."""
        return self._observations

    def active_nodes(self) -> list:
        """Identifiers of the active nodes, sorted."""
        return sorted(self._slots)

    def is_active(self, node) -> bool:
        """Whether ``node`` is active; an id that is not an integer raises, as in :meth:`join`."""
        if type(node) is not int:
            _check_id(node)
        return node in self._slots

    def _grow(self) -> None:
        cap = self._coords.shape[0]
        new_cap = cap * 2
        self._coords = np.vstack(
            [self._coords, np.zeros((cap, self._config.dimension))]
        )
        self._heights = np.concatenate(
            [self._heights, np.full(cap, self._config.min_height)]
        )
        self._errors = np.concatenate(
            [self._errors, np.full(cap, self._config.initial_error)]
        )
        self._last_update = np.concatenate([self._last_update, np.full(cap, -np.inf)])
        self._update_counts = np.concatenate(
            [self._update_counts, np.zeros(cap, dtype=np.int64)]
        )
        assert self._coords.shape[0] == new_cap

    def join(self, node, t: float = 0.0) -> None:
        """Add ``node`` to the live population at time ``t``.

        A fresh node starts at the origin with minimal height and maximal
        error — its first observations move it almost the full spring
        displacement, so it localises quickly (the adaptive timestep at
        work).  Rejoining while active is an error: the stream layer
        treats it as a malformed trace.  So is a non-integer id and one
        outside int64; a numpy integer joins as the equal Python int.
        """
        _check_new_id(node)
        node = int(node)
        if node in self._slots:
            raise EmbeddingError(f"node {node!r} is already active")
        if self._free:
            slot = self._free.pop()
        else:
            if len(self._slots) >= self._coords.shape[0]:
                self._grow()
            slot = len(self._slots)
        self._coords[slot] = 0.0
        self._heights[slot] = self._config.min_height
        self._errors[slot] = self._config.initial_error
        self._last_update[slot] = float(t)
        self._update_counts[slot] = 0
        self._slots[node] = slot
        self._active_cache = None

    def leave(self, node) -> None:
        """Remove ``node`` from the live population, freeing its slot.

        3.0 and True, which would remove nodes 3 and 1, raise as in :meth:`join`.
        """
        if type(node) is not int:
            _check_id(node)
        slot = self._slots.pop(node, None)
        if slot is None:
            raise EmbeddingError(f"node {node!r} is not active")
        self._free.append(slot)
        self._active_cache = None

    # -- the per-observation update -------------------------------------------

    def observe(self, src, dst, rtt: float, t: float = 0.0) -> float:
        """Apply one measurement: ``src`` observed ``rtt`` to ``dst``.

        Only ``src`` moves — Vivaldi's protocol is asynchronous, each node
        updates its own coordinate from the probes *it* issues; ``dst``
        will move when its own probes come through the stream.  Returns
        the magnitude of ``src``'s coordinate movement.  An RTT that is not
        a number in ``(0, MAX_RTT]`` moves nothing and returns 0.0.  A node
        id that is not an integer raises, as in :meth:`join`.
        """
        if type(src) is not int or type(dst) is not int:
            _check_id(src)
            _check_id(dst)
        try:
            i = self._slots[src]
            j = self._slots[dst]
        except KeyError:
            missing = src if src not in self._slots else dst
            raise EmbeddingError(
                f"cannot observe {src!r} -> {dst!r}: node {missing!r} is not active"
            ) from None
        cfg = self._config
        if not 0.0 < rtt <= MAX_RTT:  # also false for NaN
            return 0.0
        rtt = float(rtt)

        # Scalars are Python floats and vector norms are sqrt(v . v), the
        # op np.linalg.norm runs for a real vector: the same IEEE results
        # without numpy's per-call overhead on 5-element rows.
        row = self._coords[i]
        diff = row - self._coords[j]
        mag = math.sqrt(diff.dot(diff))
        h_i = self._heights.item(i)
        h_j = self._heights.item(j)
        dist = mag
        if cfg.use_height:
            dist += h_i + h_j

        err_i = self._errors.item(i)
        e_i = max(err_i, cfg.min_error)
        e_j = max(self._errors.item(j), cfg.min_error)
        w = e_i / (e_i + e_j)
        relative_error = abs(dist - rtt) / rtt

        ce_w = cfg.ce * w
        self._errors[i] = min(
            relative_error * ce_w + err_i * (1.0 - ce_w),
            cfg.initial_error,
        )

        force = cfg.cc * w * (rtt - dist)
        if mag > 0:
            unit = diff / mag
        else:
            unit = self._rng.normal(size=cfg.dimension)
            unit /= math.sqrt(unit.dot(unit))
        row += force * unit
        if cfg.use_height and mag > 0:
            # The height absorbs the share of the spring force that
            # travelled the access links rather than the Euclidean core.
            height = max(cfg.min_height, h_i + force * (h_i + h_j) / mag)
            self._heights[i] = min(height, MAX_RTT)

        if cfg.rho > 0:
            # Rho gravity (Ledlie et al.): a quadratic pull toward the
            # origin counters whole-system drift without disturbing
            # relative distances at working scale.  The pull stops at the
            # origin: unclamped, it crosses the origin once |x| > rho**2,
            # and once |x| > 2 * rho**2 it lands farther out than it
            # started, so every later step lands farther still.
            norm = math.sqrt(row.dot(row))
            if norm > 0:
                pull = min((norm / cfg.rho) ** 2, norm)
                row -= row * (pull / norm)

        self._last_update[i] = float(t)
        self._update_counts[i] += 1
        self._observations += 1
        return abs(force)

    # -- live-state queries ---------------------------------------------------

    def _slot_of(self, node) -> int:
        """``node``'s slot; an id that is not an integer raises, as in :meth:`join`.

        3.0 and True would find nodes 3 and 1 by equality and answer for them.
        """
        if type(node) is not int:
            _check_id(node)
        try:
            return self._slots[node]
        except KeyError:
            raise EmbeddingError(f"node {node!r} is not active") from None

    def coordinate_of(self, node) -> np.ndarray:
        """Euclidean component of ``node``'s coordinate (copy)."""
        return self._coords[self._slot_of(node)].copy()

    def height_of(self, node) -> float:
        return float(self._heights[self._slot_of(node)])

    def error_of(self, node) -> float:
        return float(self._errors[self._slot_of(node)])

    def update_count_of(self, node) -> int:
        return self._update_counts.item(self._slot_of(node))

    def distance(self, a, b) -> float:
        """Predicted delay between two active nodes (live state).

        Both nodes must be active, ``a == b`` included (0.0), as in the
        batch paths, and ids must be integers, as in :meth:`_slot_of`.
        """
        if type(a) is not int or type(b) is not int:
            _check_id(a)
            _check_id(b)
        slots = self._slots
        try:
            i = slots[a]
            j = slots[b]
        except KeyError:
            missing = a if a not in slots else b
            raise EmbeddingError(f"node {missing!r} is not active") from None
        if a == b:
            return 0.0
        # The batch paths' sum order over Python floats, so scalar and
        # batch answers bit-match: Python float arithmetic and math.sqrt
        # round exactly as the numpy element-wise ops do.
        coords = self._coords
        dist = math.sqrt(
            squared_distance(map(operator.sub, coords[i].tolist(), coords[j].tolist()))
        )
        if self._config.use_height:
            heights = self._heights
            dist += heights.item(i) + heights.item(j)
        return dist

    def closest(self, node, k: int = 1) -> list[tuple[object, float]]:
        """The ``k`` active nodes predicted closest to ``node``.

        Returns ``(node_id, predicted_delay)`` pairs sorted by predicted
        delay (ties broken by node id, so the answer is deterministic).  A
        ``k`` below 1 or not an integer (``bool`` and 1.5 included) raises.
        This is :meth:`closest_batch` on a batch of one.
        """
        return self.closest_batch([node], k)[0]

    # -- batch queries (the serving hot path) ---------------------------------

    def _active_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, slots)`` int64 arrays over the active population, sorted by id.

        Cached until the next join/leave.
        """
        if self._active_cache is None:
            nodes = self.active_nodes()
            slots = np.fromiter(
                (self._slots[n] for n in nodes), dtype=np.int64, count=len(nodes)
            )
            self._active_cache = (np.array(nodes, dtype=np.int64), slots)
        return self._active_cache

    def _distances_to_active(self, q_slots: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """``(Q, N)`` predicted delays from query slots to active slots.

        Each entry is ``core + (h_query + h_other)``: the core distance
        summed by :func:`squared_distance`, plus the two heights added as
        one term, as :meth:`distance` and :meth:`distance_batch` add them.
        So every :meth:`closest` answer equals ``distance`` of the pair in
        either order, bit for bit.  Each coordinate axis is one contiguous
        ``(Q, N)`` plane of differences, so every operation's inner loop
        runs over the N active nodes.
        """
        active = self._coords[slots].T.copy()
        queries = self._coords[q_slots].T
        dists = squared_distance(
            np.subtract(active[axis], queries[axis, :, None]) for axis in range(len(active))
        )
        np.sqrt(dists, out=dists)
        if self._config.use_height:
            dists += np.add.outer(self._heights[q_slots], self._heights[slots])
        return dists

    def closest_batch(self, nodes, k: int = 1) -> list[list[tuple[object, float]]]:
        """The ``k`` nearest active nodes to each query node, as :meth:`closest`.

        One distance matrix and one tie-aware top-k selection answer the
        whole batch: a row-wise partition finds each query's ``take``-th
        smallest delay, every entry at or below it stays a candidate (so
        all ties at the boundary survive), and one lexsort by (query,
        delay, id) orders the candidates.  Coordinates stay finite
        (:meth:`observe` refuses non-finite RTTs and gravity is clamped),
        so every row holds at least ``take`` candidates.
        """
        _check_k(k)
        nodes = list(nodes)
        if not nodes:
            return []
        ids, slots = self._active_arrays()
        q_slots = np.fromiter(
            (self._slot_of(n) for n in nodes), dtype=np.int64, count=len(nodes)
        )
        take = min(int(k), ids.size - 1)
        if take == 0:
            return [[] for _ in nodes]
        dists = self._distances_to_active(q_slots, slots)
        queries = np.arange(len(nodes))
        # Exclude each query node from its own row.
        dists[queries, np.searchsorted(ids, np.asarray(nodes, dtype=np.int64))] = np.inf
        kth = np.partition(dists, take - 1, axis=1)[:, take - 1]
        row, col = np.nonzero(dists <= kth[:, None])
        value = dists[row, col]
        order = np.lexsort((ids[col], value, row))
        # ``row`` (row-major from np.nonzero) and ``row[order]`` are both
        # sorted, so each query's candidates start at the same offset.
        starts = np.searchsorted(row, queries)
        picked = order[(starts[:, None] + np.arange(take)).ravel()]
        out_ids = ids[col[picked]].reshape(len(nodes), take).tolist()
        out_values = value[picked].reshape(len(nodes), take).tolist()
        return [list(zip(i, v)) for i, v in zip(out_ids, out_values)]

    def distance_batch(self, pairs) -> np.ndarray:
        """Predicted delays for a batch of ``(a, b)`` node pairs.

        One gathered difference array over all pairs; each value
        bit-matches :meth:`distance` (0.0 for self-pairs).
        """
        pairs = [(a, b) for a, b in pairs]
        if not pairs:
            return np.zeros(0)
        a_slots = np.fromiter(
            (self._slot_of(a) for a, _ in pairs), dtype=np.int64, count=len(pairs)
        )
        b_slots = np.fromiter(
            (self._slot_of(b) for _, b in pairs), dtype=np.int64, count=len(pairs)
        )
        dists = np.sqrt(squared_distance((self._coords[a_slots] - self._coords[b_slots]).T))
        if self._config.use_height:
            dists = dists + (self._heights[a_slots] + self._heights[b_slots])
        same = np.fromiter((a == b for a, b in pairs), dtype=bool, count=len(pairs))
        dists[same] = 0.0
        return dists

    def staleness(self, now: float) -> dict:
        """Per-node seconds since the last coordinate update.

        Nodes that joined but were never updated report their age since
        joining.

        Raises
        ------
        EmbeddingError
            If ``now`` is earlier than the latest update (or join) among
            the active nodes: ages would come out negative, meaning the
            caller's clock is behind the embedding's.
        """
        now = float(now)
        out = {}
        latest = -np.inf
        for node, slot in self._slots.items():
            last = float(self._last_update[slot])
            latest = max(latest, last)
            out[node] = now - last
        if out and now < latest:
            raise EmbeddingError(
                f"staleness queried at now={now}, earlier than the latest "
                f"update at t={latest}; ages would be negative"
            )
        return out

    def snapshot(self) -> dict:
        """Arrays of the live state, keyed by sorted node id (copies)."""
        nodes = self.active_nodes()
        slots = np.fromiter((self._slots[n] for n in nodes), dtype=np.int64, count=len(nodes))
        return {
            "nodes": nodes,
            "coordinates": self._coords[slots].copy(),
            "heights": self._heights[slots].copy(),
            "errors": self._errors[slots].copy(),
            "last_update": self._last_update[slots].copy(),
            "update_counts": self._update_counts[slots].copy(),
        }

    # -- durable state ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete internal state, for bit-identical checkpoint/restore.

        Unlike :meth:`snapshot` (a query-friendly view of the *active*
        population), this captures everything future behaviour depends
        on: the full-capacity arrays, the slot map in insertion order,
        the free-slot stack (its LIFO order decides which slot the next
        join reuses) and the observation counter.  The caller owns the
        RNG — the embedding shares its generator with the stream service,
        so the service serialises it exactly once.
        """
        return {
            "capacity": int(self._coords.shape[0]),
            "coords": self._coords.copy(),
            "heights": self._heights.copy(),
            "errors": self._errors.copy(),
            "last_update": self._last_update.copy(),
            "update_counts": self._update_counts.copy(),
            "nodes": list(self._slots),
            "slots": [int(self._slots[node]) for node in self._slots],
            "free": [int(slot) for slot in self._free],
            "observations": int(self._observations),
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        config: OnlineVivaldiConfig | None = None,
        *,
        rng: RngLike = None,
    ) -> "OnlineVivaldi":
        """Rebuild an embedding whose behaviour bit-matches the captured one."""
        embedding = cls(config, rng=rng, capacity=int(state["capacity"]))
        embedding._coords = np.array(state["coords"], dtype=float)
        embedding._heights = np.array(state["heights"], dtype=float)
        embedding._errors = np.array(state["errors"], dtype=float)
        embedding._last_update = np.array(state["last_update"], dtype=float)
        embedding._update_counts = np.array(state["update_counts"], dtype=np.int64)
        for node in state["nodes"]:
            _check_new_id(node)
        embedding._slots = dict(zip(state["nodes"], (int(s) for s in state["slots"])))
        embedding._free = [int(slot) for slot in state["free"]]
        embedding._observations = int(state["observations"])
        embedding._active_cache = None
        return embedding
