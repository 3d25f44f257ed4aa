"""Meridian ring geometry.

Each Meridian node organises its members into concentric, non-overlapping
rings.  The ``i``-th ring (1-based, as in the Meridian paper) has inner
radius ``alpha * s**(i-1)`` and outer radius ``alpha * s**i``; the innermost
ring additionally covers delays below ``alpha``.  A node keeps at most ``k``
members per ring; the outermost ring is unbounded above so no member is ever
dropped for being too far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import MeridianError


@dataclass(frozen=True)
class MeridianConfig:
    """Parameters of a Meridian overlay.

    Attributes
    ----------
    alpha:
        Radius of the innermost ring in milliseconds (paper: 1).
    s:
        Multiplicative ring growth factor (paper: 2).
    n_rings:
        Number of rings per node (paper: 11; with ``alpha=1, s=2`` the
        outermost ring starts at ~1 s which covers all Internet RTTs).
    k:
        Maximum members kept per ring (paper: 16).
    beta:
        Acceptance threshold of the recursive query (paper: 0.5).  A hop's
        ring members are asked to probe the target only if their delay to
        the hop lies within ``[(1-beta)*d, (1+beta)*d]`` where ``d`` is the
        hop's delay to the target, and the query terminates when no probed
        member is closer than ``beta * d``.
    use_termination:
        If False, the β-based early termination is disabled (the "ideal
        setting" of §3.2.2 / Fig. 14) and the query keeps forwarding while
        any probed member improves on the current hop.
    """

    alpha: float = 1.0
    s: float = 2.0
    n_rings: int = 11
    k: int = 16
    beta: float = 0.5
    use_termination: bool = True

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise MeridianError("alpha must be positive")
        if self.s <= 1:
            raise MeridianError("ring growth factor s must be > 1")
        if self.n_rings < 1:
            raise MeridianError("n_rings must be >= 1")
        if self.k < 1:
            raise MeridianError("k must be >= 1")
        if not 0 < self.beta < 1:
            raise MeridianError("beta must lie in (0, 1)")


def ring_index(delay: float, config: MeridianConfig) -> int:
    """Return the 0-based ring index that a member at ``delay`` ms falls into.

    Delays at or below ``alpha`` fall into ring 0; delays beyond the nominal
    outermost radius are clamped into the last ring.
    """
    if delay < 0:
        raise MeridianError(f"delay must be non-negative, got {delay}")
    if delay <= config.alpha:
        return 0
    index = int(math.floor(math.log(delay / config.alpha, config.s))) + 1
    return min(max(index, 0), config.n_rings - 1)


def ring_indices(delays: np.ndarray, config: MeridianConfig) -> np.ndarray:
    """Vectorised :func:`ring_index`: 0-based ring of every delay at once.

    Evaluates the same ``floor(log(d / alpha, s)) + 1`` expression as the
    scalar helper (``math.log(x, base)`` is ``log(x) / log(base)``, which is
    exactly what numpy computes), so both agree on every boundary delay.
    """
    d = np.asarray(delays, dtype=float)
    if d.size and float(d.min()) < 0:
        raise MeridianError(f"delay must be non-negative, got {float(d.min())}")
    indices = np.zeros(d.shape, dtype=np.int64)
    above = d > config.alpha
    if above.any():
        logs = np.log(d[above] / config.alpha) / math.log(config.s)
        indices[above] = np.floor(logs).astype(np.int64) + 1
    return np.clip(indices, 0, config.n_rings - 1)


def ring_bounds(index: int, config: MeridianConfig) -> tuple[float, float]:
    """Return the ``(inner, outer)`` delay bounds of ring ``index`` (0-based).

    Ring 0 spans ``[0, alpha]``; the last ring's outer bound is ``inf``.
    """
    if not 0 <= index < config.n_rings:
        raise MeridianError(f"ring index {index} out of range")
    if index == 0:
        inner = 0.0
    else:
        inner = config.alpha * config.s ** (index - 1)
    if index == config.n_rings - 1:
        outer = math.inf
    else:
        outer = config.alpha * config.s ** index
    return inner, outer


class RingSet:
    """The ring membership of a single Meridian node.

    Members are stored per ring with their measured delays; at most ``k``
    members are retained per ring (first-come, first-kept, matching the
    paper's simple ring management — ring replacement policies are out of
    scope for the reproduction).
    """

    def __init__(self, config: MeridianConfig):
        self._config = config
        self._rings: list[dict[int, float]] = [dict() for _ in range(config.n_rings)]
        self._delays: dict[int, float] = {}

    @property
    def config(self) -> MeridianConfig:
        """The ring geometry parameters."""
        return self._config

    def __len__(self) -> int:
        return len(self._delays)

    def __contains__(self, member: int) -> bool:
        return member in self._delays

    def add(self, member: int, delay: float, *, also_at_delay: float | None = None) -> bool:
        """Try to add ``member`` measured at ``delay`` ms.

        Parameters
        ----------
        member:
            Node identifier of the member.
        delay:
            Measured delay from the ring owner to the member.
        also_at_delay:
            Optional second delay at which the member is *also* ring-placed.
            This is the hook used by the TIV-aware ring construction of
            §5.3: when the TIV alert fires for the owner-member edge, the
            member is placed both by its measured delay and by its predicted
            delay, so a TIV-shrunk edge cannot hide the member from queries.

        Returns
        -------
        bool
            True if the member was stored in at least one ring.

        Notes
        -----
        Each ring records the *placement delay* used for that ring (the
        measured delay normally, the predicted delay for a double
        placement), so queries consulting a ring see the member at the delay
        that put it there.  :meth:`member_delay` always reports the measured
        delay.
        """
        if delay < 0 or not math.isfinite(delay):
            raise MeridianError(f"invalid member delay {delay}")
        placed = False
        for d in ([delay] if also_at_delay is None else [delay, also_at_delay]):
            idx = ring_index(d, self._config)
            ring = self._rings[idx]
            if member in ring:
                placed = True
                continue
            if len(ring) < self._config.k:
                ring[member] = d
                placed = True
        if placed:
            self._delays[member] = delay
        return placed

    def member_delay(self, member: int) -> float:
        """Measured delay to ``member``."""
        try:
            return self._delays[member]
        except KeyError:
            raise MeridianError(f"node {member} is not a ring member") from None

    def members(self) -> list[int]:
        """All distinct ring members."""
        return list(self._delays)

    def ring_members(self, index: int) -> dict[int, float]:
        """Members of ring ``index`` with their delays (copy)."""
        if not 0 <= index < self._config.n_rings:
            raise MeridianError(f"ring index {index} out of range")
        return dict(self._rings[index])

    def ring_of(self, member: int) -> list[int]:
        """Indices of the rings that contain ``member``."""
        return [i for i, ring in enumerate(self._rings) if member in ring]

    def members_within(self, low: float, high: float) -> list[int]:
        """Members whose *placement* delay lies within ``[low, high]``.

        Only rings that overlap the interval are inspected, mirroring how a
        real Meridian node would consult its ring structure.  A member that
        was double-placed (TIV-aware construction) is visible through either
        of its placement delays.
        """
        if low > high:
            return []
        found: set[int] = set()
        for idx in range(self._config.n_rings):
            inner, outer = ring_bounds(idx, self._config)
            if outer < low or inner > high:
                continue
            for member, delay in self._rings[idx].items():
                if low <= delay <= high:
                    found.add(member)
        return sorted(found)

    def occupancy(self) -> list[int]:
        """Number of members stored in each ring."""
        return [len(ring) for ring in self._rings]


class RingStore:
    """The rings of every node of one overlay, as padded whole arrays.

    Row ``r`` lists its owner's ring placements in insertion order: slot
    ``c < counts[r]`` puts ``members[r, c]`` into ring ``rings[r, c]`` at
    placement delay ``placement[r, c]``, the member having been measured
    at ``measured[r, c]``.  A double-placed member fills two slots, one
    per ring.  Padding slots hold member ``-1`` and ``nan`` delays.

    This is the batched Meridian kernel's ring state: a query hop's
    eligible members are one comparison over a row (:meth:`eligible`), and
    a lock-step batch of queries compares many rows at once.
    """

    def __init__(self, config: MeridianConfig, n_rows: int, width: int = 1):
        self.config = config
        shape = (int(n_rows), max(int(width), 1))
        self.members = np.full(shape, -1, dtype=np.int64)
        self.rings = np.zeros(shape, dtype=np.int64)
        self.placement = np.full(shape, np.nan)
        self.measured = np.full(shape, np.nan)
        self.counts = np.zeros(shape[0], dtype=np.int64)
        # Whether some row holds a member in two slots (double placement).
        self.repeats = False
        bounds = [ring_bounds(i, config) for i in range(config.n_rings)]
        self._inner = np.array([inner for inner, _ in bounds])
        self._outer = np.array([outer for _, outer in bounds])
        # A slot is eligible for a window [low, high] when its placement
        # delay lies inside it *and* its ring overlaps it (members_within
        # skips non-overlapping rings, which matters when rounding put a
        # boundary delay just outside its ring).  Both tests fold into
        # reach_low >= low and reach_high <= high.
        self._reach_low = np.full(shape, np.nan)
        self._reach_high = np.full(shape, np.nan)

    @classmethod
    def place(
        cls,
        config: MeridianConfig,
        members: np.ndarray,
        delays: np.ndarray,
        usable: np.ndarray,
        extra: np.ndarray | None = None,
    ) -> "RingStore":
        """Fill a store with one vectorised placement pass over all rows.

        ``members``, ``delays``, ``usable`` and ``extra`` are matching
        ``(n_rows, width)`` arrays.  Row ``r`` offers ``members[r, j]``, measured at ``delays[r, j]``,
        in column order, skipping columns where ``usable`` is False;
        ``extra[r, j]`` (``nan`` for none) is a second placement delay like
        :meth:`RingSet.add`'s ``also_at_delay``.  Members must be distinct
        within a row.  The rings equal what :meth:`RingSet.add` builds from
        an empty ring set per row, calls made in the same order: every
        placement claims a slot in its ring, and each ring keeps its first
        ``k`` claims.
        """
        n_rows, width = members.shape
        first = delays[usable]
        if first.size and (first.min() < 0 or not np.all(np.isfinite(first))):
            raise MeridianError("invalid member delay in ring placement")
        first_ring = np.zeros(members.shape, dtype=np.int64)
        first_ring[usable] = ring_indices(first, config)
        claimed, ring, placement = [usable], [first_ring], [delays]
        if extra is not None:
            second = usable & ~np.isnan(extra)
            values = extra[second]
            if values.size and (values.min() < 0 or not np.all(np.isfinite(values))):
                raise MeridianError("invalid second placement delay")
            second_ring = np.zeros(members.shape, dtype=np.int64)
            second_ring[second] = ring_indices(values, config)
            # A second placement into the first placement's ring changes
            # nothing: the member is already there, or that ring is full.
            claimed.append(second & (second_ring != first_ring))
            ring.append(second_ring)
            placement.append(extra)
        layers = len(claimed)
        # Row-major over (row, column, layer) is exactly insertion order.
        claims = np.flatnonzero(np.stack(claimed, axis=-1))
        rows = claims // (width * layers)
        claim_ring = np.stack(ring, axis=-1).ravel()[claims]

        # Rank every claim among the earlier claims on the same (row, ring);
        # a stable sort keeps insertion order inside each group.
        group = rows * config.n_rings + claim_ring
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        rank = np.arange(order.size) - np.searchsorted(sorted_group, sorted_group, side="left")
        kept = np.empty(claims.size, dtype=bool)
        kept[order] = rank < config.k
        claims, rows = claims[kept], rows[kept]

        counts = np.bincount(rows, minlength=n_rows)
        store = cls(config, n_rows, int(counts.max(initial=0)))
        columns = np.arange(claims.size) - (np.cumsum(counts) - counts)[rows]
        candidate = claims // layers
        store.members[rows, columns] = members.ravel()[candidate]
        store.rings[rows, columns] = np.stack(ring, axis=-1).ravel()[claims]
        store.placement[rows, columns] = np.stack(placement, axis=-1).ravel()[claims]
        store.measured[rows, columns] = delays.ravel()[candidate]
        store.counts = counts.astype(np.int64)
        store.repeats = bool(np.any(candidate[1:] == candidate[:-1]))
        store._reach_low = np.minimum(store.placement, store._outer[store.rings])
        store._reach_high = np.maximum(store.placement, store._inner[store.rings])
        return store

    def eligible(self, rows, low, high) -> np.ndarray:
        """Slot mask of ``rows`` that ``members_within(low, high)`` reports.

        ``rows`` is one row index or an index array; ``low``/``high`` are
        scalars or one window per row.
        """
        low = np.asarray(low, dtype=float)[..., None]
        high = np.asarray(high, dtype=float)[..., None]
        return (self._reach_low[rows] >= low) & (self._reach_high[rows] <= high)

    def add(self, row: int, member: int, delay: float, also_at_delay: float | None = None) -> bool:
        """:meth:`RingSet.add` on row ``row`` (same rules, same result)."""
        if delay < 0 or not math.isfinite(delay):
            raise MeridianError(f"invalid member delay {delay}")
        placed = False
        for d in ([delay] if also_at_delay is None else [delay, also_at_delay]):
            idx = ring_index(d, self.config)
            count = int(self.counts[row])
            in_ring = self.rings[row, :count] == idx
            if np.any(in_ring & (self.members[row, :count] == member)):
                placed = True
                continue
            if np.count_nonzero(in_ring) < self.config.k:
                self.repeats |= bool(np.any(self.members[row, :count] == member))
                self._append(row, member, idx, d)
                placed = True
        if placed:
            count = int(self.counts[row])
            self.measured[row, :count][self.members[row, :count] == member] = delay
        return placed

    def _append(self, row: int, member: int, ring: int, placement: float) -> None:
        count = int(self.counts[row])
        if count == self.members.shape[1]:
            pad = self.members.shape[1]
            self.members = np.pad(self.members, ((0, 0), (0, pad)), constant_values=-1)
            self.rings = np.pad(self.rings, ((0, 0), (0, pad)))
            for name in ("placement", "measured", "_reach_low", "_reach_high"):
                grown = np.pad(getattr(self, name), ((0, 0), (0, pad)), constant_values=np.nan)
                setattr(self, name, grown)
        self.members[row, count] = member
        self.rings[row, count] = ring
        self.placement[row, count] = placement
        self._reach_low[row, count] = min(placement, self._outer[ring])
        self._reach_high[row, count] = max(placement, self._inner[ring])
        self.counts[row] = count + 1

    def row_members(self, row: int) -> np.ndarray:
        """Member id of every filled slot of ``row``, in insertion order."""
        return self.members[row, : self.counts[row]]


class StoredRingSet(RingSet):
    """One node's rings held in row ``row`` of a :class:`RingStore`.

    A :class:`RingSet` in every observable way — same methods, same values,
    same insertion orders — whose state lives in the overlay-wide store the
    batched kernel queries, so reading or adding through either view sees
    the same rings.
    """

    def __init__(self, store: RingStore, row: int):
        # The dict-backed state of RingSet is replaced by the store row.
        self._config = store.config
        self._store = store
        self._row = int(row)

    def __len__(self) -> int:
        return len(self.members())

    def __contains__(self, member: int) -> bool:
        return bool(np.any(self._store.row_members(self._row) == member))

    def add(self, member: int, delay: float, *, also_at_delay: float | None = None) -> bool:
        return self._store.add(self._row, member, delay, also_at_delay)

    def member_delay(self, member: int) -> float:
        slots = np.flatnonzero(self._store.row_members(self._row) == member)
        if slots.size == 0:
            raise MeridianError(f"node {member} is not a ring member")
        return float(self._store.measured[self._row, slots[0]])

    def members(self) -> list[int]:
        return list(dict.fromkeys(self._store.row_members(self._row).tolist()))

    def ring_members(self, index: int) -> dict[int, float]:
        if not 0 <= index < self._config.n_rings:
            raise MeridianError(f"ring index {index} out of range")
        count = self._store.counts[self._row]
        in_ring = self._store.rings[self._row, :count] == index
        return dict(
            zip(
                self._store.members[self._row, :count][in_ring].tolist(),
                self._store.placement[self._row, :count][in_ring].tolist(),
            )
        )

    def ring_of(self, member: int) -> list[int]:
        count = self._store.counts[self._row]
        mine = self._store.members[self._row, :count] == member
        return np.unique(self._store.rings[self._row, :count][mine]).tolist()

    def members_within(self, low: float, high: float) -> list[int]:
        found = np.sort(self._store.members[self._row][self._store.eligible(self._row, low, high)])
        if self._store.repeats and found.size > 1:
            found = found[np.concatenate(([True], found[1:] != found[:-1]))]
        return found.tolist()

    def occupancy(self) -> list[int]:
        count = self._store.counts[self._row]
        return np.bincount(
            self._store.rings[self._row, :count], minlength=self._config.n_rings
        ).tolist()
