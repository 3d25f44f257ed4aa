"""Meridian ring geometry.

Each Meridian node organises its members into concentric, non-overlapping
rings.  The ``i``-th ring (1-based, as in the Meridian paper) has inner
radius ``alpha * s**(i-1)`` and outer radius ``alpha * s**i``; the innermost
ring additionally covers delays below ``alpha``.  A node keeps at most ``k``
members per ring (first come, first kept: ring replacement policies are out
of scope for the reproduction); the outermost ring is unbounded above so no
member is ever dropped for being too far.

An overlay keeps the rings of all its nodes in one :class:`RingStore`,
filled once by :meth:`RingStore.place` and read only through
:meth:`RingStore.eligible` and its arrays.
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


class RingStore:
    """The rings of every node of one overlay, as padded whole arrays.

    Row ``r`` lists its owner's ring placements in insertion order: slot
    ``c < counts[r]`` puts ``members[r, c]`` into ring ``rings[r, c]`` at
    placement delay ``placement[r, c]``.  A double-placed member fills two
    slots, one per ring.  Padding slots hold member ``-1`` and ``nan``
    delays.

    :meth:`place` fills a store once; nothing is added later.  A query
    hop's eligible members are one comparison over a row (:meth:`eligible`),
    and a lock-step batch of queries compares many rows at once.
    """

    def __init__(self, config: MeridianConfig, n_rows: int, width: int = 1):
        self.config = config
        shape = (int(n_rows), max(int(width), 1))
        self.members = np.full(shape, -1, dtype=np.int64)
        self.rings = np.zeros(shape, dtype=np.int64)
        self.placement = np.full(shape, np.nan)
        self.counts = np.zeros(shape[0], dtype=np.int64)
        # Whether some row holds a member in two slots (double placement).
        self.repeats = False
        bounds = [ring_bounds(i, config) for i in range(config.n_rings)]
        self._inner = np.array([inner for inner, _ in bounds])
        self._outer = np.array([outer for _, outer in bounds])
        # A slot is eligible for a window [low, high] when its placement
        # delay lies inside it *and* its ring overlaps it (a node consults
        # only the rings that overlap the window, which matters when
        # rounding put a boundary delay just outside its ring).  Both tests
        # fold into reach_low >= low and reach_high <= high.
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
        ``(n_rows, width)`` arrays.  Row ``r`` offers ``members[r, j]``,
        measured at ``delays[r, j]``, in column order, skipping columns
        where ``usable`` is False.  ``extra[r, j]`` (``nan`` for none) is a
        second delay at which the member is *also* ring-placed: the hook of
        the TIV-aware ring construction of §5.3, which places a member
        whose owner-member edge fires the TIV alert by both its measured
        and its predicted delay, so a TIV-shrunk edge cannot hide it from
        queries.  Each placement is stored at the delay that put it there.
        Members must be distinct within a row.  The rings equal what adding
        the members one by one, in the same order, to a dict per ring
        builds: every placement claims a slot in its ring, and each ring
        keeps its first ``k`` claims.
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
        store.counts = counts.astype(np.int64)
        store.repeats = bool(np.any(candidate[1:] == candidate[:-1]))
        store._reach_low = np.minimum(store.placement, store._outer[store.rings])
        store._reach_high = np.maximum(store.placement, store._inner[store.rings])
        return store

    def eligible(self, rows, low, high) -> np.ndarray:
        """Slot mask of ``rows`` that a query window ``[low, high]`` sees.

        A slot is seen when its placement delay lies in the window and its
        ring overlaps the window.  ``rows`` is one row index or an index
        array; ``low``/``high`` are scalars or one window per row.
        """
        low = np.asarray(low, dtype=float)[..., None]
        high = np.asarray(high, dtype=float)[..., None]
        return (self._reach_low[rows] >= low) & (self._reach_high[rows] <= high)
