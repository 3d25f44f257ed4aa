"""Tests for repro.meridian.rings."""

import math

import numpy as np
import pytest

from repro.errors import MeridianError
from repro.meridian.rings import (
    MeridianConfig,
    RingStore,
    ring_bounds,
    ring_index,
    ring_indices,
)


def one_row(config: MeridianConfig, members, delays, extra=None) -> RingStore:
    """One node's rings: a one-row store offered ``members`` at ``delays``, in order.

    ``extra`` holds each member's second placement delay (None for none).
    """
    if extra is not None:
        extra = np.array([[np.nan if e is None else e for e in extra]], dtype=float)
    members = np.array([members], dtype=np.int64)
    return RingStore.place(
        config, members, np.array([delays], dtype=float), np.ones(members.shape, bool), extra
    )


def row_rings(store: RingStore, row: int = 0) -> list[dict[int, float]]:
    """Each ring of one row as ``{member: placement delay}``, in slot order.

    A double-placed member appears in both of its rings, each time at the
    delay that put it there.
    """
    rings: list[dict[int, float]] = [{} for _ in range(store.config.n_rings)]
    filled = slice(0, store.counts[row])
    slots = zip(
        store.members[row, filled].tolist(),
        store.rings[row, filled].tolist(),
        store.placement[row, filled].tolist(),
    )
    for member, ring, delay in slots:
        rings[ring][member] = delay
    return rings


def within(store: RingStore, low: float, high: float) -> list[int]:
    """The row's members a query window ``[low, high]`` sees, sorted, each once."""
    return np.unique(store.members[0][store.eligible(0, low, high)]).tolist()


class TestMeridianConfig:
    def test_defaults_match_paper(self):
        config = MeridianConfig()
        assert config.alpha == 1.0
        assert config.s == 2.0
        assert config.n_rings == 11
        assert config.k == 16
        assert config.beta == 0.5
        assert config.use_termination

    def test_validation(self):
        with pytest.raises(MeridianError):
            MeridianConfig(alpha=0)
        with pytest.raises(MeridianError):
            MeridianConfig(s=1.0)
        with pytest.raises(MeridianError):
            MeridianConfig(n_rings=0)
        with pytest.raises(MeridianError):
            MeridianConfig(k=0)
        with pytest.raises(MeridianError):
            MeridianConfig(beta=1.0)


class TestRingIndex:
    def test_innermost_ring(self):
        config = MeridianConfig()
        assert ring_index(0.0, config) == 0
        assert ring_index(1.0, config) == 0

    def test_exponential_growth(self):
        config = MeridianConfig()
        assert ring_index(1.5, config) == 1
        assert ring_index(3.0, config) == 2
        assert ring_index(5.0, config) == 3
        assert ring_index(100.0, config) == 7

    def test_clamped_to_last_ring(self):
        config = MeridianConfig(n_rings=5)
        assert ring_index(1e6, config) == 4

    def test_negative_raises(self):
        with pytest.raises(MeridianError):
            ring_index(-1.0, MeridianConfig())

    def test_consistent_with_bounds(self):
        config = MeridianConfig()
        for delay in (0.5, 2.0, 7.0, 40.0, 333.0, 900.0):
            idx = ring_index(delay, config)
            inner, outer = ring_bounds(idx, config)
            assert inner <= delay <= outer or (idx == 0 and delay <= outer)

    def test_bounds_cover_positive_axis(self):
        config = MeridianConfig()
        previous_outer = 0.0
        for idx in range(config.n_rings):
            inner, outer = ring_bounds(idx, config)
            assert inner == pytest.approx(previous_outer) or idx == 0
            previous_outer = outer
        assert math.isinf(previous_outer)

    def test_bounds_out_of_range_raise(self):
        with pytest.raises(MeridianError):
            ring_bounds(11, MeridianConfig())


class TestRingSet:
    """One node's rings: a one-row store filled by ``RingStore.place``."""

    def test_add_and_lookup(self):
        config = MeridianConfig()
        store = one_row(config, [7], [12.0])
        assert store.counts.tolist() == [1]
        assert row_rings(store)[ring_index(12.0, config)] == {7: 12.0}
        assert within(store, 0.0, np.inf) == [7]

    def test_invalid_delay_raises(self):
        config = MeridianConfig()
        for bad in (float("nan"), -2.0, float("inf")):
            with pytest.raises(MeridianError, match="invalid member delay"):
                one_row(config, [1], [bad])

    def test_capacity_enforced(self):
        config = MeridianConfig(k=2)
        # All these delays fall in the same ring (delays 10..15 -> ring 4):
        # first come, first kept.
        store = one_row(config, [1, 2, 3, 4], [10.0, 11.0, 12.0, 300.0])
        rings = row_rings(store)
        assert rings[4] == {1: 10.0, 2: 11.0}
        assert rings[ring_index(300.0, config)] == {4: 300.0}
        assert 3 not in store.members[0]

    def test_members_within(self):
        store = one_row(MeridianConfig(), [1, 2, 3], [5.0, 50.0, 500.0])
        assert within(store, 4.0, 60.0) == [1, 2]
        assert within(store, 100.0, 1000.0) == [3]
        assert within(store, 60.0, 40.0) == []

    def test_members_within_skips_rings_outside_the_window(self):
        # Rounding puts a delay just past a ring boundary into the ring on
        # the other side; a window that ends before, or starts after, that
        # ring does not see it, as a node consults only overlapping rings.
        below = float(np.nextafter(4.0, 0.0))  # in ring 3, (4, 8]
        store = one_row(MeridianConfig(), [1], [below])
        assert ring_bounds(ring_index(below, store.config), store.config) == (4.0, 8.0)
        assert within(store, 0.0, below) == []
        assert within(store, below, 8.0) == [1]
        config = MeridianConfig(s=10.0, n_rings=5)
        above = float(np.nextafter(1000.0, np.inf))  # in ring 3, (100, 1000]
        store = one_row(config, [1], [above])
        assert ring_bounds(ring_index(above, config), config) == (100.0, 1000.0)
        assert within(store, above, np.inf) == []
        assert within(store, 100.0, above) == [1]

    def test_double_placement(self):
        config = MeridianConfig(k=4)
        store = one_row(config, [9], [200.0], extra=[20.0])
        rings = row_rings(store)
        assert rings[ring_index(200.0, config)] == {9: 200.0}
        assert rings[ring_index(20.0, config)] == {9: 20.0}
        assert sum(9 in ring for ring in rings) == 2
        # Either placement makes the member eligible; it is listed once.
        assert within(store, 10.0, 30.0) == [9]
        assert within(store, 150.0, 250.0) == [9]
        assert within(store, 10.0, 250.0) == [9]

    def test_double_placement_same_ring_is_single(self):
        config = MeridianConfig()
        store = one_row(config, [9], [200.0], extra=[210.0])
        assert store.counts.tolist() == [1]
        assert row_rings(store)[ring_index(200.0, config)] == {9: 200.0}
        # The first placement's delay is the one stored.
        assert within(store, 205.0, 215.0) == []

    def test_occupancy(self):
        store = one_row(MeridianConfig(), [1, 2, 3], [5.0, 6.0, 40.0])
        occupancy = [len(ring) for ring in row_rings(store)]
        assert len(occupancy) == 11
        assert sum(occupancy) == 3
        assert occupancy[ring_index(5.0, store.config)] == 2


class TestRingIndices:
    """Vectorised ring assignment must match the scalar helper exactly."""

    def test_matches_scalar_on_random_and_boundary_delays(self):
        config = MeridianConfig()
        rng = np.random.default_rng(0)
        boundaries = config.alpha * config.s ** np.arange(config.n_rings + 1, dtype=float)
        delays = np.concatenate(
            [rng.uniform(0.0, 4000.0, 2000), [0.0, config.alpha], boundaries,
             np.nextafter(boundaries, np.inf), np.nextafter(boundaries[1:], 0.0)]
        )
        vectorised = ring_indices(delays, config)
        scalar = np.array([ring_index(float(d), config) for d in delays])
        assert np.array_equal(vectorised, scalar)

    def test_matches_scalar_for_non_default_geometry(self):
        config = MeridianConfig(alpha=2.5, s=3.0, n_rings=6)
        delays = np.linspace(0.0, 2500.0, 997)
        vectorised = ring_indices(delays, config)
        scalar = np.array([ring_index(float(d), config) for d in delays])
        assert np.array_equal(vectorised, scalar)

    def test_negative_delay_raises(self):
        with pytest.raises(MeridianError):
            ring_indices(np.array([1.0, -0.5]), MeridianConfig())

