"""Tests for repro.meridian.rings."""

import math

import numpy as np
import pytest

from repro.errors import MeridianError
from repro.meridian.rings import (
    MeridianConfig,
    RingStore,
    StoredRingSet,
    ring_bounds,
    ring_index,
    ring_indices,
)


def one_row_rings(config: MeridianConfig) -> StoredRingSet:
    """One node's rings: the view of a one-row ring store."""
    return StoredRingSet(RingStore(config, 1), 0)


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
    def test_add_and_lookup(self):
        rings = one_row_rings(MeridianConfig())
        assert rings.add(7, 12.0)
        assert 7 in rings
        assert rings.member_delay(7) == 12.0
        assert len(rings) == 1

    def test_unknown_member_raises(self):
        rings = one_row_rings(MeridianConfig())
        with pytest.raises(MeridianError):
            rings.member_delay(3)

    def test_invalid_delay_raises(self):
        rings = one_row_rings(MeridianConfig())
        with pytest.raises(MeridianError):
            rings.add(1, float("nan"))
        with pytest.raises(MeridianError):
            rings.add(1, -2.0)

    def test_capacity_enforced(self):
        config = MeridianConfig(k=2)
        rings = one_row_rings(config)
        # All these delays fall in the same ring (delays 10..15 -> ring 4).
        assert rings.add(1, 10.0)
        assert rings.add(2, 11.0)
        assert not rings.add(3, 12.0)  # ring full
        assert 3 not in rings

    def test_members_within(self):
        rings = one_row_rings(MeridianConfig())
        rings.add(1, 5.0)
        rings.add(2, 50.0)
        rings.add(3, 500.0)
        assert rings.members_within(4.0, 60.0) == [1, 2]
        assert rings.members_within(100.0, 1000.0) == [3]
        assert rings.members_within(60.0, 40.0) == []

    def test_double_placement(self):
        config = MeridianConfig(k=4)
        rings = one_row_rings(config)
        rings.add(9, 200.0, also_at_delay=20.0)
        placed = rings.ring_of(9)
        assert len(placed) == 2
        assert ring_index(200.0, config) in placed
        assert ring_index(20.0, config) in placed

    def test_double_placement_same_ring_is_single(self):
        config = MeridianConfig()
        rings = one_row_rings(config)
        rings.add(9, 200.0, also_at_delay=210.0)
        assert len(rings.ring_of(9)) == 1

    def test_occupancy(self):
        rings = one_row_rings(MeridianConfig())
        rings.add(1, 5.0)
        rings.add(2, 6.0)
        occupancy = rings.occupancy()
        assert sum(occupancy) == 2
        assert len(occupancy) == 11


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

