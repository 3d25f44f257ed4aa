"""Tests for repro.stats.rng."""

import numpy as np
import pytest

from repro.stats.rng import ensure_rng, spawn_rngs


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = ensure_rng(42).integers(0, 1000, size=10)
        b = ensure_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(5)
        assert ensure_rng(gen) is gen

    def test_numpy_integer_seed(self):
        gen = ensure_rng(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_children_differ(self):
        children = spawn_rngs(0, 2)
        a = children[0].integers(0, 10**6, size=20)
        b = children[1].integers(0, 10**6, size=20)
        assert not np.array_equal(a, b)

    def test_reproducible_from_seed(self):
        first = [g.integers(0, 10**6) for g in spawn_rngs(9, 3)]
        second = [g.integers(0, 10**6) for g in spawn_rngs(9, 3)]
        assert first == second

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

