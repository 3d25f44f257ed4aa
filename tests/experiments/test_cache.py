"""Tests for the content-addressed artifact cache."""

import json
import zipfile

import numpy as np
import pytest

from repro.experiments.cache import (
    ArtifactCache,
    CacheStats,
    config_fingerprint,
    stable_key,
)
from repro.experiments.config import ExperimentConfig


@pytest.fixture()
def cache(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


class TestStableKey:
    def test_deterministic(self):
        params = {"preset": "ds2_like", "n_nodes": 64, "seed": 0}
        assert stable_key("dataset", params) == stable_key("dataset", dict(params))

    def test_order_independent(self):
        a = stable_key("dataset", {"x": 1, "y": 2})
        b = stable_key("dataset", {"y": 2, "x": 1})
        assert a == b

    def test_sensitive_to_kind_and_params(self):
        params = {"n_nodes": 64}
        assert stable_key("dataset", params) != stable_key("severity", params)
        assert stable_key("dataset", params) != stable_key("dataset", {"n_nodes": 65})

    def test_config_fingerprint_round_trips_fields(self):
        fingerprint = config_fingerprint(ExperimentConfig(n_nodes=64, seed=3))
        assert fingerprint["n_nodes"] == 64
        assert fingerprint["seed"] == 3
        assert "vivaldi_seconds" in fingerprint


class TestRoundTrip:
    def test_arrays_bit_for_bit(self, cache):
        rng = np.random.default_rng(0)
        delays = rng.uniform(1.0, 300.0, size=(24, 24))
        delays[2, 5] = np.nan
        delays[5, 2] = np.nan
        counts = rng.integers(0, 40, size=(24, 24))
        cache.store("dataset", {"n": 24}, {"delays": delays, "counts": counts})
        entry = cache.load("dataset", {"n": 24})
        assert entry is not None
        assert np.array_equal(entry.arrays["delays"], delays, equal_nan=True)
        assert np.array_equal(entry.arrays["counts"], counts)
        assert entry.arrays["delays"].dtype == delays.dtype

    def test_meta_round_trip(self, cache):
        cache.store(
            "clusters",
            {"n": 8},
            {"labels": np.zeros(8, dtype=int)},
            meta={"n_clusters": 3, "heads": [1, 2, 3], "cluster_radius": 12.5},
        )
        entry = cache.load("clusters", {"n": 8})
        assert entry.meta["n_clusters"] == 3
        assert entry.meta["heads"] == [1, 2, 3]
        assert entry.meta["cluster_radius"] == pytest.approx(12.5)

    def test_numpy_scalars_in_params_and_meta(self, cache):
        cache.store(
            "x",
            {"n": np.int64(4)},
            {"v": np.arange(3)},
            meta={"mean": np.float64(1.5)},
        )
        # numpy-typed and python-typed params are semantically equal and
        # must address the same entry.
        assert stable_key("x", {"n": np.int64(4)}) == stable_key("x", {"n": 4})
        entry = cache.load("x", {"n": 4})
        assert entry is not None
        assert entry.meta["mean"] == 1.5


class TestArchiveFormat:
    def test_stored_npz_members_are_uncompressed(self, cache, tmp_path):
        cache.store("dataset", {"n": 6}, {"delays": np.eye(6), "clusters": np.arange(6)})
        (npz_path,) = (tmp_path / "cache" / "dataset").glob("*.npz")
        with zipfile.ZipFile(npz_path) as archive:
            members = archive.infolist()
        assert sorted(member.filename for member in members) == [
            "clusters.npy",
            "delays.npy",
        ]
        assert {member.compress_type for member in members} == {zipfile.ZIP_STORED}

    def test_compressed_entry_from_older_release_hits(self, cache, tmp_path):
        # Releases before uncompressed stores wrote np.savez_compressed
        # archives under the same address; they must keep hitting.
        delays = np.random.default_rng(1).uniform(1.0, 300.0, size=(12, 12))
        cache.store("dataset", {"n": 12}, {"delays": delays}, meta={"labels": ["a"]})
        (npz_path,) = (tmp_path / "cache" / "dataset").glob("*.npz")
        np.savez_compressed(npz_path, delays=delays)
        with zipfile.ZipFile(npz_path) as archive:
            assert archive.infolist()[0].compress_type == zipfile.ZIP_DEFLATED
        entry = cache.load("dataset", {"n": 12})
        assert entry is not None
        assert np.array_equal(entry.arrays["delays"], delays)
        assert entry.meta == {"labels": ["a"]}
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)


class TestRawLayout:
    def test_mmap_load_survives_concurrent_evict(self, tmp_path):
        # POSIX unlink removes only the name: a reader holding
        # np.load(mmap_mode="r") views keeps reading after another process
        # evicts the entry out from under it.
        cache = ArtifactCache(tmp_path / "cache")
        params = {"seed": 3, "n_nodes": 16}
        arrays = {"block": np.arange(256, dtype=np.float64).reshape(16, 16)}
        cache.store_raw("dataset", params, arrays)
        entry = cache.load_raw("dataset", params, mmap=True)
        assert isinstance(entry.arrays["block"], np.memmap)
        ArtifactCache(tmp_path / "cache").evict("dataset", params)
        assert cache.load_raw("dataset", params) is None  # eviction took
        np.testing.assert_array_equal(entry.arrays["block"], arrays["block"])


class TestMissesAndCorruption:
    def test_missing_entry_is_miss(self, cache):
        assert cache.load("dataset", {"n": 1}) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_corrupted_npz_is_evicted_and_missed(self, cache, tmp_path):
        cache.store("dataset", {"n": 2}, {"delays": np.eye(3)})
        npz_files = list((tmp_path / "cache" / "dataset").glob("*.npz"))
        assert len(npz_files) == 1
        npz_files[0].write_bytes(b"this is not a numpy archive")
        assert cache.load("dataset", {"n": 2}) is None
        # The broken entry is gone, so the next store/load cycle works again.
        assert not npz_files[0].exists()
        cache.store("dataset", {"n": 2}, {"delays": np.eye(3)})
        assert cache.load("dataset", {"n": 2}) is not None

    def test_corrupted_meta_is_miss(self, cache, tmp_path):
        cache.store("dataset", {"n": 3}, {"delays": np.eye(3)})
        meta_files = list((tmp_path / "cache" / "dataset").glob("*.json"))
        meta_files[0].write_text("{not json", encoding="utf-8")
        assert cache.load("dataset", {"n": 3}) is None

    def test_meta_kind_mismatch_is_miss(self, cache, tmp_path):
        cache.store("dataset", {"n": 4}, {"delays": np.eye(3)})
        meta_files = list((tmp_path / "cache" / "dataset").glob("*.json"))
        payload = json.loads(meta_files[0].read_text(encoding="utf-8"))
        payload["kind"] = "something_else"
        meta_files[0].write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load("dataset", {"n": 4}) is None

    def test_evict_is_idempotent(self, cache):
        cache.store("dataset", {"n": 5}, {"delays": np.eye(2)})
        cache.evict("dataset", {"n": 5})
        cache.evict("dataset", {"n": 5})
        assert not cache.contains("dataset", {"n": 5})


class TestStats:
    def test_counters(self, cache):
        cache.load("a", {"i": 0})
        cache.store("a", {"i": 0}, {"v": np.zeros(2)})
        cache.load("a", {"i": 0})
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)

    def test_snapshot_and_since(self):
        stats = CacheStats(hits=5, misses=2, stores=1)
        earlier = stats.snapshot()
        stats.hits += 3
        delta = stats.since(earlier)
        assert (delta.hits, delta.misses, delta.stores) == (3, 0, 0)
        assert delta.as_dict() == {"hits": 3, "misses": 0, "stores": 0}
