"""Caches left behind by the retired out-of-core (row-shard) tier.

Earlier releases split severity at 2,000 nodes and more into per-row-slice
``severity_shard`` entries stored in the raw ``.npy`` layout (see
:meth:`~repro.experiments.cache.ArtifactCache.store_raw`).  No node writes
either any more.  The raw layout still round-trips, memory-mapped, and
``repro cache prune`` clears both out of a long-lived cache and leaves the
live entries beside them alone.
"""

import numpy as np

from repro.artifacts import prune_cache
from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext

CONFIG = ExperimentConfig(n_nodes=24)
N_ROWS = 12


def _shard_params(index: int) -> dict:
    return {"preset": "ds2_like", "n_nodes": 24, "seed": 0, "shard": index, "shards": 2}


def _store_shard(cache: ArtifactCache, kind: str, index: int) -> None:
    arrays = {
        "severity": np.zeros((N_ROWS, 24)),
        "violation_counts": np.zeros((N_ROWS, 24), dtype=np.int64),
    }
    meta = {"start": index * N_ROWS, "stop": (index + 1) * N_ROWS, "n_nodes": 24}
    cache.store_raw(kind, _shard_params(index), arrays, meta=meta)


class TestRawCacheLayout:
    def test_store_load_roundtrip_memmaps(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        arrays = {"severity": np.arange(12.0).reshape(3, 4), "counts": np.ones((3, 4))}
        cache.store_raw("dataset", {"a": 1}, arrays, meta={"start": 0, "stop": 3})
        entry = cache.load_raw("dataset", {"a": 1})
        assert entry is not None
        assert isinstance(entry.arrays["severity"], np.memmap)
        assert np.array_equal(entry.arrays["severity"], arrays["severity"])
        assert entry.meta["start"] == 0

    def test_corrupt_raw_entry_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store_raw("dataset", {"a": 2}, {"x": np.ones(3)}, meta={})
        [npy] = list((tmp_path / "cache" / "dataset").glob("*__x.npy"))
        npy.write_bytes(b"garbage")
        assert cache.load_raw("dataset", {"a": 2}) is None
        assert not list((tmp_path / "cache" / "dataset").iterdir())

    def test_missing_raw_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store_raw("dataset", {"a": 3}, {"x": np.ones(3)}, meta={})
        [npy] = list((tmp_path / "cache" / "dataset").glob("*__x.npy"))
        npy.unlink()
        assert cache.load_raw("dataset", {"a": 3}) is None


class TestPruneShards:
    def test_orphaned_shard_arrays_pruned(self, tmp_path):
        cache_dir = tmp_path / "cache"
        ExperimentContext(CONFIG, cache=ArtifactCache(cache_dir)).severity
        kept = prune_cache(cache_dir).kept
        cache = ArtifactCache(cache_dir)
        for index in range(2):
            _store_shard(cache, "severity_shard", index)
        kind_dir = cache_dir / "severity_shard"
        # Orphan one shard entry: metadata gone, arrays left behind.
        orphan = sorted(kind_dir.glob("*.json"))[0]
        orphan.unlink()
        report = prune_cache(cache_dir)
        reasons = {entry.name: entry.reason for entry in report.pruned}
        orphaned = [name for name in reasons if name.startswith(orphan.stem)]
        assert sorted(orphaned) == [
            f"{orphan.stem}__severity.npy",
            f"{orphan.stem}__violation_counts.npy",
        ]
        assert all(reasons[name] == "stray file (no .json metadata)" for name in orphaned)
        assert len(reasons) == 3
        assert not list(kind_dir.iterdir())
        assert report.kept == kept
        # The dense severity entry beside them still hits.
        warm = ArtifactCache(cache_dir)
        ExperimentContext(CONFIG, cache=warm).severity
        assert warm.stats.misses == 0

    def test_raw_entry_missing_array_pruned(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _store_shard(ArtifactCache(cache_dir), "severity", 0)
        kind_dir = cache_dir / "severity"
        victim = next(kind_dir.glob("*__severity.npy"))
        victim.unlink()
        report = prune_cache(cache_dir, dry_run=True)
        assert [entry.reason for entry in report.pruned] == ["retired raw (memory-mapped) layout"]
        assert len(list(kind_dir.iterdir())) == 2
        prune_cache(cache_dir)
        assert not list(kind_dir.iterdir())
