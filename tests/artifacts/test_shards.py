"""Tests of the out-of-core artifact tier (repro.artifacts.shards).

The headline contracts:

* the stitched sharded severity/shortest artifacts are bit-for-bit equal
  to the dense path below the threshold (and the dense path's addresses
  never move — warm unsharded caches keep hitting);
* shard entries round-trip through the raw ``.npy`` cache layout and come
  back memory-mapped;
* orphaned shard files are pruned;
* the landmark shortest-path approximation stays an upper bound.
"""

import numpy as np
import pytest

import repro.artifacts.shards as shards_mod
from repro.artifacts import (
    ArtifactKey,
    ShardPart,
    StitchedMatrix,
    prune_cache,
    shard_count,
    shard_slices,
    stitch_parts,
)
from repro.budget import auto_chunk_size, budget_bytes, peak_rss_mb
from repro.errors import ConfigError
from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext


@pytest.fixture
def sharded(monkeypatch):
    """Force the shard tier on at harness scale."""
    monkeypatch.setattr(shards_mod, "SHARD_NODE_THRESHOLD", 64)


class TestBudget:
    def test_default_budget(self):
        assert budget_bytes(None) == 2048 * 1024 * 1024
        assert budget_bytes(256) == 256 * 1024 * 1024

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            budget_bytes(8)

    def test_auto_chunk_single_pass_at_harness_scale(self):
        # The default budget must keep every harness-scale severity run a
        # single chunk, i.e. bit-identical to the pre-budget code path.
        for n in (64, 240, 400, 2000):
            assert auto_chunk_size(n) == n

    def test_auto_chunk_shrinks_under_tight_budget(self):
        chunk = auto_chunk_size(4000, memory_budget_mb=64)
        assert 64 <= chunk < 4000

    def test_peak_rss_positive(self):
        assert peak_rss_mb() > 0


class TestShardPlan:
    def test_below_threshold_never_shards(self):
        assert shard_count(400) == 1
        assert shard_count(1999) == 1

    def test_at_threshold_shards(self):
        assert shard_count(2000) >= 2

    def test_budget_drives_count(self):
        assert shard_count(5000, memory_budget_mb=64) > shard_count(
            5000, memory_budget_mb=2048
        )

    def test_slices_partition(self):
        slices = shard_slices(103, 4)
        assert slices[0][0] == 0
        assert slices[-1][1] == 103
        for (_, stop), (start, _) in zip(slices, slices[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in slices]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            shard_slices(4, 5)
        with pytest.raises(ValueError):
            shard_count(0)


class TestStitchedMatrix:
    def _stitched(self, n=30, cols=30, blocks=3, seed=0):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(n, cols))
        splits = np.array_split(dense, blocks, axis=0)
        return dense, StitchedMatrix(splits)

    def test_dense_roundtrip(self):
        dense, view = self._stitched()
        assert view.shape == dense.shape
        assert np.array_equal(np.asarray(view), dense)

    def test_row_indexing(self):
        dense, view = self._stitched()
        assert np.array_equal(view[0], dense[0])
        assert np.array_equal(view[-1], dense[-1])
        assert np.array_equal(view[4:17], dense[4:17])
        assert np.array_equal(view[::3], dense[::3])

    def test_fancy_rows(self):
        dense, view = self._stitched()
        idx = np.array([29, 0, 11, 11])
        assert np.array_equal(view[idx], dense[idx])
        mask = np.zeros(30, dtype=bool)
        mask[[2, 9, 25]] = True
        assert np.array_equal(view[mask], dense[mask])

    def test_pair_indexing(self):
        dense, view = self._stitched()
        iu = np.triu_indices(30, k=1)
        assert np.array_equal(view[iu], dense[iu])
        assert view[3, 7] == dense[3, 7]
        assert np.array_equal(view[5:20, 4], dense[5:20, 4])
        assert np.array_equal(view[np.array([1, 28]), 2:5], dense[np.array([1, 28]), 2:5])

    def test_out_of_range(self):
        _, view = self._stitched()
        with pytest.raises(IndexError):
            view[30]
        with pytest.raises(IndexError):
            view[np.array([0, 31]), np.array([0, 0])]

    def test_contiguity_enforced(self):
        part = ShardPart({"x": np.zeros((3, 5))}, {"start": 4, "stop": 7})
        with pytest.raises(ValueError):
            stitch_parts([part], "x")


class TestRawCacheLayout:
    def test_store_load_roundtrip_memmaps(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        arrays = {"severity": np.arange(12.0).reshape(3, 4), "counts": np.ones((3, 4))}
        cache.store_raw("severity_shard", {"a": 1}, arrays, meta={"start": 0, "stop": 3})
        entry = cache.load_raw("severity_shard", {"a": 1})
        assert entry is not None
        assert isinstance(entry.arrays["severity"], np.memmap)
        assert np.array_equal(entry.arrays["severity"], arrays["severity"])
        assert entry.meta["start"] == 0
        assert cache.contains("severity_shard", {"a": 1})

    def test_corrupt_raw_entry_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store_raw("severity_shard", {"a": 2}, {"x": np.ones(3)}, meta={})
        [npy] = list((tmp_path / "cache" / "severity_shard").glob("*__x.npy"))
        npy.write_bytes(b"garbage")
        assert cache.load_raw("severity_shard", {"a": 2}) is None
        assert not cache.contains("severity_shard", {"a": 2})

    def test_missing_raw_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.store_raw("severity_shard", {"a": 3}, {"x": np.ones(3)}, meta={})
        [npy] = list((tmp_path / "cache" / "severity_shard").glob("*__x.npy"))
        npy.unlink()
        assert cache.load_raw("severity_shard", {"a": 3}) is None


class TestShardedArtifacts:
    CONFIG = ExperimentConfig(n_nodes=96, memory_budget_mb=64)

    def _dense_severity(self):
        ctx = ExperimentContext(ExperimentConfig(n_nodes=96))
        return ctx.severity

    def test_sharded_severity_bit_identical(self, sharded, tmp_path):
        ctx = ExperimentContext(self.CONFIG, cache=ArtifactCache(tmp_path / "c"))
        stitched = ctx.severity
        assert isinstance(stitched.severity, StitchedMatrix)
        dense = self._dense_severity()
        assert np.array_equal(
            np.asarray(stitched.severity), np.asarray(dense.severity), equal_nan=True
        )
        assert np.array_equal(
            np.asarray(stitched.violation_counts), np.asarray(dense.violation_counts)
        )

    def test_severity_result_api_works_on_stitched(self, sharded, tmp_path):
        ctx = ExperimentContext(self.CONFIG, cache=ArtifactCache(tmp_path / "c"))
        stitched, dense = ctx.severity, self._dense_severity()
        assert np.array_equal(
            stitched.edge_severities(), dense.edge_severities(), equal_nan=True
        )
        assert stitched.summary() == dense.summary()

    def test_warm_run_memmapped_no_misses(self, sharded, tmp_path):
        cold = ArtifactCache(tmp_path / "c")
        ExperimentContext(self.CONFIG, cache=cold).severity
        warm = ArtifactCache(tmp_path / "c")
        ctx = ExperimentContext(self.CONFIG, cache=warm)
        result = ctx.severity
        assert warm.stats.misses == 0
        assert warm.stats.stores == 0
        assert all(isinstance(b, np.memmap) for b in result.severity.blocks)
        # Shard memos are released once the stitched view exists.
        assert not any(
            key.node == "severity_shard" for key in ctx._values
        )

    def test_uncached_in_process_run_keeps_shards_memory_mapped(self, sharded, monkeypatch):
        # Out-of-core needs a cache directory.  A run without --cache-dir
        # works through its scratch cache at every job count, so even an
        # in-process run hands the runners memory-mapped shard rows.
        from repro.experiments import registry
        from repro.experiments.engine import run_experiments
        from repro.experiments.result import ExperimentResult

        mapped = []

        def _probe(config=None, *, context=None, **kwargs):
            blocks = context.severity.severity.blocks
            mapped.append([isinstance(block, np.memmap) for block in blocks])
            return ExperimentResult(experiment_id="fig03", title="shard probe", data={})

        monkeypatch.setitem(
            registry._REGISTRY,
            "fig03",
            registry.RegisteredExperiment(_probe, frozenset({"matrix", "severity"})),
        )
        run_experiments(self.CONFIG, only=["fig03"], jobs=1)
        assert mapped == [[True, True]]

    def test_sharded_severity_bit_identical_at_400(self, monkeypatch, tmp_path):
        # The ISSUE-pinned scale point: a 400-node matrix, sharded (by
        # lowering the threshold to cover it), stitches back bit-for-bit.
        monkeypatch.setattr(shards_mod, "SHARD_NODE_THRESHOLD", 400)
        config = ExperimentConfig(n_nodes=400, memory_budget_mb=64)
        ctx = ExperimentContext(config, cache=ArtifactCache(tmp_path / "c"))
        stitched = ctx.severity
        assert stitched.severity.n_blocks >= 2
        dense = ExperimentContext(ExperimentConfig(n_nodes=400)).severity
        assert np.array_equal(
            np.asarray(stitched.severity), np.asarray(dense.severity), equal_nan=True
        )
        assert np.array_equal(
            np.asarray(stitched.violation_counts), np.asarray(dense.violation_counts)
        )

    def test_landmark_shortest_is_upper_bound(self, sharded, tmp_path):
        from repro.delayspace.shortest_path import shortest_path_matrix

        ctx = ExperimentContext(self.CONFIG, cache=ArtifactCache(tmp_path / "c"))
        approx = np.asarray(ctx.shortest_paths)
        truth = shortest_path_matrix(ExperimentContext(ExperimentConfig(n_nodes=96)).matrix)
        assert np.all(approx >= truth - 1e-9)
        finite = np.isfinite(truth) & (truth > 0)
        rel_err = (approx[finite] - truth[finite]) / truth[finite]
        # Landmark estimates are exact on landmark rows and loose elsewhere;
        # the mean error bound pins approximation quality, not exactness.
        assert float(rel_err.mean()) < 0.6

    def test_unsharded_addresses_unchanged_by_budget(self):
        # The memory budget must never move a below-threshold cache address:
        # a warm cache from a pre-shard run keeps hitting.
        from repro.artifacts.graph import resolve_artifact

        plain = ExperimentContext(ExperimentConfig(n_nodes=96))
        budgeted = ExperimentContext(self.CONFIG)
        for key in (ArtifactKey("severity", ("ds2_like", 96)), ArtifactKey("shortest")):
            assert (
                resolve_artifact(plain, key).address
                == resolve_artifact(budgeted, key).address
            )

    def test_warm_unsharded_cache_hits_after_upgrade(self, tmp_path):
        # Simulate a cache written before the shard tier existed: the exact
        # pre-PR parameter dicts must still address the same entries.
        cache = ArtifactCache(tmp_path / "c")
        ctx = ExperimentContext(ExperimentConfig(n_nodes=24, vivaldi_seconds=2), cache=cache)
        _ = ctx.severity
        _ = ctx.shortest_paths
        params_severity = ctx.artifact_params(ArtifactKey("severity", ("ds2_like", 24)))
        params_shortest = ctx.artifact_params(ArtifactKey("shortest"))
        assert "shards" not in params_severity
        assert "shards" not in params_shortest
        warm = ArtifactCache(tmp_path / "c")
        fresh = ExperimentContext(
            ExperimentConfig(n_nodes=24, vivaldi_seconds=2), cache=warm
        )
        _ = fresh.severity
        _ = fresh.shortest_paths
        assert warm.stats.misses == 0
        assert warm.stats.hits >= 2


class TestPruneShards:
    def test_orphaned_shard_arrays_pruned(self, tmp_path, sharded):
        cache_dir = tmp_path / "cache"
        config = ExperimentConfig(n_nodes=96, memory_budget_mb=64)
        ExperimentContext(config, cache=ArtifactCache(cache_dir)).severity
        kind_dir = cache_dir / "severity_shard"
        jsons = list(kind_dir.glob("*.json"))
        assert jsons
        # Orphan one shard entry: metadata gone, arrays left behind.
        orphan_stem = jsons[0].stem
        jsons[0].unlink()
        report = prune_cache(cache_dir)
        pruned_names = {entry.name for entry in report.pruned}
        assert any(name.startswith(orphan_stem) for name in pruned_names)
        assert not list(kind_dir.glob(f"{orphan_stem}__*.npy"))
        # Only the orphaned shard recomputes; the survivors still hit.
        warm = ArtifactCache(cache_dir)
        ExperimentContext(config, cache=warm).severity
        assert warm.stats.misses == 1

    def test_raw_entry_missing_array_pruned(self, tmp_path, sharded):
        cache_dir = tmp_path / "cache"
        config = ExperimentConfig(n_nodes=96, memory_budget_mb=64)
        ExperimentContext(config, cache=ArtifactCache(cache_dir)).severity
        kind_dir = cache_dir / "severity_shard"
        victim = sorted(kind_dir.glob("*__severity.npy"))[0]
        victim.unlink()
        report = prune_cache(cache_dir, dry_run=True)
        assert any("missing array file" in entry.reason for entry in report.pruned)


class TestConfigBudget:
    def test_budget_floor_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(memory_budget_mb=16)

    def test_budget_accepted(self):
        assert ExperimentConfig(memory_budget_mb=256).memory_budget_mb == 256
