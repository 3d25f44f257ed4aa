"""Tests for ``repro cache prune`` (repro.artifacts.prune)."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.artifacts import ArtifactKey, prune_cache
from repro.experiments.cache import ArtifactCache, stable_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext

TINY = ExperimentConfig(n_nodes=24, vivaldi_seconds=2)


def _populate(cache_dir):
    cache = ArtifactCache(cache_dir)
    context = ExperimentContext(TINY, cache=cache)
    _ = context.severity
    _ = context.vivaldi
    return cache


class TestLiveEntriesSurvive:
    def test_live_cache_is_untouched(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _populate(cache_dir)
        report = prune_cache(cache_dir)
        assert report.pruned == []
        assert report.kept >= 3
        # Everything still hits afterwards.
        counting = ArtifactCache(cache_dir)
        fresh = ExperimentContext(TINY, cache=counting)
        _ = fresh.severity
        _ = fresh.vivaldi
        assert counting.stats.misses == 0
        assert counting.stats.hits >= 3

    def test_missing_root_is_a_noop(self, tmp_path):
        report = prune_cache(tmp_path / "nope")
        assert report.scanned == 0


class TestStaleEraEviction:
    def test_pre_kernel_era_entry_is_pruned(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ArtifactCache(cache_dir)
        # A vivaldi entry written before the kernel switch existed: its
        # params lack the "kernel" key every live entry now carries.
        old_params = {"preset": "ds2_like", "n_nodes": 24, "seed": 0, "vivaldi_seconds": 2}
        cache.store(
            "vivaldi",
            old_params,
            {"coordinates": np.zeros((24, 3)), "errors": np.ones(24)},
            meta={"simulation_time": 2.0},
        )
        report = prune_cache(cache_dir)
        assert [entry.reason for entry in report.pruned] == [
            "pre-'kernel'-era entry (parameter absent)"
        ]
        assert not list((cache_dir / "vivaldi").iterdir())

    def test_retired_kernel_value_is_pruned(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ArtifactCache(cache_dir)
        params = {"preset": "ds2_like", "n_nodes": 24, "seed": 0, "kernel": "turbo"}
        cache.store("ides", params, {"outgoing": np.zeros((24, 4)), "incoming": np.zeros((24, 4))})
        report = prune_cache(cache_dir)
        assert len(report.pruned) == 1
        assert "retired 'kernel' value" in report.pruned[0].reason

    def test_reference_kernel_entries_are_pruned(self, tmp_path):
        # Experiment runs write only batched-kernel entries, so the
        # reference-kernel entries older releases wrote are retired; the
        # batched entries beside them stay live.
        cache_dir = tmp_path / "cache"
        cache = ArtifactCache(cache_dir)
        context = ExperimentContext(TINY, cache=cache)
        retired = set()
        for node in ("vivaldi", "ides", "lat"):
            key = ArtifactKey(node)
            context.materialize(key)
            params = context.artifact_params(key)
            assert params["kernel"] == "batched"
            reference = {
                name: "reference" if name in ("kernel", "coords_kernel") else value
                for name, value in params.items()
            }
            cache.store(node, reference, {"unused": np.zeros(1)})
            retired.add((node, stable_key(node, reference)))
        report = prune_cache(cache_dir)
        assert {(entry.kind, entry.name) for entry in report.pruned} == retired
        assert {entry.reason for entry in report.pruned} == {
            "retired 'kernel' value 'reference'"
        }
        counting = ArtifactCache(cache_dir)
        fresh = ExperimentContext(TINY, cache=counting)
        for node in ("vivaldi", "ides", "lat"):
            fresh.materialize(ArtifactKey(node))
        assert counting.stats.misses == 0

    def test_raw_layout_entries_are_pruned(self, tmp_path):
        # No node writes the memory-mapped raw layout any more, so prune
        # evicts its entries, array files included, and array files left
        # without metadata; the live entries beside them stay.
        cache_dir = tmp_path / "cache"
        _populate(cache_dir)
        kept = prune_cache(cache_dir).kept
        params = {"preset": "ds2_like", "n_nodes": 24, "seed": 0, "shard": 0, "shards": 2}
        ArtifactCache(cache_dir).store_raw("severity", params, {"severity": np.zeros((12, 24))})
        (cache_dir / "severity" / f"{'f' * 32}__severity.npy").write_bytes(b"orphan")
        report = prune_cache(cache_dir)
        assert sorted(entry.reason for entry in report.pruned) == [
            "retired raw (memory-mapped) layout",
            "stray file (no .json metadata)",
        ]
        assert report.kept == kept
        assert not list(cache_dir.glob("*/*.npy"))
        counting = ArtifactCache(cache_dir)
        _ = ExperimentContext(TINY, cache=counting).severity
        assert counting.stats.misses == 0

    def test_retired_schema_address_is_pruned(self, tmp_path):
        # An entry whose stored params no longer hash to its file name was
        # written under a different CACHE_SCHEMA tag.
        cache_dir = tmp_path / "cache" / "dataset"
        cache_dir.mkdir(parents=True)
        params = {"preset": "ds2_like", "n_nodes": 24, "seed": 0}
        stale_name = "0" * 32
        assert stable_key("dataset", params) != stale_name
        (cache_dir / f"{stale_name}.json").write_text(
            json.dumps({"kind": "dataset", "params": params, "meta": {}}),
            encoding="utf-8",
        )
        (cache_dir / f"{stale_name}.npz").write_bytes(b"whatever")
        report = prune_cache(cache_dir.parent)
        assert len(report.pruned) == 1
        assert "retired cache schema" in report.pruned[0].reason

    def test_unknown_kind_orphans_and_garbage_are_pruned(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _populate(cache_dir)
        (cache_dir / "oldkind").mkdir()
        (cache_dir / "oldkind" / "x.json").write_text("{}", encoding="utf-8")
        (cache_dir / "oldkind" / "x.npz").write_bytes(b"")
        (cache_dir / "dataset" / "orphan.npz").write_bytes(b"data")
        (cache_dir / "severity" / "bad.json").write_text("{not json", encoding="utf-8")
        (cache_dir / "severity" / "bad.npz").write_bytes(b"data")
        report = prune_cache(cache_dir)
        reasons = sorted(entry.reason for entry in report.pruned)
        assert len(report.pruned) == 3
        assert any("no registered artifact node" in reason for reason in reasons)
        assert any("orphaned archive" in reason for reason in reasons)
        assert any("unreadable or malformed" in reason for reason in reasons)
        # The live entries survived.
        counting = ArtifactCache(cache_dir)
        context = ExperimentContext(TINY, cache=counting)
        _ = context.severity
        assert counting.stats.misses == 0


class TestAbandonedTempFiles:
    @pytest.mark.parametrize(
        "method, dying_replace",
        [("store", 0), ("store", 1), ("store_raw", 0)],
        ids=["npz-archive", "json-metadata", "raw-array"],
    )
    def test_temp_file_of_a_killed_store_is_pruned(self, tmp_path, method, dying_replace):
        cache_dir = tmp_path / "cache"
        _populate(cache_dir)
        kept = prune_cache(cache_dir).kept

        def killed_mid_store():
            # The worker dies between writing a temp file and the
            # os.replace that would publish it (an OOM kill or segfault).
            real_replace, done = os.replace, []

            def replace(*args):
                if len(done) == dying_replace:
                    os._exit(1)
                done.append(args)
                real_replace(*args)

            os.replace = replace
            getattr(ArtifactCache(cache_dir), method)(
                "dataset", {"n": 4}, {"delays": np.eye(4)}
            )

        worker = multiprocessing.get_context("fork").Process(target=killed_mid_store)
        worker.start()
        worker.join()
        assert worker.exitcode == 1
        (leftover,) = (cache_dir / "dataset").glob(".tmp-*")

        report = prune_cache(cache_dir, dry_run=True)
        temp_entries = [e for e in report.pruned if e.name == leftover.name]
        assert [e.kind for e in temp_entries] == ["dataset"]
        assert "abandoned temp file" in temp_entries[0].reason
        assert leftover.exists()

        report = prune_cache(cache_dir)
        assert report.kept == kept
        assert not list(cache_dir.glob("*/.tmp-*"))
        counting = ArtifactCache(cache_dir)
        _ = ExperimentContext(TINY, cache=counting).severity
        assert counting.stats.misses == 0


class TestDryRun:
    def test_dry_run_reports_without_deleting(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = ArtifactCache(cache_dir)
        params = {"preset": "ds2_like", "n_nodes": 24, "seed": 0}
        cache.store("vivaldi", params, {"coordinates": np.zeros((24, 3))})
        before = sorted(p.name for p in (cache_dir / "vivaldi").iterdir())
        report = prune_cache(cache_dir, dry_run=True)
        assert len(report.pruned) == 1
        assert report.dry_run
        assert sorted(p.name for p in (cache_dir / "vivaldi").iterdir()) == before


class TestReportShape:
    def test_as_dict(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _populate(cache_dir)
        payload = prune_cache(cache_dir).as_dict()
        assert payload["scanned"] == payload["kept"] + payload["pruned"]
        assert payload["entries"] == []
        assert not payload["dry_run"]


class TestEraParamsDeclarations:
    def test_kernel_carrying_nodes_declare_eras(self):
        from repro.artifacts import get_node

        for name in ("vivaldi", "alert", "ides"):
            assert "kernel" in get_node(name).era_params, name
        assert "coords_kernel" in get_node("lat").era_params

    def test_artifact_key_labels(self):
        assert ArtifactKey("vivaldi").label == "vivaldi"
        assert ArtifactKey("dataset", ("ds2_like", 48)).label == "dataset[ds2_like,48]"
