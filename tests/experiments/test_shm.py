"""Parallel runs without a shared-memory artifact plane.

Workers hand every artifact to each other through the disk cache. These
tests pin that a warm parallel run over that cache is still all hits and
that nothing of the retired shared-memory transport shows up: its report
counters read zero and no ``.shm-*`` segment table appears in the cache.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import run_experiments

TINY = ExperimentConfig(
    n_nodes=48,
    vivaldi_seconds=8,
    selection_runs=1,
    max_clients=16,
    meridian_small_count=10,
)


class TestEngineIntegration:
    def test_warm_parallel_run_stays_all_cache_hits(self, tmp_path):
        cache_dir = tmp_path / "c"
        run_experiments(TINY, only=["fig03", "fig19"], jobs=2, cache_dir=cache_dir)
        warm = run_experiments(TINY, only=["fig03", "fig19"], jobs=2, cache_dir=cache_dir)
        totals = warm.report.as_dict()["totals"]
        assert totals["all_cache_hits"], totals
        assert totals["cache"]["misses"] == 0
        assert not any(totals["artifacts"]["shm"].values())
        assert not list(cache_dir.glob(".shm-*"))
