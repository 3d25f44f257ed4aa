"""Tests for the repro.serve query-serving benchmark tier."""

import json

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import (
    SERVING_SCHEMA,
    ServingWorkload,
    build_warm_context,
    run_serving_benchmark,
    summarize_latencies,
)
from repro.serve.loadgen import measure_stream
from repro.serve.workload import FAMILIES, MODES, generate_query_batches

#: One small workload shared by the expensive fixtures.
TINY = ServingWorkload(
    n_nodes=32, warm_duration=8.0, batch=8, batches=2, warmup_batches=1
)


@pytest.fixture(scope="module")
def tiny_context():
    return build_warm_context(TINY)


@pytest.fixture(scope="module")
def tiny_report():
    return run_serving_benchmark(TINY)


class TestWorkloadValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_nodes=4),
            dict(warm_duration=0.0),
            dict(rate=0),
            dict(churn=1.0),
            dict(batch=0),
            dict(batches=0),
            dict(warmup_batches=-1),
            dict(k=0),
            dict(families=()),
            dict(families=("teleport",)),
            dict(modes=("quantum",)),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServingWorkload(**kwargs)

    def test_defaults_cover_all_families_and_modes(self):
        workload = ServingWorkload()
        assert workload.families == FAMILIES
        assert workload.modes == MODES

    def test_as_dict_round_trips_through_json(self):
        payload = TINY.as_dict()
        assert json.loads(json.dumps(payload)) == payload


class TestWarmContext:
    def test_warm_state_is_live(self, tiny_context):
        assert len(tiny_context.active_nodes) == TINY.n_nodes
        assert len(tiny_context.observed_edges) > 0
        assert tiny_context.service.embedding.observations > 0
        assert set(tiny_context.meridian_ids).isdisjoint(tiny_context.meridian_targets)

    def test_query_batches_are_deterministic(self, tiny_context):
        for family in FAMILIES:
            a = generate_query_batches(TINY, tiny_context, family)
            b = generate_query_batches(TINY, tiny_context, family)
            assert a == b
            assert len(a) == TINY.warmup_batches + TINY.batches
            assert all(len(batch) == TINY.batch for batch in a)

    def test_unknown_family_rejected(self, tiny_context):
        with pytest.raises(ServeError, match="unknown family"):
            generate_query_batches(TINY, tiny_context, "teleport")

    def test_meridian_batches_share_one_ingress(self, tiny_context):
        batches = generate_query_batches(TINY, tiny_context, "meridian_closest")
        for batch in batches:
            starts = {start for _, start in batch}
            assert len(starts) == 1
            assert starts <= set(tiny_context.meridian_ids)


class TestMeasurement:
    def test_modes_answer_identical_queries(self, tiny_context):
        # Both modes replay the same stream: in every family the batched
        # answers must match the scalar answers query for query.
        from repro.serve.loadgen import _answer_batch, _answer_one

        for family in FAMILIES:
            for queries in generate_query_batches(TINY, tiny_context, family)[:2]:
                batched = _answer_batch(tiny_context, family, queries, TINY.k)
                scalar = [_answer_one(tiny_context, family, q, TINY.k) for q in queries]
                if family == "distance":
                    assert np.array_equal(batched, scalar), family
                else:
                    assert batched == scalar, family

    def test_measure_stream_summary_shape(self, tiny_context):
        summary = measure_stream(tiny_context, TINY, "distance", "batched")
        assert summary.queries == TINY.batches * TINY.batch
        assert summary.qps > 0
        assert summary.best_seconds > 0
        assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms

    def test_unknown_mode_rejected(self, tiny_context):
        with pytest.raises(ServeError, match="unknown serving mode"):
            measure_stream(tiny_context, TINY, "closest", "quantum")


class TestLatencySummaries:
    def test_summarize_rejects_empty_stream(self):
        with pytest.raises(ServeError):
            summarize_latencies([], total_seconds=1.0, best_per_query_seconds=0.1)

    def test_percentiles_in_milliseconds(self):
        summary = summarize_latencies(
            [0.001] * 99 + [0.1], total_seconds=0.199, best_per_query_seconds=0.001
        )
        assert summary.queries == 100
        assert summary.p50_ms == pytest.approx(1.0)
        assert summary.p99_ms > summary.p50_ms


class TestServingReport:
    def test_rows_cover_every_family_and_mode(self, tiny_report):
        kernels = {row.as_dict()["kernel"] for row in tiny_report.rows}
        assert kernels == {
            f"serve_{family}_{mode}" for family in FAMILIES for mode in MODES
        }

    def test_speedups_cover_every_family(self, tiny_report):
        speedups = tiny_report.speedups()
        assert set(speedups) == set(FAMILIES)
        for per_size in speedups.values():
            assert set(per_size) == {str(TINY.n_nodes)}
            assert all(value > 0 for value in per_size.values())

    def test_payload_is_gate_compatible(self, tiny_report, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        tiny_report.write(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == SERVING_SCHEMA
        # The report schema: every row keeps its name, size and best time.
        for row in payload["kernels"]:
            assert {"kernel", "size", "best_seconds", "qps"} <= set(row)
            assert row["best_seconds"] > 0
            assert row["qps"] == row["throughput"]
            assert {"p50_ms", "p95_ms", "p99_ms", "batch"} <= set(row)

    def test_sizes_override_reruns_per_size(self):
        small = ServingWorkload(
            n_nodes=24,
            warm_duration=5.0,
            batch=4,
            batches=1,
            warmup_batches=0,
            families=("distance",),
        )
        report = run_serving_benchmark(small, sizes=[24, 32])
        assert report.sizes == (24, 32)
        assert {row.size for row in report.rows} == {24, 32}
        assert set(report.speedups()["distance"]) == {"24", "32"}


class TestServeBenchCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured

    def test_serve_bench_writes_gateable_report(self, capsys, tmp_path):
        path = tmp_path / "BENCH_serving.json"
        code, captured = self._run(
            capsys,
            "serve-bench",
            "--sizes",
            "24",
            "--warm-duration",
            "5",
            "--batch",
            "4",
            "--batches",
            "1",
            "--warmup-batches",
            "0",
            "--families",
            "closest",
            "--report",
            str(path),
        )
        assert code == 0
        assert "wrote serving report" in captured.err
        payload = json.loads(captured.out)
        assert payload["schema"] == SERVING_SCHEMA
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        kernels = {row["kernel"] for row in on_disk["kernels"]}
        assert kernels == {"serve_closest_batched", "serve_closest_scalar"}

    def test_serve_bench_rejects_bad_sizes(self, capsys):
        code, captured = self._run(capsys, "serve-bench", "--sizes", "abc")
        assert code == 1
        assert "comma-separated integers" in captured.err

    def test_serve_bench_rejects_unknown_family(self, capsys):
        code, captured = self._run(
            capsys, "serve-bench", "--families", "teleport"
        )
        assert code == 1
        assert "unknown family" in captured.err

