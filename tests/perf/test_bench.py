"""Tests for the repro.perf benchmark subsystem."""

import json

import numpy as np
import pytest

from repro.perf.bench import SCHEMA, run_benchmarks, write_report
from repro.perf.kernels import (
    BenchmarkError,
    available_kernels,
    get_kernel,
    kernel_families,
    resolve_kernel_names,
)

#: Small enough that every kernel runs in milliseconds.
TINY = 24


class TestKernelRegistry:
    def test_expected_kernels_registered(self):
        names = available_kernels()
        for family in (
            "vivaldi_step",
            "ides_fit",
            "lat_adjust",
            "meridian_build",
            "meridian_query",
            "stream_closest",
        ):
            assert f"{family}_batched" in names
            assert f"{family}_reference" in names
        assert "tiv_severity" in names
        assert "ring_misplacement" in names
        assert "violating_triangles" in names
        assert "shortest_paths" in names
        assert "scenario_generation" in names

    def test_unknown_kernel_raises(self):
        with pytest.raises(BenchmarkError):
            get_kernel("warp_drive")

    def test_kernel_families_pair_batched_with_reference(self):
        families = kernel_families()
        assert set(families) == {
            "vivaldi_step",
            "ides_fit",
            "lat_adjust",
            "meridian_build",
            "meridian_query",
            "stream_closest",
        }
        for family, (batched, reference) in families.items():
            assert batched == f"{family}_batched"
            assert reference == f"{family}_reference"

    def test_resolve_kernel_names_expands_families_and_commas(self):
        assert resolve_kernel_names(["ides_fit"]) == (
            "ides_fit_batched",
            "ides_fit_reference",
        )
        assert resolve_kernel_names(["ides_fit,vivaldi_step", "tiv_severity"]) == (
            "ides_fit_batched",
            "ides_fit_reference",
            "vivaldi_step_batched",
            "vivaldi_step_reference",
            "tiv_severity",
        )
        # Plain names pass through; duplicates collapse in first-seen order.
        assert resolve_kernel_names(["lat_adjust_batched", "lat_adjust"]) == (
            "lat_adjust_batched",
            "lat_adjust_reference",
        )

    def test_resolve_kernel_names_rejects_unknown(self):
        with pytest.raises(BenchmarkError):
            resolve_kernel_names(["warp_drive"])
        with pytest.raises(BenchmarkError):
            resolve_kernel_names(["ides_fit,warp_drive"])

    @pytest.mark.parametrize("name", available_kernels())
    def test_every_kernel_sets_up_and_runs(self, name):
        run, work = get_kernel(name).setup(TINY, seed=0)
        assert work > 0
        run()  # must execute without error

    def test_vivaldi_kernels_advance_the_simulation(self):
        run, _ = get_kernel("vivaldi_step_batched").setup(TINY, seed=0)
        movement = run()
        assert isinstance(movement, np.ndarray)
        assert movement.shape == (TINY,)


class TestRunBenchmarks:
    def test_report_structure(self):
        report = run_benchmarks(
            kernels=["vivaldi_step_batched", "tiv_severity"],
            sizes=[TINY],
            repeats=2,
            warmup=0,
        )
        assert report.sizes == (TINY,)
        assert len(report.timings) == 2
        for row in report.timings:
            assert row.best_seconds > 0
            assert row.mean_seconds >= row.best_seconds
            assert row.throughput > 0
            assert row.repeats == 2

    def test_timing_lookup(self):
        report = run_benchmarks(
            kernels=["vivaldi_step_batched"], sizes=[TINY], repeats=1, warmup=0
        )
        assert report.timing("vivaldi_step_batched", TINY) is not None
        assert report.timing("vivaldi_step_batched", 999) is None
        assert report.timing("tiv_severity", TINY) is None

    def test_speedups_grouped_by_family(self):
        report = run_benchmarks(
            kernels=[
                "ides_fit_batched",
                "ides_fit_reference",
                "lat_adjust_batched",
                "tiv_severity",
            ],
            sizes=[TINY],
            repeats=1,
            warmup=0,
        )
        speedups = report.speedups()
        # Only complete pairs produce a family entry; unpaired and
        # pairless kernels are absent.
        assert set(speedups) == {"ides_fit"}
        assert set(speedups["ides_fit"]) == {str(TINY)}
        assert speedups["ides_fit"][str(TINY)] > 0

    def test_as_dict_schema(self):
        report = run_benchmarks(
            kernels=["vivaldi_step_batched"], sizes=[TINY], repeats=1, warmup=0
        )
        payload = report.as_dict()
        assert payload["schema"] == SCHEMA
        assert payload["sizes"] == [TINY]
        assert set(payload["environment"]) == {"python", "numpy", "machine"}
        assert payload["kernels"][0]["kernel"] == "vivaldi_step_batched"
        assert "speedups" in payload
        assert "vivaldi_speedup" not in payload

    def test_write_report_round_trips(self, tmp_path):
        report = run_benchmarks(
            kernels=["vivaldi_step_batched"], sizes=[TINY], repeats=1, warmup=0
        )
        path = tmp_path / "BENCH_perf.json"
        write_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SCHEMA
        assert loaded["kernels"] == [row.as_dict() for row in report.timings]

    def test_invalid_arguments(self):
        with pytest.raises(BenchmarkError):
            run_benchmarks(sizes=[])
        with pytest.raises(BenchmarkError):
            run_benchmarks(sizes=[4])
        with pytest.raises(BenchmarkError):
            run_benchmarks(sizes=[TINY], repeats=0)
        with pytest.raises(BenchmarkError):
            run_benchmarks(sizes=[TINY], warmup=-1)
        with pytest.raises(BenchmarkError):
            run_benchmarks(kernels=["nope"], sizes=[TINY])


class TestBenchCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured

    def test_bench_emits_json(self, capsys):
        code, captured = self._run(
            capsys,
            "bench",
            "--sizes",
            str(TINY),
            "--kernels",
            "vivaldi_step_batched",
            "vivaldi_step_reference",
            "--repeats",
            "1",
            "--warmup",
            "0",
        )
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["schema"] == SCHEMA
        assert str(TINY) in payload["speedups"]["vivaldi_step"]

    def test_bench_writes_report_file(self, capsys, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        code, captured = self._run(
            capsys,
            "bench",
            "--sizes",
            str(TINY),
            "--kernels",
            "tiv_severity",
            "--repeats",
            "1",
            "--warmup",
            "0",
            "--report",
            str(path),
        )
        assert code == 0
        assert "wrote bench report" in captured.err
        loaded = json.loads(path.read_text())
        assert loaded["kernels"][0]["kernel"] == "tiv_severity"

    def test_bench_accepts_family_and_comma_tokens(self, capsys):
        code, captured = self._run(
            capsys,
            "bench",
            "--sizes",
            str(TINY),
            "--kernels",
            "lat_adjust,tiv_severity",
            "--repeats",
            "1",
            "--warmup",
            "0",
        )
        assert code == 0
        payload = json.loads(captured.out)
        timed = {row["kernel"] for row in payload["kernels"]}
        assert timed == {"lat_adjust_batched", "lat_adjust_reference", "tiv_severity"}
        assert str(TINY) in payload["speedups"]["lat_adjust"]

    def test_bench_rejects_unknown_kernel_token(self, capsys):
        code, captured = self._run(capsys, "bench", "--kernels", "warp_drive")
        assert code == 1
        assert "unknown benchmark kernel" in captured.err

    def test_bench_rejects_bad_sizes(self, capsys):
        code, captured = self._run(capsys, "bench", "--sizes", "abc")
        assert code == 1
        assert "comma-separated integers" in captured.err

    def test_bench_rejects_too_small_sizes(self, capsys):
        code, captured = self._run(capsys, "bench", "--sizes", "4")
        assert code == 1
        assert "error:" in captured.err
