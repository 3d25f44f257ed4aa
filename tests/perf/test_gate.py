"""Tests for the repro.perf.gate CI perf-regression gate."""

import json

import pytest

from repro.perf.bench import SCHEMA
from repro.perf.gate import (
    DEFAULT_THRESHOLD,
    compare_reports,
    format_table,
    load_report,
    regressions,
)
from repro.perf.kernels import BenchmarkError, available_kernels, kernel_families


def report_with(rows: list[tuple[str, int, float]]) -> dict:
    return {
        "schema": SCHEMA,
        "kernels": [
            {"kernel": kernel, "size": size, "best_seconds": best}
            for kernel, size, best in rows
        ],
    }


class TestLoadReport:
    def test_round_trips_a_written_report(self, tmp_path):
        path = tmp_path / "report.json"
        payload = report_with([("ides_fit_batched", 100, 0.01)])
        path.write_text(json.dumps(payload))
        assert load_report(str(path)) == payload

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BenchmarkError, match="does not exist"):
            load_report(str(tmp_path / "nope.json"))

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_report(str(path))

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "something-else/9", "kernels": []}))
        with pytest.raises(BenchmarkError, match="schema"):
            load_report(str(path))

    def test_committed_baseline_loads(self):
        # The repo's own trajectory file must always satisfy the gate's
        # schema expectations — CI compares against it on every PR.
        report = load_report("BENCH_perf.json")
        assert report["kernels"]

    def test_committed_baseline_matches_the_kernel_registry(self):
        # The gate never fails on baseline-only ("missing") or fresh-only
        # ("new") rows, so this keeps the baseline in step with the
        # registry: no rows for deleted kernels, every kernel gated at the
        # sizes bench-smoke times, one speedup entry per kernel family.
        report = load_report("BENCH_perf.json")
        registered = set(available_kernels())
        rows = {(row["kernel"], row["size"]) for row in report["kernels"]}
        assert {kernel for kernel, _ in rows} - registered == set()
        for kernel in sorted(registered):
            assert {(kernel, 100), (kernel, 200)} <= rows, kernel
        assert set(report["speedups"]) == set(kernel_families())


class TestCompareReports:
    def test_ok_and_regression_statuses(self):
        baseline = report_with([("a", 100, 0.010), ("b", 100, 0.010)])
        current = report_with([("a", 100, 0.020), ("b", 100, 0.030)])
        rows = compare_reports(baseline, current, threshold=2.5)
        by_kernel = {row.kernel: row for row in rows}
        assert by_kernel["a"].status == "ok"
        assert by_kernel["a"].ratio == pytest.approx(2.0)
        assert by_kernel["b"].status == "regression"
        assert by_kernel["b"].ratio == pytest.approx(3.0)
        assert [row.kernel for row in regressions(rows)] == ["b"]

    def test_boundary_is_not_a_regression(self):
        baseline = report_with([("a", 100, 0.010)])
        current = report_with([("a", 100, 0.025)])
        (row,) = compare_reports(baseline, current, threshold=2.5)
        assert row.status == "ok"

    def test_new_and_missing_pairs_never_fail(self):
        baseline = report_with([("a", 100, 0.010), ("a", 400, 0.040)])
        current = report_with([("a", 100, 0.010), ("brand_new", 100, 0.005)])
        rows = compare_reports(baseline, current)
        statuses = {(row.kernel, row.size): row.status for row in rows}
        assert statuses[("a", 100)] == "ok"
        assert statuses[("a", 400)] == "missing"
        assert statuses[("brand_new", 100)] == "new"
        assert not regressions(rows)

    def test_faster_current_is_ok(self):
        baseline = report_with([("a", 100, 0.100)])
        current = report_with([("a", 100, 0.001)])
        (row,) = compare_reports(baseline, current)
        assert row.status == "ok"
        assert row.ratio < 1.0

    def test_rows_sorted_by_kernel_then_size(self):
        baseline = report_with([("b", 200, 1.0), ("a", 400, 1.0), ("a", 100, 1.0)])
        rows = compare_reports(baseline, report_with([]))
        assert [(row.kernel, row.size) for row in rows] == [
            ("a", 100),
            ("a", 400),
            ("b", 200),
        ]

    def test_invalid_threshold_raises(self):
        baseline = report_with([("a", 100, 1.0)])
        with pytest.raises(BenchmarkError):
            compare_reports(baseline, baseline, threshold=1.0)

    def test_empty_reports_raise(self):
        with pytest.raises(BenchmarkError):
            compare_reports(report_with([]), report_with([]))


class TestFormatTable:
    def test_passing_table_contains_rows_and_verdict(self):
        rows = compare_reports(
            report_with([("a", 100, 0.010)]), report_with([("a", 100, 0.012)])
        )
        table = format_table(rows, threshold=DEFAULT_THRESHOLD)
        assert "✅" in table
        assert "| a | 100 |" in table
        assert "1.20x" in table

    def test_failing_table_flags_regressions(self):
        rows = compare_reports(
            report_with([("a", 100, 0.010)]), report_with([("a", 100, 0.050)])
        )
        table = format_table(rows)
        assert "❌" in table
        assert "regression" in table


class TestPerfGateCli:
    def _run(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured

    def _write(self, path, rows):
        path.write_text(json.dumps(report_with(rows)))
        return str(path)

    def test_gate_passes_and_prints_table(self, capsys, tmp_path):
        baseline = self._write(tmp_path / "base.json", [("a", 100, 0.010)])
        current = self._write(tmp_path / "cur.json", [("a", 100, 0.011)])
        code, captured = self._run(
            capsys, "perf-gate", "--baseline", baseline, "--current", current
        )
        assert code == 0
        assert "Perf gate" in captured.out
        assert "✅" in captured.out

    def test_gate_fails_on_regression(self, capsys, tmp_path):
        baseline = self._write(tmp_path / "base.json", [("a", 100, 0.010)])
        current = self._write(tmp_path / "cur.json", [("a", 100, 0.100)])
        code, captured = self._run(
            capsys, "perf-gate", "--baseline", baseline, "--current", current
        )
        assert code == 1
        assert "regressed more than" in captured.err
        assert "a@100" in captured.err

    def test_gate_threshold_flag(self, capsys, tmp_path):
        baseline = self._write(tmp_path / "base.json", [("a", 100, 0.010)])
        current = self._write(tmp_path / "cur.json", [("a", 100, 0.100)])
        code, _ = self._run(
            capsys,
            "perf-gate",
            "--baseline",
            baseline,
            "--current",
            current,
            "--threshold",
            "20",
        )
        assert code == 0

    def test_gate_appends_to_summary_file(self, capsys, tmp_path):
        baseline = self._write(tmp_path / "base.json", [("a", 100, 0.010)])
        current = self._write(tmp_path / "cur.json", [("a", 100, 0.011)])
        summary = tmp_path / "summary.md"
        summary.write_text("# prior section\n")
        code, _ = self._run(
            capsys,
            "perf-gate",
            "--baseline",
            baseline,
            "--current",
            current,
            "--summary",
            str(summary),
        )
        assert code == 0
        content = summary.read_text()
        assert content.startswith("# prior section\n")
        assert "Perf gate" in content

    def test_gate_reports_missing_baseline(self, capsys, tmp_path):
        current = self._write(tmp_path / "cur.json", [("a", 100, 0.010)])
        code, captured = self._run(
            capsys,
            "perf-gate",
            "--baseline",
            str(tmp_path / "absent.json"),
            "--current",
            current,
        )
        assert code == 1
        assert "does not exist" in captured.err
