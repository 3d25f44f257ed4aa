"""Unit tests for trace replay and the stream report."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import StreamError
from repro.stream import replay_trace, synthesize_trace
from repro.stream.events import MeasurementEvent, NodeJoin, Trace
from repro.stream.replay import STREAM_REPORT_SCHEMA, _median


@pytest.fixture(scope="module")
def churny_report():
    trace = synthesize_trace(n_nodes=32, seed=11, duration=40.0, churn=0.25)
    return trace, replay_trace(trace, window_seconds=10.0)


class TestWindows:
    def test_window_grid_covers_the_trace(self, churny_report):
        trace, report = churny_report
        assert report.window_seconds == 10.0
        assert len(report.windows) == 4
        for index, window in enumerate(report.windows[:-1]):
            assert window.index == index
            assert window.t_end - window.t_start == pytest.approx(10.0)
        # The final window ends at the last event, not the next nominal
        # boundary — it may span less than a full window.
        last = report.windows[-1]
        assert last.t_end == trace.events[-1].t
        assert 0 < last.t_end - last.t_start <= 10.0
        assert sum(w.events for w in report.windows) == trace.n_events

    def test_final_window_clamped_to_the_last_event(self):
        # Regression: the trailing close_window(boundary) used to stamp the
        # final window with the next nominal boundary (here t_end=20.0),
        # overstating its time coverage by nearly a full window.
        events = [NodeJoin(0.0, 0), NodeJoin(0.0, 1)]
        t = 0.5
        while t < 12.0:
            events.append(MeasurementEvent(t, 0, 1, 25.0))
            events.append(MeasurementEvent(t + 0.1, 1, 0, 25.0))
            t += 1.0
        truth = np.full((2, 2), 25.0)
        np.fill_diagonal(truth, 0.0)
        trace = Trace(events, truth, {})
        report = replay_trace(trace, window_seconds=10.0)
        assert len(report.windows) == 2
        assert report.windows[0].t_end == 10.0
        assert report.windows[1].t_start == 10.0
        assert report.windows[1].t_end == trace.events[-1].t  # 11.6, not 20.0
        assert report.windows[1].t_end < 12.0

    def test_event_counts_split_by_kind(self, churny_report):
        trace, report = churny_report
        counts = trace.counts()
        assert sum(w.measurements for w in report.windows) == counts["measurements"]
        assert sum(w.joins for w in report.windows) == counts["joins"]
        assert sum(w.leaves for w in report.windows) == counts["leaves"]
        # Churn lands mid-trace by construction: the interior windows must
        # carry leaves, the first window only the initial joins.
        assert report.windows[0].joins == 32
        assert sum(w.leaves for w in report.windows[1:]) == counts["leaves"]

    def test_accuracy_improves_over_the_trace(self, churny_report):
        _, report = churny_report
        first, last = report.windows[0], report.windows[-1]
        assert last.median_relative_error < first.median_relative_error
        assert report.totals["accuracy_improved"] is True
        assert report.totals["first_window_median_relative_error"] == pytest.approx(
            first.median_relative_error
        )

    def test_staleness_tracked_per_window(self, churny_report):
        _, report = churny_report
        for window in report.windows:
            assert window.mean_staleness >= 0.0
            assert window.max_staleness >= window.mean_staleness


class TestQueriesInReport:
    def test_closest_queries_answered(self, churny_report):
        _, report = churny_report
        assert len(report.queries["closest"]) == 8
        for row in report.queries["closest"]:
            assert row["node"] != row["closest"]
            assert row["predicted"] > 0

    def test_tiv_alert_queries_cover_worst_edges(self, churny_report):
        _, report = churny_report
        alerts = report.queries["tiv_alerts"]
        assert 0 < len(alerts) <= 8
        severities = [row["severity_estimate"] for row in alerts]
        assert severities == sorted(severities, reverse=True)


class TestReportPayload:
    def test_as_dict_is_json_clean_and_tagged(self, churny_report):
        _, report = churny_report
        payload = report.as_dict()
        assert payload["schema"] == STREAM_REPORT_SCHEMA
        encoded = json.dumps(payload)
        assert json.loads(encoded)["totals"]["windows"] == 4

    def test_write_emits_the_payload(self, churny_report, tmp_path):
        _, report = churny_report
        path = tmp_path / "stream.json"
        report.write(path)
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == STREAM_REPORT_SCHEMA
        assert len(on_disk["windows"]) == 4

    def test_trace_meta_carried_through(self, churny_report):
        trace, report = churny_report
        assert report.trace_meta == trace.meta

    def test_totals_surface_dropped_measurements(self, churny_report):
        # Synthetic traces only emit usable RTTs, so the counter reads 0 —
        # but the key must be present in every report.
        _, report = churny_report
        assert report.totals["dropped_measurements"] == 0

    def test_dropped_measurements_counted_in_totals(self):
        truth = np.full((2, 2), 25.0)
        np.fill_diagonal(truth, 0.0)
        events = [
            NodeJoin(0.0, 0),
            NodeJoin(0.0, 1),
            MeasurementEvent(0.5, 0, 1, 25.0),
            MeasurementEvent(1.5, 0, 1, -3.0),  # broken probe: dropped
            MeasurementEvent(2.5, 1, 0, 25.0),
        ]
        report = replay_trace(Trace(events, truth, {}), window_seconds=10.0)
        assert report.totals["dropped_measurements"] == 1


class TestReplayValidation:
    def test_empty_trace_rejected(self):
        truth = np.eye(3)
        trace = Trace([], truth, {})
        with pytest.raises(StreamError, match="empty trace"):
            replay_trace(trace)

    def test_nonpositive_window_rejected(self, churny_report):
        trace, _ = churny_report
        with pytest.raises(StreamError, match="window_seconds"):
            replay_trace(trace, window_seconds=0.0)

    def test_replay_is_deterministic(self):
        trace = synthesize_trace(n_nodes=16, seed=7, duration=15.0, churn=0.2)
        a = replay_trace(trace, window_seconds=5.0, rng=3)
        b = replay_trace(trace, window_seconds=5.0, rng=3)
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())

    def test_service_seed_changes_the_outcome(self):
        trace = synthesize_trace(n_nodes=16, seed=7, duration=15.0, churn=0.2)
        a = replay_trace(trace, window_seconds=5.0, rng=3)
        b = replay_trace(trace, window_seconds=5.0, rng=4)
        assert json.dumps(a.as_dict()) != json.dumps(b.as_dict())


class TestWindowMetricsOnPartialPopulations:
    def test_edges_with_inactive_endpoints_are_skipped(self):
        # Node 2 never joins: windows must score only the live pairs and
        # stay finite.
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 50.0, size=(3, 2))
        truth = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
        events = [NodeJoin(0.0, 0), NodeJoin(0.0, 1)]
        t = 0.5
        for _ in range(30):
            events.append(MeasurementEvent(t, 0, 1, float(truth[0, 1])))
            events.append(MeasurementEvent(t + 0.1, 1, 0, float(truth[0, 1])))
            t += 1.0
        trace = Trace(events, truth, {})
        report = replay_trace(trace, window_seconds=10.0)
        for window in report.windows:
            assert window.active_nodes == 2
            assert window.evaluated_edges == 1
            assert np.isfinite(window.median_relative_error)


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


class TestWindowMedian:
    """The window median equals ``np.median`` bit for bit, without ``numpy.ma``."""

    VALUES = st.one_of(
        st.floats(allow_nan=False, allow_infinity=True, width=64),
        st.sampled_from([0.0, -0.0, 1.0, 2.0, float("nan"), -float("nan")]),
    )

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(VALUES, min_size=1, max_size=40))
    def test_equals_np_median(self, values):
        array = np.array(values, dtype=np.float64)
        # inf + -inf and a sum past the float range warn in both, alike.
        with np.errstate(invalid="ignore", over="ignore"):
            assert _bits(_median(array)) == _bits(np.median(array))

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 511, 512])
    def test_odd_and_even_sizes(self, size):
        array = np.random.default_rng(size).lognormal(size=size)
        assert _bits(_median(array)) == _bits(np.median(array))
        array[size // 3] = np.nan
        assert np.isnan(_median(array))
        assert _bits(_median(array)) == _bits(np.median(array))

    def test_replay_leaves_numpy_ma_unloaded(self):
        # np.median imports numpy.ma on first use (about 8 ms), which made
        # the first scored window the slowest batch of every replay.
        code = (
            "import sys\n"
            "from repro.stream import replay_trace, synthesize_trace\n"
            "trace = synthesize_trace(n_nodes=16, seed=7, duration=10.0)\n"
            "report = replay_trace(trace, window_seconds=5.0)\n"
            "assert report.windows[0].evaluated_edges > 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert proc.stdout.strip() == "False"
