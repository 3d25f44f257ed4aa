"""Unit tests for trace events, validation, persistence and synthesis."""

import json

import numpy as np
import pytest

from repro.errors import StreamError
from repro.stream import (
    MeasurementEvent,
    NodeJoin,
    NodeLeave,
    Trace,
    load_trace,
    save_trace,
    synthesize_trace,
)
from repro.stream.events import TRACE_SCHEMA
from repro.stream.faults import FaultSpec, apply_faults
from repro.stream.synth import _resolve_scenario, _trace_rng


def tiny_truth(n=4, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 50.0, size=(n, 2))
    return np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))


class TestTraceValidation:
    def test_events_must_be_time_ordered(self):
        events = [NodeJoin(1.0, 0), MeasurementEvent(0.5, 0, 1, 10.0)]
        with pytest.raises(StreamError, match="ordered"):
            Trace(events, tiny_truth(), {})

    def test_node_ids_must_be_in_range(self):
        events = [NodeJoin(0.0, 99)]
        with pytest.raises(StreamError):
            Trace(events, tiny_truth(), {})

    def test_self_measurements_rejected(self):
        # Regression: a trace could carry src == dst, which the service
        # recorded as a self-edge and later crashed on at leave().
        events = [NodeJoin(0.0, 2), MeasurementEvent(1.0, 2, 2, 10.0)]
        with pytest.raises(StreamError, match="self-measurement of node 2"):
            Trace(events, tiny_truth(), {})

    @pytest.mark.parametrize(
        "event",
        [
            NodeJoin(0.0, 1.7),
            NodeJoin(0.0, True),
            NodeLeave(0.0, np.float64(2.0)),
            MeasurementEvent(1.0, 0, 2.9, 9.0),
            MeasurementEvent(1.0, True, 2, 9.0),
        ],
        ids=["join-float", "join-bool", "leave-numpy-float", "measure-float", "measure-bool"],
    )
    def test_node_ids_must_be_integers(self, event):
        # save_trace wrote 1.7, True and 2.9 as nodes 1, 1 and 2.
        with pytest.raises(StreamError, match="not an integer id"):
            Trace([event], tiny_truth(), {})

    def test_numpy_integer_ids_are_accepted(self):
        events = [
            NodeJoin(0.0, np.int64(1)),
            NodeJoin(0.0, np.int32(2)),
            MeasurementEvent(1.0, np.int64(1), 2, 9.0),
        ]
        assert Trace(events, tiny_truth(), {}).n_events == 3

    def test_properties(self):
        events = [
            NodeJoin(0.0, 0),
            NodeJoin(0.0, 1),
            MeasurementEvent(1.5, 0, 1, 12.0),
            NodeLeave(3.0, 1),
        ]
        trace = Trace(events, tiny_truth(), {"preset": "test"})
        assert trace.n_nodes == 4
        assert trace.n_events == 4
        assert trace.duration == pytest.approx(3.0)
        assert trace.counts() == {"measurements": 1, "joins": 2, "leaves": 1}


class TestPersistence:
    def test_roundtrip_is_exact(self, tmp_path):
        trace = synthesize_trace(n_nodes=12, seed=5, duration=8.0, churn=0.3)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.events == trace.events
        assert np.array_equal(
            loaded.ground_truth, trace.ground_truth, equal_nan=True
        )
        assert loaded.meta == trace.meta

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StreamError, match="not found"):
            load_trace(tmp_path / "nope.npz")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        meta = np.frombuffer(
            json.dumps({"schema": "other/v9"}).encode(), dtype=np.uint8
        )
        np.savez_compressed(
            path,
            kind=np.zeros(0, dtype=np.int8),
            t=np.zeros(0),
            a=np.zeros(0, dtype=np.int64),
            b=np.zeros(0, dtype=np.int64),
            rtt=np.zeros(0),
            ground_truth=tiny_truth(),
            meta=meta,
        )
        with pytest.raises(StreamError, match=TRACE_SCHEMA.split("/")[0]):
            load_trace(path)

    def test_non_trace_npz_rejected(self, tmp_path):
        path = tmp_path / "matrix.npz"
        np.savez_compressed(path, values=tiny_truth())
        with pytest.raises(StreamError):
            load_trace(path)


class TestSynthesis:
    def test_deterministic_per_seed(self):
        a = synthesize_trace(n_nodes=16, seed=3, duration=10.0, churn=0.25)
        b = synthesize_trace(n_nodes=16, seed=3, duration=10.0, churn=0.25)
        assert a.events == b.events
        assert np.array_equal(a.ground_truth, b.ground_truth, equal_nan=True)

    def test_seeds_differ(self):
        a = synthesize_trace(n_nodes=16, seed=3, duration=10.0)
        b = synthesize_trace(n_nodes=16, seed=4, duration=10.0)
        assert a.events != b.events

    def test_everyone_joins_at_time_zero(self):
        trace = synthesize_trace(n_nodes=10, seed=0, duration=5.0)
        joins = [e for e in trace.events if isinstance(e, NodeJoin)]
        assert {e.node for e in joins} == set(range(10))
        assert all(e.t == 0.0 for e in joins)

    def test_churn_schedules_leaves_and_rejoins(self):
        trace = synthesize_trace(n_nodes=20, seed=1, duration=40.0, churn=0.25)
        counts = trace.counts()
        assert counts["leaves"] == 5
        assert counts["joins"] == 25  # 20 initial + 5 rejoins
        leaves = [e for e in trace.events if isinstance(e, NodeLeave)]
        assert all(0 < e.t < 40.0 for e in leaves)

    def test_zero_churn_has_no_leaves(self):
        trace = synthesize_trace(n_nodes=10, seed=0, duration=10.0, churn=0.0)
        assert trace.counts()["leaves"] == 0

    def test_rate_scales_measurements(self):
        slow = synthesize_trace(n_nodes=10, seed=0, duration=10.0, rate=1)
        fast = synthesize_trace(n_nodes=10, seed=0, duration=10.0, rate=3)
        assert (
            fast.counts()["measurements"] >= 2.5 * slow.counts()["measurements"]
        )

    def test_scenario_changes_the_ground_truth(self):
        plain = synthesize_trace(n_nodes=16, seed=2, duration=5.0)
        heavy = synthesize_trace(
            n_nodes=16, seed=2, duration=5.0, scenario="heavy_tiv"
        )
        assert not np.array_equal(
            plain.ground_truth, heavy.ground_truth, equal_nan=True
        )
        assert heavy.meta["scenario"] == "heavy_tiv"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_nodes=1),
            dict(duration=0.0),
            dict(rate=0),
            dict(churn=1.5),
            dict(churn=-0.1),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(StreamError):
            synthesize_trace(**kwargs)


def _probe_loop_trace(*, preset="ds2_like", n_nodes=64, seed=0, scenario=None,
                      duration=60.0, rate=1, churn=0.0, faults=None):
    """``synthesize_trace`` one probe at a time, the reference for its array form.

    The same RNG draws in the same order; each probe's RTT is read as a
    numpy scalar, tested, and converted on its own.
    """
    from repro.scenarios.generators import load_scenario_dataset

    resolved = _resolve_scenario(scenario)
    matrix, _ = load_scenario_dataset(resolved, preset, int(n_nodes), int(seed))
    truth = matrix.to_array()
    n = truth.shape[0]
    rng = _trace_rng(seed)
    churn_plan = {}
    n_churned = int(round(churn * n))
    if n_churned:
        churned = rng.choice(n, size=n_churned, replace=False)
        t_leave = duration * rng.uniform(0.2, 0.6, size=n_churned)
        downtime = duration * rng.uniform(0.1, 0.3, size=n_churned)
        t_rejoin = np.minimum(t_leave + downtime, duration * 0.95)
        for node, leave_at, rejoin_at in zip(churned, t_leave, t_rejoin):
            churn_plan[int(node)] = (float(leave_at), float(rejoin_at))
    events = [NodeJoin(0.0, node) for node in range(n)]
    active = np.ones(n, dtype=bool)
    schedule = sorted(
        [(t_leave, "leave", node) for node, (t_leave, _) in churn_plan.items()]
        + [(t_rejoin, "join", node) for node, (_, t_rejoin) in churn_plan.items()]
    )
    index = 0
    for second in range(int(np.ceil(duration))):
        while index < len(schedule) and schedule[index][0] < second + 1:
            _, kind, node = schedule[index]
            index += 1
            if kind == "leave":
                events.append(NodeLeave(float(second), node))
                active[node] = False
            else:
                events.append(NodeJoin(float(second), node))
                active[node] = True
        live = np.flatnonzero(active)
        if live.size < 2:
            continue
        for _ in range(int(rate)):
            picks = rng.integers(0, live.size - 1, size=live.size)
            picks += picks >= np.arange(live.size)
            targets = live[picks]
            t_probe = float(second) + 0.5
            for src, dst in zip(live, targets):
                rtt = truth[src, dst]
                if np.isfinite(rtt) and rtt > 0:
                    events.append(MeasurementEvent(t_probe, int(src), int(dst), float(rtt)))
    meta = {
        "preset": preset,
        "scenario": resolved.name if resolved is not None else None,
        "n_nodes": int(n),
        "seed": int(seed),
        "duration": float(duration),
        "rate": int(rate),
        "churn": float(churn),
    }
    trace = Trace(events=tuple(events), ground_truth=truth, meta=meta)
    return apply_faults(trace, faults) if faults is not None else trace


def _typed(events):
    return [
        (type(event).__name__, *((name, type(value), value) for name, value in vars(event).items()))
        for event in events
    ]


class TestSynthesisMatchesTheProbeLoop:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_nodes=40, seed=3, duration=30.0, churn=0.3),
            dict(n_nodes=32, seed=5, duration=20.0, churn=0.2, scenario="noisy_sparse"),
            dict(n_nodes=24, seed=1, duration=15.0, rate=2, churn=0.25),
            dict(n_nodes=30, seed=7, duration=20.0, churn=0.2,
                 faults=FaultSpec.parse("liars=0.1,spikes=0.05,dupes=0.05,flaps=3,seed=7")),
            dict(n_nodes=30, seed=9, duration=20.0,
                 faults=FaultSpec.parse("skew=0.05,seed=9")),
        ],
        ids=["churn", "dropout", "rate2", "faults", "skew"],
    )
    def test_events_truth_and_meta_equal_the_loop(self, kwargs):
        got = synthesize_trace(**kwargs)
        want = _probe_loop_trace(**kwargs)
        assert _typed(got.events) == _typed(want.events)
        assert np.array_equal(got.ground_truth, want.ground_truth, equal_nan=True)
        assert got.ground_truth.dtype == want.ground_truth.dtype
        assert got.meta == want.meta
        assert got.ordered == want.ordered
        if kwargs.get("scenario") == "noisy_sparse":
            # The mask has unmeasured edges to drop probes along.
            assert not np.isfinite(got.ground_truth[np.triu_indices(32, k=1)]).all()


class TestDamagedTraceFiles:
    """Every damaged-file failure mode surfaces as a StreamError naming
    the path — never a raw zipfile/numpy/KeyError traceback."""

    def _good_path(self, tmp_path):
        trace = synthesize_trace(n_nodes=12, seed=5, duration=8.0, churn=0.3)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        return path

    def test_truncated_archive(self, tmp_path):
        path = self._good_path(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(StreamError, match="truncated or corrupted") as excinfo:
            load_trace(path)
        assert str(path) in str(excinfo.value)

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(StreamError, match="truncated or corrupted"):
            load_trace(path)

    def test_missing_member_named(self, tmp_path):
        path = self._good_path(tmp_path)
        with np.load(path) as data:
            members = {k: data[k] for k in data.files if k != "rtt"}
        np.savez_compressed(path, **members)
        with pytest.raises(StreamError, match="missing"):
            load_trace(path)

    def test_undecodable_meta_blob(self, tmp_path):
        path = self._good_path(tmp_path)
        with np.load(path) as data:
            members = {k: data[k] for k in data.files}
        members["meta"] = np.frombuffer(b"{broken json", dtype=np.uint8)
        np.savez_compressed(path, **members)
        with pytest.raises(StreamError, match="truncated or corrupted"):
            load_trace(path)

    def test_inconsistent_arrays_rejected(self, tmp_path):
        path = self._good_path(tmp_path)
        with np.load(path) as data:
            members = {k: data[k] for k in data.files}
        members["t"] = members["t"][:-2]  # shorter than kind/a/b/rtt
        np.savez_compressed(path, **members)
        with pytest.raises(StreamError):
            load_trace(path)

    def test_unordered_flag_round_trips(self, tmp_path):
        from repro.stream import FaultSpec, apply_faults

        trace = synthesize_trace(n_nodes=12, seed=5, duration=8.0)
        skewed = apply_faults(
            trace, FaultSpec(skew_fraction=0.5, max_skew_seconds=3.0, seed=1)
        )
        assert not skewed.ordered
        path = tmp_path / "skewed.npz"
        save_trace(skewed, path)
        loaded = load_trace(path)
        assert not loaded.ordered
        assert loaded.out_of_order_count == skewed.out_of_order_count
