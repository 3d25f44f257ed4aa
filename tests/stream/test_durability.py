"""Checkpoint + WAL durability: round-trips, corruption, bit-identical recovery."""

import copy
import json
import math
import pickle
import re
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.stream import (
    DefenseConfig,
    MeasurementEvent,
    NodeJoin,
    NodeLeave,
    StreamServiceConfig,
    Trace,
    WalWriter,
    load_checkpoint,
    read_wal,
    recover,
    replay_trace,
    save_checkpoint,
    state_fingerprint,
    synthesize_trace,
)
from repro.stream.durability import CHECKPOINT_SCHEMA
from repro.stream.service import StreamCoordinateService

DEFENDED = StreamServiceConfig(defense=DefenseConfig())

EMBEDDING_ARRAYS = ("coords", "heights", "errors", "last_update", "update_counts")
EDGE_ARRAYS = ("edge_ids", "edge_obs", "severity_ids", "severity")


def _busy_service(n_events=300):
    trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
    service = StreamCoordinateService(config=DEFENDED, rng=4)
    for event in trace.events[:n_events]:
        service.apply(event)
    return service


class TestCheckpointRoundTrip:
    def test_round_trip_is_bit_identical(self, tmp_path):
        service = _busy_service()
        path = tmp_path / "ck.npz"
        save_checkpoint(service, path)
        restored = load_checkpoint(path)
        assert state_fingerprint(restored) == state_fingerprint(service)
        assert restored.n_events == service.n_events
        assert restored.clock == service.clock

    def test_restored_service_evolves_identically(self, tmp_path):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        service = StreamCoordinateService(config=DEFENDED, rng=4)
        for event in trace.events[:200]:
            service.apply(event)
        path = tmp_path / "ck.npz"
        save_checkpoint(service, path)
        restored = load_checkpoint(path)
        for event in trace.events[200:260]:
            service.apply(event)
            restored.apply(event)
        assert state_fingerprint(restored) == state_fingerprint(service)

    def test_missing_file_raises_named_stream_error(self, tmp_path):
        with pytest.raises(StreamError, match="nope.npz"):
            load_checkpoint(tmp_path / "nope.npz")

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(_busy_service(50), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StreamError):
            load_checkpoint(path)

    def test_wrong_schema_rejected(self, tmp_path):
        service = _busy_service(50)
        path = tmp_path / "ck.npz"
        save_checkpoint(service, path)
        with np.load(path, allow_pickle=False) as payload:
            members = {key: payload[key] for key in payload.files}
        state = json.loads(bytes(members["state"]).decode("utf-8"))
        state["schema"] = "other-thing/v9"
        members["state"] = np.frombuffer(
            json.dumps(state).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **members)
        with pytest.raises(StreamError, match="schema"):
            load_checkpoint(path)

    def test_schema_tag_present(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(_busy_service(50), path)
        with np.load(path, allow_pickle=False) as payload:
            state = json.loads(bytes(payload["state"]).decode("utf-8"))
        assert state["schema"] == CHECKPOINT_SCHEMA == "stream-checkpoint/v2"


def _write_v1_checkpoint(service, path):
    """Save ``service`` in the retired ``stream-checkpoint/v1`` layout.

    v1 kept the edge memory and the peer sets as JSON lists in dict
    order and zlib-compressed every member.
    """
    state = service.state_dict()
    edges, obs, severity_ids, severity = (state.pop(key).tolist() for key in EDGE_ARRAYS)
    state["edge_rtt"] = [ids + row for ids, row in zip(edges, obs)]
    state["peers"] = {node: sorted(peers) for node, peers in service._peer_rtt.items()}
    state["severity"] = [ids + [value] for ids, value in zip(severity_ids, severity)]
    embedding = dict(state["embedding"])
    arrays = {key: embedding.pop(key) for key in EMBEDDING_ARRAYS}
    state["embedding"] = embedding
    blob = json.dumps({"schema": "stream-checkpoint/v1", "state": state})
    np.savez_compressed(
        path, state=np.frombuffer(blob.encode("utf-8"), dtype=np.uint8), **arrays
    )


class TestCheckpointFormat:
    def test_v2_keeps_the_edge_memory_in_plain_npz_members(self, tmp_path):
        service = _busy_service()
        path = tmp_path / "ck.npz"
        save_checkpoint(service, path)
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {
                zipfile.ZIP_STORED
            }
        with np.load(path, allow_pickle=False) as data:
            members = {key: data[key] for key in data.files}
        assert set(members) == {"state", *EMBEDDING_ARRAYS, *EDGE_ARRAYS}
        state = json.loads(bytes(members["state"]).decode("utf-8"))["state"]
        assert not {"edge_rtt", "peers", *EDGE_ARRAYS} & set(state)

        edges = service.observed_edges()
        assert len(edges) > 10
        assert members["edge_ids"].dtype == np.int64
        assert members["edge_ids"].shape == (len(edges), 2)
        assert list(map(tuple, members["edge_ids"].tolist())) == edges
        assert members["edge_obs"].dtype == np.float64
        assert members["edge_obs"].shape == (len(edges), 2)
        for (a, b), (rtt, observed_at) in zip(edges, members["edge_obs"].tolist()):
            verdict = service.tiv_alert(a, b)
            assert verdict["observed"] == rtt
            assert verdict["observation_age"] == service.clock - observed_at

        severity_edges = list(map(tuple, members["severity_ids"].tolist()))
        assert severity_edges == sorted(severity_edges)
        assert members["severity"].shape == (len(severity_edges),)
        assert severity_edges == [
            edge for edge in edges if service.severity_estimate(*edge) is not None
        ]
        estimates = [service.severity_estimate(a, b) for a, b in severity_edges]
        assert estimates == members["severity"].tolist()

    def test_state_dict_derives_peers_instead_of_storing_them(self):
        service = _busy_service()
        state = service.state_dict()
        assert "peers" not in state
        restored = StreamCoordinateService.from_state(state)
        assert restored._peer_rtt == service._peer_rtt

    def test_v1_file_is_refused(self, tmp_path):
        # Only v2 files load; a v1 file is refused by its schema tag,
        # naming the path, before any of its members is read.
        path = tmp_path / "v1.npz"
        _write_v1_checkpoint(_busy_service(200), path)
        refused = re.escape(f"{path} has schema 'stream-checkpoint/v1', not stream-checkpoint/v2")
        with pytest.raises(StreamError, match=refused):
            load_checkpoint(path)
        with pytest.raises(StreamError, match=refused):
            recover(path)

    def test_edge_on_an_inactive_node_refused(self, tmp_path):
        service = _busy_service(50)
        state = service.state_dict()
        state["edge_ids"] = np.array([[0, 999]], dtype=np.int64)
        state["edge_obs"] = np.array([[10.0, 0.0]])
        with pytest.raises(StreamError, match="active nodes"):
            StreamCoordinateService.from_state(state)

    def test_repeated_edge_refused(self):
        state = _busy_service().state_dict()
        a, b = state["edge_ids"][3].tolist()
        state["edge_ids"] = np.concatenate([state["edge_ids"], state["edge_ids"][3:4]])
        state["edge_obs"] = np.concatenate([state["edge_obs"], state["edge_obs"][3:4]])
        with pytest.raises(StreamError, match=rf"edge \({a}, {b}\) is in the edge table twice"):
            StreamCoordinateService.from_state(state)

    def test_severity_of_an_unremembered_edge_refused(self):
        # Both endpoints are active, but the pair has no row in the edge
        # table: its estimate would have no RTT to belong to.
        service = _busy_service()
        state = service.state_dict()
        remembered = set(map(tuple, state["edge_ids"].tolist()))
        active = service.active_nodes()
        a, b = next(
            (x, y) for x in active for y in active if x < y and (x, y) not in remembered
        )
        state["severity_ids"] = np.concatenate(
            [state["severity_ids"], np.array([[a, b]], dtype=np.int64)]
        )
        state["severity"] = np.append(state["severity"], 1.5)
        with pytest.raises(
            StreamError, match=rf"severity row of edge \({a}, {b}\) is not in the edge table"
        ):
            StreamCoordinateService.from_state(state)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_severity_refused(self, value):
        # NaN marks a row without an estimate, so a stored NaN (or an
        # infinity) cannot be told apart from a missing one: refuse it.
        state = _busy_service().state_dict()
        assert len(state["severity"]) > 5
        a, b = state["severity_ids"][5].tolist()
        state["severity"] = state["severity"].copy()
        state["severity"][5] = value
        with pytest.raises(
            StreamError, match=rf"severity {value} of edge \({a}, {b}\) is not finite"
        ):
            StreamCoordinateService.from_state(state)


class TestRestoredServiceMatchesLive:
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda service: pickle.loads(pickle.dumps(service))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_continue_identically(self, clone):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        service = StreamCoordinateService(config=DEFENDED, rng=4)
        for event in trace.events[:200]:
            service.apply(event)
        copied = clone(service)
        assert type(copied) is StreamCoordinateService
        assert state_fingerprint(copied) == state_fingerprint(service)
        for event in trace.events[200:260]:
            service.apply(event)
        assert state_fingerprint(copied) != state_fingerprint(service)
        for event in trace.events[200:260]:
            copied.apply(event)
        assert state_fingerprint(copied) == state_fingerprint(service)

    def test_witness_order_does_not_depend_on_set_history(self, tmp_path):
        """Regression: severity summed witnesses in set iteration order.

        The live peer sets and the ones a checkpoint rebuilds hold the
        same ids in different hash-table orders once ids collide, so the
        first severity update after a restore drifted by an ulp.
        """
        live = StreamCoordinateService(rng=0)
        for node in (0, 2, 71, 187, 61, 154, 29, 84):
            live.join(node, t=0.0)
        t = 1.0
        pairs = [(17, 29), (18, 6), (13, 21), (20, 17), (30, 14), (20, 16)]
        for witness, (a, b) in zip([71, 187, 61, 154, 29, 84], pairs):
            live.observe(0, witness, float(a), t=t)
            live.observe(2, witness, float(b), t=t + 1.0)
            t += 2.0
        path = tmp_path / "ck.npz"
        save_checkpoint(live, path)
        restored = load_checkpoint(path)

        def set_order(service):
            # The witness list as the old code built it, from peer sets
            # filled in the order the maps were.
            peers = service._peer_rtt
            return list((set(peers[0]) & set(peers[2])) - {0, 2})

        # The precondition that made the bug visible: same witnesses,
        # different iteration order.
        assert sorted(set_order(live)) == sorted(set_order(restored))
        assert set_order(live) != set_order(restored)
        live.observe(0, 2, 100.0, t=t)
        restored.observe(0, 2, 100.0, t=t)
        assert restored.severity_estimate(0, 2) == live.severity_estimate(0, 2)
        assert state_fingerprint(restored) == state_fingerprint(live)


class TestWal:
    EVENTS = [
        NodeJoin(0.0, 1),
        NodeJoin(0.5, 2),
        MeasurementEvent(1.0, 1, 2, 20.0),
        NodeLeave(2.0, 2),
    ]

    def test_log_and_read_round_trip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            for seq, event in enumerate(self.EVENTS):
                wal.log(seq, event)
        entries = read_wal(path)
        assert [seq for seq, _ in entries] == [0, 1, 2, 3]
        assert [event for _, event in entries] == self.EVENTS

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            for seq, event in enumerate(self.EVENTS):
                wal.log(seq, event)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 10], encoding="utf-8")
        entries = read_wal(path)
        assert [seq for seq, _ in entries] == [0, 1, 2]

    def test_mid_file_corruption_raises_with_line_number(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            for seq, event in enumerate(self.EVENTS):
                wal.log(seq, event)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StreamError, match="line 2"):
            read_wal(path)

    def test_sequence_gap_detected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            wal.log(0, self.EVENTS[0])
            wal.log(1, self.EVENTS[1])
            wal.log(5, self.EVENTS[2])
        with pytest.raises(StreamError, match="gap"):
            read_wal(path)

    def test_append_mode_continues_the_log(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            wal.log(0, self.EVENTS[0])
        with WalWriter(path, append=True) as wal:
            wal.log(1, self.EVENTS[1])
        assert [seq for seq, _ in read_wal(path)] == [0, 1]

    @pytest.mark.parametrize("torn_bytes", [1, 10])
    def test_append_cuts_a_torn_tail_first(self, tmp_path, torn_bytes):
        # One byte short, the last record still parses but lacks its
        # newline: it was never completely written, so it is torn too.
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            for seq, event in enumerate(self.EVENTS[:3]):
                wal.log(seq, event)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - torn_bytes])
        assert read_wal(path) == list(enumerate(self.EVENTS[:2]))
        with WalWriter(path, append=True) as wal:
            wal.log(2, self.EVENTS[2])
            wal.log(3, self.EVENTS[3])
        assert read_wal(path) == list(enumerate(self.EVENTS))

    @pytest.mark.parametrize("append", [False, True])
    def test_cut_empties_the_log(self, tmp_path, append):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path, append=append) as wal:
            wal.log(0, self.EVENTS[0])
            wal.log(1, self.EVENTS[1])
            wal.cut()
            assert path.read_text(encoding="utf-8") == ""
            wal.log(2, self.EVENTS[2])
        assert path.read_text(encoding="utf-8").count("\n") == 1
        assert read_wal(path) == [(2, self.EVENTS[2])]


def _wal_record(seq, event):
    """The record dict a WAL line holds, keys in line order, ids as Python ints."""
    if isinstance(event, MeasurementEvent):
        return {
            "seq": seq,
            "kind": "measure",
            "t": event.t,
            "src": int(event.src),
            "dst": int(event.dst),
            "rtt": event.rtt,
        }
    kind = "join" if isinstance(event, NodeJoin) else "leave"
    return {"seq": seq, "kind": kind, "t": event.t, "node": int(event.node)}


def _numpy_ids(event):
    """``event`` with its node ids as numpy int64s."""
    if isinstance(event, MeasurementEvent):
        return MeasurementEvent(event.t, np.int64(event.src), np.int64(event.dst), event.rtt)
    return type(event)(event.t, np.int64(event.node))


def _same_number(a, b):
    """Equal, NaN-aware and sign-of-zero-aware."""
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
_wal_floats = (
    st.sampled_from(_EDGE_FLOATS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.floats(allow_nan=False).map(np.float64)
)
_int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_wal_ids = _int64s | _int64s.map(np.int64)
_wal_events = st.one_of(
    st.builds(MeasurementEvent, _wal_floats, _wal_ids, _wal_ids, _wal_floats),
    st.builds(NodeJoin, _wal_floats, _wal_ids),
    st.builds(NodeLeave, _wal_floats, _wal_ids),
)


class TestWalLineFormat:
    """``WalWriter.log`` formats its lines itself; they stay ``json.dumps``'s bytes."""

    @settings(max_examples=300, deadline=None)
    @given(
        events=st.lists(_wal_events, min_size=1, max_size=12),
        start=st.integers(min_value=0, max_value=2**63 - 13),
    )
    def test_every_line_is_json_dumps_of_its_record(
        self, tmp_path_factory, events, start
    ):
        path = tmp_path_factory.mktemp("wal") / "wal.jsonl"
        with WalWriter(path) as wal:
            for offset, event in enumerate(events):
                wal.log(start + offset, event)
        expected = "".join(
            json.dumps(_wal_record(start + offset, event)) + "\n"
            for offset, event in enumerate(events)
        )
        assert path.read_bytes() == expected.encode("utf-8")

        entries = read_wal(path)
        assert [seq for seq, _ in entries] == list(range(start, start + len(events)))
        for (_, got), event in zip(entries, events):
            assert type(got) is type(event)
            want, have = _wal_record(0, event), _wal_record(0, got)
            assert want.keys() == have.keys()
            for key in ("t", "rtt"):
                if key in want:
                    assert _same_number(have[key], float(want[key]))
            for key in ("src", "dst", "node"):
                if key in want:
                    assert have[key] == want[key]

    @staticmethod
    def _circular_rtt():
        loop = []
        loop.append(loop)
        return MeasurementEvent(1.0, 1, 2, loop)

    @pytest.mark.parametrize(
        "make_event, error, match",
        [
            (lambda: NodeJoin(0.0, object()), StreamError, "is not an integer"),
            (lambda: NodeLeave(0.0, {3}), StreamError, "is not an integer"),
            (lambda: TestWalLineFormat._circular_rtt(), ValueError, "Circular reference"),
        ],
        ids=["object-id", "set-id", "circular-rtt"],
    )
    def test_what_json_dumps_refuses_is_still_refused(self, tmp_path, make_event, error, match):
        # An id json.dumps cannot write is refused as an id that is not an
        # integer; any other value with json.dumps's own error.
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            with pytest.raises(error, match=match):
                wal.log(0, make_event())
        assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "event",
        [
            NodeJoin(0.0, True),
            NodeLeave(0.0, 2.0),
            NodeJoin(0.0, np.float64(1.0)),
            MeasurementEvent(1.0, 1, 2.0, 20.0),
            MeasurementEvent(1.0, False, 2, 20.0),
        ],
        ids=["join-bool", "leave-float", "join-numpy-float", "measure-float", "measure-bool"],
    )
    def test_a_float_or_bool_id_is_refused_before_anything_is_written(self, tmp_path, event):
        # json.dumps wrote True and 2.0, which read_wal took for nodes 1 and 2.
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            with pytest.raises(StreamError, match="is not an integer"):
                wal.log(0, event)
        assert path.read_bytes() == b""

    def test_a_numpy_id_trace_logs_and_recovers_as_plain_ints(self, tmp_path):
        # replay_trace used to die on the first numpy id with a TypeError.
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        numpy_trace = Trace(
            tuple(map(_numpy_ids, trace.events)), trace.ground_truth, dict(trace.meta)
        )
        runs = {}
        for name, source in (("int", trace), ("numpy", numpy_trace)):
            full = tmp_path / f"{name}-full.jsonl"
            ck, wal = tmp_path / f"{name}.npz", tmp_path / f"{name}.jsonl"
            replay_trace(source, config=DEFENDED, wal_path=full)
            crashed = replay_trace(
                source,
                config=DEFENDED,
                checkpoint_path=ck,
                wal_path=wal,
                checkpoint_every=100,
                stop_after_events=250,
            )
            assert state_fingerprint(recover(ck, wal)) == crashed.totals["state_fingerprint"]
            runs[name] = (full.read_bytes(), wal.read_bytes(), crashed.as_dict())
        assert runs["numpy"] == runs["int"]
        assert b"leave" in runs["int"][0] and b"join" in runs["int"][1]

    def test_unknown_event_type_raises_stream_error(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with WalWriter(path) as wal:
            with pytest.raises(StreamError, match="cannot log unknown stream event"):
                wal.log(0, ("join", 0.0, 1))
        assert path.read_bytes() == b""


class TestRecovery:
    def test_recover_checkpoint_plus_wal_suffix(self, tmp_path):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        crashed = replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=100,
            stop_after_events=250,
        )
        assert crashed.totals["stopped_after_events"] == 250
        recovered = recover(ck, wal)
        # The WAL replays the suffix past the last periodic checkpoint.
        assert recovered.n_events == 250
        direct = StreamCoordinateService(config=DEFENDED, rng=0)
        for event in trace.events[:250]:
            direct.apply(event)
        assert state_fingerprint(recovered) == state_fingerprint(direct)

    def test_wal_gap_after_checkpoint_refused(self, tmp_path):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=100,
            stop_after_events=150,
        )
        # Drop WAL entries right after the checkpoint's cut: recovery must
        # refuse to silently skip events.
        entries = [
            json.loads(line)
            for line in wal.read_text(encoding="utf-8").splitlines()
        ]
        kept = [e for e in entries if e["seq"] < 100 or e["seq"] >= 120]
        wal.write_text(
            "".join(json.dumps(e) + "\n" for e in kept), encoding="utf-8"
        )
        with pytest.raises(StreamError):
            recover(ck, wal)

    def test_resumed_replay_matches_uninterrupted(self, tmp_path):
        trace = synthesize_trace(n_nodes=24, seed=5, duration=30.0, churn=0.2)
        uninterrupted = replay_trace(trace, config=DEFENDED)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=100,
            stop_after_events=333,
        )
        resumed = replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            resume=True,
        )
        assert resumed.totals["resumed_at_event"] == 333
        assert (
            resumed.totals["state_fingerprint"]
            == uninterrupted.totals["state_fingerprint"]
        )
        # Post-cut windows carry identical live metrics.
        assert (
            resumed.windows[-1].median_relative_error
            == uninterrupted.windows[-1].median_relative_error
        )

    def test_second_crash_after_resuming_onto_a_torn_tail_recovers(self, tmp_path):
        # Killed at 250 (checkpoint at 200), the WAL's last line torn,
        # resumed and killed again at 290, before the next checkpoint:
        # the log must still recover, and a last resume must reach the
        # uninterrupted state.
        trace = synthesize_trace(n_nodes=16, duration=60.0, seed=0)
        uninterrupted = replay_trace(trace)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=200,
            stop_after_events=250,
        )
        data = wal.read_bytes()
        wal.write_bytes(data[:-7])
        first = replay_trace(
            trace,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=200,
            resume=True,
            stop_after_events=290,
        )
        assert first.totals["resumed_at_event"] == 249
        assert recover(ck, wal).n_events == 290
        resumed = replay_trace(
            trace, checkpoint_path=ck, wal_path=wal, checkpoint_every=200, resume=True
        )
        assert resumed.totals["resumed_at_event"] == 290
        assert (
            resumed.totals["state_fingerprint"]
            == uninterrupted.totals["state_fingerprint"]
        )

    def test_resume_without_checkpoint_rejected(self):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=10.0)
        with pytest.raises(StreamError, match="resume"):
            replay_trace(trace, config=DEFENDED, resume=True)


class TestWalCut:
    def test_wal_starts_at_the_last_periodic_checkpoint(self, tmp_path):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        last_periodic = trace.n_events // 100 * 100
        assert 0 < last_periodic < trace.n_events
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=100,
        )
        seqs = [seq for seq, _ in read_wal(wal)]
        assert seqs == list(range(last_periodic, trace.n_events))
        # The final checkpoint covers that suffix.
        assert recover(ck, wal).n_events == trace.n_events

    def test_killed_replay_leaves_only_the_uncovered_suffix(self, tmp_path):
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=100,
            stop_after_events=250,
        )
        assert [seq for seq, _ in read_wal(wal)] == list(range(200, 250))
        assert load_checkpoint(ck).n_events == 200

    def test_uncut_wal_still_recovers(self, tmp_path):
        # A crash between a checkpoint's rename and the cut leaves the
        # whole log behind; recovery skips the covered prefix.
        trace = synthesize_trace(n_nodes=16, seed=2, duration=30.0, churn=0.2)
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        service = StreamCoordinateService(config=DEFENDED, rng=0)
        with WalWriter(wal) as log:
            for seq, event in enumerate(trace.events[:250]):
                log.log(seq, event)
                service.apply(event)
                if seq == 199:
                    save_checkpoint(service, ck)
        assert read_wal(wal)[0][0] == 0
        recovered = recover(ck, wal)
        assert recovered.n_events == 250
        assert state_fingerprint(recovered) == state_fingerprint(service)


class TestCutPointProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        churn=st.sampled_from([0.0, 0.2]),
        cut_fraction=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_any_cut_point_recovers_bit_identically(
        self, tmp_path_factory, seed, churn, cut_fraction
    ):
        """Crash at *any* event index: checkpoint+WAL recovery must land on
        exactly the state an uninterrupted run reaches at that index."""
        tmp_path = tmp_path_factory.mktemp("cut")
        trace = synthesize_trace(
            n_nodes=16, seed=seed, duration=20.0, churn=churn
        )
        cut = max(1, int(trace.n_events * cut_fraction))
        ck = tmp_path / "ck.npz"
        wal = tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            config=DEFENDED,
            checkpoint_path=ck,
            wal_path=wal,
            # Small enough that even the earliest cut point has at least
            # one periodic checkpoint behind it (a simulated crash never
            # writes a graceful final one).
            checkpoint_every=16,
            stop_after_events=cut,
        )
        recovered = recover(ck, wal)
        direct = StreamCoordinateService(config=DEFENDED, rng=0)
        for event in trace.events[:cut]:
            direct.apply(event)
        assert state_fingerprint(recovered) == state_fingerprint(direct)
