"""Tests for the Byzantine measurement defense (gate + quarantine ledger)."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.stream import (
    DefenseConfig,
    FaultSpec,
    MeasurementEvent,
    NodeJoin,
    NodeLeave,
    StreamCoordinateService,
    StreamServiceConfig,
    replay_trace,
    synthesize_trace,
)

#: A defense that arms early (after the embedding has converged a bit),
#: for unit-level gate tests.
FAST = DefenseConfig(warmup_observations=400, node_warmup_updates=5)


def _warm_service(n_nodes=8, rounds=800, defense=FAST, rng=0):
    """A service warmed with geometry-consistent (Euclidean) measurements."""
    points = np.random.default_rng(1).uniform(0.0, 50.0, size=(n_nodes, 2))
    delays = np.linalg.norm(points[:, None] - points[None, :], axis=-1) + 5.0
    service = StreamCoordinateService(
        config=StreamServiceConfig(defense=defense), rng=rng
    )
    for node in range(n_nodes):
        service.apply(NodeJoin(0.0, node))
    t = 1.0
    rand = np.random.default_rng(7)
    for _ in range(rounds):
        src, dst = rand.choice(n_nodes, size=2, replace=False)
        service.apply(
            MeasurementEvent(t, int(src), int(dst), float(delays[src, dst]))
        )
        t += 0.01
    return service, t


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(warmup_observations=-1),
            dict(node_warmup_updates=-1),
            dict(gate_multiplier=0.0),
            dict(gate_floor=0.0),
            dict(residual_alpha=0.0),
            dict(residual_alpha=1.5),
            dict(suspicion_alpha=0.0),
            dict(quarantine_threshold=0.0),
            dict(quarantine_threshold=1.5),
            dict(release_threshold=-0.1),
            dict(probation_interval=0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(StreamError):
            DefenseConfig(**kwargs)

    def test_release_must_stay_below_quarantine_threshold(self):
        with pytest.raises(StreamError):
            DefenseConfig(quarantine_threshold=0.3, release_threshold=0.5)


class TestResidualGate:
    def test_consistent_traffic_quarantines_nobody(self):
        service, _ = _warm_service()
        # A young embedding occasionally mispredicts an honest edge, so a
        # minority of gate rejections is expected — but absolution on the
        # surrounding accepted traffic must keep everyone out of quarantine.
        assert service.rejected_measurements < 80  # of 800 measurements
        assert not service.quarantined_nodes()
        assert service.defense_stats()["ever_quarantined_nodes"] == 0

    def test_absurd_measurement_rejected_after_warmup(self):
        service, t = _warm_service()
        before = service.rejected_measurements
        service.apply(MeasurementEvent(t, 0, 1, 20_000.0))
        assert service.rejected_measurements == before + 1

    def test_gate_disarmed_during_warmup(self):
        defense = DefenseConfig(warmup_observations=10_000, node_warmup_updates=2)
        service, t = _warm_service(defense=defense)
        service.apply(MeasurementEvent(t, 0, 1, 20_000.0))
        assert service.rejected_measurements == 0

    def test_no_defense_accepts_everything(self):
        service = StreamCoordinateService(rng=0)
        service.apply(NodeJoin(0.0, 0))
        service.apply(NodeJoin(0.0, 1))
        service.apply(MeasurementEvent(1.0, 0, 1, 20_000.0))
        assert service.rejected_measurements == 0


class TestQuarantine:
    def test_repeat_offender_is_quarantined_and_counted(self):
        service, t = _warm_service()
        for i in range(40):
            service.apply(MeasurementEvent(t + i * 0.01, 0, 1 + (i % 4), 20_000.0))
        assert 0 in service.quarantined_nodes()
        stats = service.defense_stats()
        assert stats["quarantined_nodes"] >= 1
        assert stats["ever_quarantined_nodes"] >= 1
        assert stats["rejected_measurements"] > 0

    def test_quarantined_node_reports_are_dropped_without_gating(self):
        service, t = _warm_service()
        for i in range(40):
            service.apply(MeasurementEvent(t + i * 0.01, 0, 1 + (i % 4), 20_000.0))
        assert 0 in service.quarantined_nodes()
        drops_before = service.defense_stats()["quarantine_drops"]
        service.apply(MeasurementEvent(t + 1.0, 0, 1, 20.0))
        assert service.defense_stats()["quarantine_drops"] >= drops_before

    def test_ledger_survives_leave_and_rejoin(self):
        service, t = _warm_service()
        for i in range(40):
            service.apply(MeasurementEvent(t + i * 0.01, 0, 1 + (i % 4), 20_000.0))
        assert 0 in service.quarantined_nodes()
        service.apply(NodeLeave(t + 1.0, 0))
        service.apply(NodeJoin(t + 2.0, 0))
        assert 0 in service.quarantined_nodes()
        assert service.suspicion_of(0) > 0

    def test_suspicion_of_refuses_an_id_that_is_not_an_integer(self):
        # False and 0.0 equal node 0 and used to answer with its suspicion.
        service, t = _warm_service()
        service.apply(MeasurementEvent(t, 0, 1, 20_000.0))
        assert service.suspicion_of(0) > 0
        for bad in (False, 0.0, np.float64(0.0)):
            with pytest.raises(StreamError, match="is not an integer"):
                service.suspicion_of(bad)
        assert service.suspicion_of(np.int64(0)) == service.suspicion_of(0)

    def test_suspicion_decays_on_accepted_traffic(self):
        service, t = _warm_service()
        # Honest follow-up reports must match the fixture's geometry, or
        # the gate (rightly) keeps rejecting them instead of absolving.
        points = np.random.default_rng(1).uniform(0.0, 50.0, size=(8, 2))
        delays = np.linalg.norm(points[:, None] - points[None, :], axis=-1) + 5.0
        service.apply(MeasurementEvent(t, 0, 1, 20_000.0))
        high = service.suspicion_of(0)
        assert high > 0
        for i in range(20):
            dst = 1 + (i % 4)
            service.apply(
                MeasurementEvent(t + 0.01 + i * 0.01, 0, dst, float(delays[0, dst]))
            )
        assert service.suspicion_of(0) < high


class TestLateEvents:
    def test_late_measurement_dropped_when_defense_armed(self):
        service, t = _warm_service()
        events_before = service.n_events
        service.apply(MeasurementEvent(t - 5.0, 0, 1, 20.0))
        assert service.late_dropped_events == 1
        assert service.n_events == events_before + 1  # still counted as an event

    def test_late_measurement_rejected_without_defense(self):
        service = StreamCoordinateService(rng=0)
        service.apply(NodeJoin(1.0, 0))
        with pytest.raises(StreamError, match="time"):
            service.apply(NodeJoin(0.5, 1))

    def test_skewed_churning_trace_replays_and_resumes(self, tmp_path):
        # Forward-skewed measurements move the clock past later joins and
        # leaves (the first at event 360): those still apply, and the
        # clock does not move back.
        trace = synthesize_trace(
            n_nodes=40,
            duration=30,
            churn=0.2,
            seed=3,
            faults=FaultSpec(skew_fraction=0.05, seed=3),
        )
        config = StreamServiceConfig(defense=DefenseConfig())
        service = StreamCoordinateService(config=config, rng=0)
        for event in trace.events[:360]:
            service.apply(event)
        clock, leave = service.clock, trace.events[360]
        assert isinstance(leave, NodeLeave) and leave.t < clock
        service.apply(leave)
        assert service.clock == clock
        assert leave.node not in service.active_nodes()

        uninterrupted = replay_trace(trace, config=config)
        assert uninterrupted.totals["late_dropped_events"] > 0
        assert uninterrupted.totals["final_active_nodes"] == 40

        # Stop between checkpoints so the WAL suffix (events 400-449)
        # replays two late leaves during recovery.
        ck, wal = tmp_path / "ck.npz", tmp_path / "wal.jsonl"
        replay_trace(
            trace,
            config=config,
            checkpoint_path=ck,
            wal_path=wal,
            checkpoint_every=100,
            stop_after_events=450,
        )
        resumed = replay_trace(
            trace, config=config, checkpoint_path=ck, wal_path=wal, resume=True
        )
        assert resumed.totals["resumed_at_event"] == 450
        assert (
            resumed.totals["state_fingerprint"]
            == uninterrupted.totals["state_fingerprint"]
        )


class TestEndToEnd:
    def test_defense_quarantines_injected_liars(self):
        trace = synthesize_trace(
            n_nodes=48,
            seed=3,
            duration=60.0,
            faults=FaultSpec(liar_fraction=0.1, seed=3),
        )
        liars = set(trace.meta["fault_liars"])
        defended = replay_trace(
            trace, config=StreamServiceConfig(defense=DefenseConfig())
        )
        quarantined = set(defended.defense["ever_quarantined"])
        assert quarantined  # the defense engaged
        assert quarantined <= liars  # zero false positives on this seed
        assert len(quarantined & liars) >= len(liars) // 2
        assert defended.totals["rejected_measurements"] > 0

    def test_defense_report_totals_surface(self):
        trace = synthesize_trace(n_nodes=24, seed=0, duration=20.0)
        report = replay_trace(
            trace, config=StreamServiceConfig(defense=DefenseConfig())
        )
        for key in (
            "rejected_measurements",
            "quarantined_nodes",
            "ever_quarantined_nodes",
            "late_dropped_events",
        ):
            assert key in report.totals
        assert "gate_rejected" in report.defense
