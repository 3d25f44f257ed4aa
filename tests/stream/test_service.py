"""Unit tests for the live streaming coordinate service."""

import math
import sys

import numpy as np
import pytest

from repro.coords.online import MAX_RTT, OnlineVivaldi, OnlineVivaldiConfig
from repro.errors import EmbeddingError, StreamError
from repro.stream import (
    FaultSpec,
    MeasurementEvent,
    NodeJoin,
    NodeLeave,
    StreamCoordinateService,
    StreamServiceConfig,
    state_fingerprint,
    synthesize_trace,
)
from tests.stream.oracles import closest_oracle, tiv_alert_oracle


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alert_threshold=0.0),
            dict(alert_threshold=1.0),
            dict(severity_witnesses=0),
            dict(severity_alpha=0.0),
            dict(severity_alpha=1.5),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(StreamError):
            StreamServiceConfig(**kwargs)


class TestEventHandling:
    def test_apply_dispatches_by_event_type(self):
        service = StreamCoordinateService(rng=0)
        service.apply(NodeJoin(0.0, 1))
        service.apply(NodeJoin(0.0, 2))
        service.apply(MeasurementEvent(1.0, 1, 2, 20.0))
        service.apply(NodeLeave(2.0, 2))
        assert service.n_active == 1
        assert service.n_events == 4
        assert service.clock == 2.0

    def test_unknown_event_rejected(self):
        service = StreamCoordinateService(rng=0)
        with pytest.raises(StreamError, match="unknown stream event"):
            service.apply(("not", "an", "event"))

    def test_time_regression_rejected(self):
        service = StreamCoordinateService(rng=0)
        service.join(1, t=5.0)
        with pytest.raises(StreamError, match="time-ordered"):
            service.join(2, t=4.0)

    def test_double_join_rejected(self):
        service = StreamCoordinateService(rng=0)
        service.join(1)
        with pytest.raises(StreamError, match="joined twice"):
            service.join(1)

    def test_leave_of_inactive_rejected(self):
        service = StreamCoordinateService(rng=0)
        with pytest.raises(StreamError, match="not active"):
            service.leave(3)

    def test_measurement_on_inactive_node_rejected(self):
        service = StreamCoordinateService(rng=0)
        service.join(1)
        with pytest.raises(StreamError, match="inactive node 2"):
            service.observe(1, 2, 10.0)

    def test_self_measurement_rejected_without_touching_state(self):
        # Regression: observe(2, 2, ...) recorded the edge (2, 2) and a
        # later leave(2) raised a bare KeyError after the node had
        # already left the embedding.
        service = StreamCoordinateService(rng=0)
        service.join(1)
        service.join(2)
        with pytest.raises(StreamError, match="self-measurement"):
            service.observe(2, 2, 10.0, t=1.0)
        assert service.n_events == 2
        assert service.clock == 0.0
        assert service.n_observed_edges == 0
        service.leave(2, t=2.0)
        assert service.active_nodes() == [1]

    @pytest.mark.parametrize("src, dst", [(3.0, 5), (3, np.float64(5)), (True, 5)])
    def test_non_integer_id_rejected_without_touching_state(self, src, dst):
        # 3.0 and True equal active ids 3 and 1; refused all the same,
        # since the edge table's id columns hold integers only.
        service = StreamCoordinateService(rng=0)
        for node in (1, 3, 5, 7):
            service.join(node)
        service.observe(1, 5, 10.0, t=1.0)
        service.observe(3, 7, 12.0, t=1.0)
        before = state_fingerprint(service)
        with pytest.raises(StreamError, match="is not an integer"):
            service.observe(src, dst, 20.0, t=2.0)
        assert state_fingerprint(service) == before
        service.observe(np.int64(3), 5, 20.0, t=2.0)
        assert service.observed_edges() == [(1, 5), (3, 5), (3, 7)]


class TestIntegerIdsAtIngest:
    """join, leave and the embedding's ingest refuse an id that is not an
    integer (3.0 and True equal nodes 3 and 1), and the neighbour reads a
    count that is not one, before any state moves; numpy integers pass as
    the equal Python ints."""

    @staticmethod
    def edge_service():
        """Nodes 0-3 with edges (0, 3) and (1, 3): clock 1.0, six events."""
        service = StreamCoordinateService(rng=0)
        for node in range(4):
            service.join(node)
        service.observe(0, 3, 10.0, t=1.0)
        service.observe(1, 3, 12.0, t=1.0)
        return service

    SERVICE_CALLS = {
        "join-float": lambda service: service.join(2.5, t=7.0),
        "join-bool": lambda service: service.join(True, t=7.0),
        "leave-float": lambda service: service.leave(3.0, t=7.0),
        "leave-bool": lambda service: service.leave(True, t=7.0),
        "leave-numpy-float": lambda service: service.leave(np.float64(3.0), t=7.0),
        "apply-leave": lambda service: service.apply(NodeLeave(7.0, 3.0)),
    }

    @pytest.mark.parametrize("call", sorted(SERVICE_CALLS))
    def test_service_refuses_before_the_clock_moves(self, call):
        service = self.edge_service()
        before = state_fingerprint(service)
        with pytest.raises(StreamError, match="is not an integer"):
            self.SERVICE_CALLS[call](service)
        assert state_fingerprint(service) == before
        assert (service.clock, service.n_events, service.n_observed_edges) == (1.0, 6, 2)

    EMBEDDING_CALLS = {
        "leave-float": lambda embedding: embedding.leave(3.0),
        "leave-bool": lambda embedding: embedding.leave(True),
        "observe-float": lambda embedding: embedding.observe(0.0, 2, 30.0),
        "observe-bool": lambda embedding: embedding.observe(0, True, 30.0),
        "is_active-float": lambda embedding: embedding.is_active(3.0),
        "is_active-bool": lambda embedding: embedding.is_active(True),
    }

    @pytest.mark.parametrize("call", sorted(EMBEDDING_CALLS))
    def test_embedding_refuses(self, call):
        service = self.edge_service()
        before = state_fingerprint(service)
        with pytest.raises(EmbeddingError, match="is not an integer"):
            self.EMBEDDING_CALLS[call](service.embedding)
        assert state_fingerprint(service) == before

    K_CALLS = {
        "closest": lambda service, k: service.closest(0, k=k),
        "closest_batch": lambda service, k: service.closest_batch([0, 1], k=k),
        "embedding.closest": lambda service, k: service.embedding.closest(0, k=k),
        "embedding.closest_batch": lambda service, k: service.embedding.closest_batch(
            [0, 1], k=k
        ),
    }

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(2.0), "2"])
    @pytest.mark.parametrize("call", sorted(K_CALLS))
    def test_k_must_be_an_integer(self, call, bad):
        # 1.5 and True answered one neighbour, as worst_edges no longer does.
        service = self.edge_service()
        before = state_fingerprint(service)
        with pytest.raises(EmbeddingError, match="is not an integer"):
            self.K_CALLS[call](service, bad)
        assert state_fingerprint(service) == before
        assert self.K_CALLS[call](service, np.int64(2)) == self.K_CALLS[call](service, 2)

    @pytest.mark.parametrize("node", [2**63, -(2**63) - 1, np.uint64(2**64 - 1)])
    def test_an_id_outside_int64_is_refused_before_the_clock_moves(self, node):
        # 2**63 used to join; its first measurement then moved the embedding
        # and the edge map before the int64 id column refused it, and every
        # closest_batch after that raised OverflowError.
        service = self.edge_service()
        before = state_fingerprint(service)
        with pytest.raises(StreamError, match="outside int64"):
            service.join(node, t=7.0)
        with pytest.raises(EmbeddingError, match="outside int64"):
            service.embedding.join(node, t=7.0)
        assert state_fingerprint(service) == before
        assert (service.clock, service.n_events, service.n_observed_edges) == (1.0, 6, 2)

    def test_the_int64_bounds_join_and_answer(self):
        service = self.edge_service()
        low, high = -(2**63), 2**63 - 1
        service.join(low, t=2.0)
        service.join(high, t=2.0)
        service.observe(low, high, 30.0, t=3.0)
        service.observe(high, 0, 8.0, t=3.0)
        assert service.observed_edges() == [(low, high), (0, 3), (0, high), (1, 3)]
        ranked = service.closest(low, k=5)
        assert ranked == closest_oracle(service.embedding, low, 5)
        assert service.closest_batch([high, low], k=5)[1] == ranked
        assert service.tiv_alert(high, low) == tiv_alert_oracle(service, low, high)
        restored = StreamCoordinateService.from_state(service.state_dict())
        assert state_fingerprint(restored) == state_fingerprint(service)

    def test_restore_refuses_an_id_outside_int64(self):
        state = self.edge_service().embedding.state_dict()
        state["nodes"][0] = 2**63
        with pytest.raises(EmbeddingError, match="outside int64"):
            OnlineVivaldi.from_state(state)

    def test_numpy_integer_ids_are_taken_as_python_ints(self):
        plain, numpy_ids = self.edge_service(), self.edge_service()
        plain.leave(3, t=2.0)
        plain.join(3, t=3.0)
        plain.observe(3, 2, 9.0, t=4.0)
        numpy_ids.leave(np.int64(3), t=2.0)
        numpy_ids.join(np.int32(3), t=3.0)
        numpy_ids.observe(np.int64(3), np.int64(2), 9.0, t=4.0)
        # A numpy id kept as a key made the state unserialisable.
        assert state_fingerprint(numpy_ids) == state_fingerprint(plain)
        assert all(type(node) is int for node in numpy_ids.active_nodes())
        assert numpy_ids.embedding.is_active(np.int64(3))
        numpy_ids.embedding.leave(np.int64(3))
        assert not numpy_ids.embedding.is_active(3)


class TestEdgeMemory:
    def test_observation_is_remembered(self):
        service = StreamCoordinateService(rng=0)
        service.join(1)
        service.join(2)
        service.observe(1, 2, 33.0, t=1.0)
        assert service.n_observed_edges == 1
        verdict = service.tiv_alert(2, 1)  # undirected: order must not matter
        assert verdict["observed"] == 33.0
        assert verdict["edge"] == (1, 2)

    def test_leave_drops_the_nodes_edges(self):
        service = StreamCoordinateService(rng=0)
        for node in (1, 2, 3):
            service.join(node)
        service.observe(1, 2, 10.0, t=1.0)
        service.observe(2, 3, 15.0, t=2.0)
        service.observe(1, 3, 20.0, t=3.0)
        assert service.n_observed_edges == 3
        service.leave(2, t=4.0)
        assert service.n_observed_edges == 1  # only (1, 3) survives
        with pytest.raises(StreamError, match="no observed measurement"):
            service.tiv_alert(1, 2)

    def test_alert_requires_an_observation(self):
        service = StreamCoordinateService(rng=0)
        service.join(1)
        service.join(2)
        with pytest.raises(StreamError, match="no observed measurement"):
            service.tiv_alert(1, 2)


class TestSeverity:
    def make_tiv_service(self):
        """A 3-node population with one blatant TIV on edge (0, 2).

        d(0,1) = d(1,2) = 5 but d(0,2) = 100: witness 1 offers a 10 ms
        detour, severity ratio 10.
        """
        service = StreamCoordinateService(rng=0)
        for node in (0, 1, 2):
            service.join(node)
        t = 1.0
        for _ in range(5):
            service.observe(0, 1, 5.0, t=t)
            service.observe(1, 2, 5.0, t=t + 0.1)
            service.observe(0, 2, 100.0, t=t + 0.2)
            t += 1.0
        return service

    def test_rolling_severity_converges_to_the_ratio(self):
        service = self.make_tiv_service()
        estimate = service.severity_estimate(0, 2)
        assert estimate == pytest.approx(10.0)

    def test_non_violating_edges_estimate_one(self):
        service = self.make_tiv_service()
        # Edge (0, 1) has detour 105 via witness 2 — no violation, so
        # every sample clips to 1.
        assert service.severity_estimate(0, 1) == pytest.approx(1.0)

    def test_worst_edges_ranks_the_tiv_first(self):
        service = self.make_tiv_service()
        worst = service.worst_edges(2)
        assert worst[0][0] == (0, 2)
        assert worst[0][1] > worst[1][1]

    @pytest.mark.parametrize("count", [-1, 1.5, 2.0, True, None])
    def test_worst_edges_refuses_a_count_that_is_not_a_non_negative_integer(self, count):
        # Slicing with -1 would drop only the last edge, and 1.5 would truncate to 1.
        service = self.make_tiv_service()
        with pytest.raises(StreamError, match="not a non-negative integer"):
            service.worst_edges(count)

    def test_worst_edges_counts(self):
        service = self.make_tiv_service()
        everything = service.worst_edges(10)
        assert len(everything) == 3
        assert service.worst_edges(0) == []
        assert service.worst_edges(np.int64(2)) == everything[:2]

    def test_overflowing_ratio_saturates_and_still_checkpoints(self, tmp_path):
        # 1e77 ms (just under MAX_RTT) over a 2e-300 ms detour overflows
        # the ratio; the estimate saturates at the largest float, which a
        # checkpoint keeps.
        from repro.stream import load_checkpoint, save_checkpoint

        service = StreamCoordinateService(
            StreamServiceConfig(severity_alpha=1.0), rng=0
        )
        for node in (0, 1, 2):
            service.join(node)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in (1.0, 2.0):
                service.observe(0, 1, 1e-300, t=t)
                service.observe(1, 2, 1e-300, t=t)
                service.observe(0, 2, 1e77, t=t)
        assert service.severity_estimate(0, 2) == sys.float_info.max
        path = tmp_path / "ck.npz"
        save_checkpoint(service, path)
        assert state_fingerprint(load_checkpoint(path)) == state_fingerprint(service)

    def test_no_estimate_without_witnesses(self):
        service = StreamCoordinateService(rng=0)
        service.join(1)
        service.join(2)
        service.observe(1, 2, 10.0, t=1.0)
        assert service.severity_estimate(1, 2) is None

    def test_tiv_edge_alerts(self):
        # The embedding cannot place the TIV edge at 100 while its
        # endpoints sit 5 ms from the shared witness: the predicted
        # delay collapses and the predicted/observed ratio crosses the
        # alert threshold.
        service = self.make_tiv_service()
        verdict = service.tiv_alert(0, 2)
        assert verdict["ratio"] < 0.5
        assert verdict["alerted"]
        assert verdict["severity_estimate"] == pytest.approx(10.0)


class TestDroppedMeasurements:
    def test_unusable_rtts_are_counted_not_hidden(self):
        # Regression: rtt <= 0 (and non-finite) measurements were silently
        # ignored; the service must count every drop.
        service = StreamCoordinateService(rng=0)
        service.join(1)
        service.join(2)
        t = 1.0
        for rtt in (0.0, -5.0, float("nan"), float("inf")):
            service.observe(1, 2, rtt, t=t)
            t += 1.0
        assert service.dropped_measurements == 4
        assert service.n_observed_edges == 0  # nothing unusable was recorded
        service.observe(1, 2, 20.0, t=t)
        assert service.dropped_measurements == 4  # good ones don't count
        assert service.n_observed_edges == 1

    def test_dropped_measurements_still_advance_the_clock(self):
        service = StreamCoordinateService(rng=0)
        service.join(1)
        service.join(2)
        service.observe(1, 2, -1.0, t=7.0)
        assert service.clock == 7.0
        assert service.n_events == 3


class TestHugeRtts:
    """No admitted RTT may turn the embedding or an answer into NaN."""

    CONFIGS = {
        "default": StreamServiceConfig(),
        "no_gravity": StreamServiceConfig(online=OnlineVivaldiConfig(rho=0.0)),
    }
    ORDINARY = [(0, 1, 30.0), (1, 2, 40.0), (2, 0, 50.0), (1, 0, 30.0), (0, 2, 50.0)]

    @staticmethod
    def replay(config, measurements, n_nodes=3):
        service = StreamCoordinateService(config, rng=0)
        for node in range(n_nodes):
            service.join(node)
        for t, (src, dst, rtt) in enumerate(measurements, start=1):
            service.observe(src, dst, rtt, t=float(t))
        return service

    @staticmethod
    def assert_finite(service, n_nodes=3):
        embedding = service.embedding
        for node in range(n_nodes):
            assert np.all(np.isfinite(embedding.coordinate_of(node))), node
            assert math.isfinite(embedding.height_of(node)), node
            assert math.isfinite(embedding.error_of(node)), node
            for other in range(n_nodes):
                assert not math.isnan(service.distance(node, other)), (node, other)
            assert not any(math.isnan(d) for _, d in service.closest(node, k=2)), node

    @pytest.mark.parametrize("config", list(CONFIGS))
    @pytest.mark.parametrize("n_nodes", [2, 3])
    def test_rtts_too_large_to_embed_are_dropped(self, config, n_nodes):
        huge = [(0, 1, rtt) for rtt in (1e160, 1e200, 1e300)]
        ordinary = [m for m in self.ORDINARY * 3 if max(m[:2]) < n_nodes]
        service = self.replay(self.CONFIGS[config], huge + ordinary, n_nodes)
        assert service.dropped_measurements == 3
        self.assert_finite(service, n_nodes)
        # The refused RTTs moved nothing: the run equals one without them.
        clean = self.replay(self.CONFIGS[config], [(0, 1, -1.0)] * 3 + ordinary, n_nodes)
        assert state_fingerprint(service) == state_fingerprint(clean)

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_largest_admitted_rtt_keeps_values_finite(self, config):
        # Near-coincident nodes, then the largest admitted RTT twice: the
        # height update divides by the tiny core distance, and without its
        # cap the next update overflowed the default config's norm.
        tiny = 1e-6
        measurements = [
            (0, 2, tiny), (1, 0, tiny), (2, 1, MAX_RTT), (2, 1, MAX_RTT), (2, 1, tiny),
        ]
        service = self.replay(self.CONFIGS[config], measurements + self.ORDINARY)
        assert service.dropped_measurements == 0
        self.assert_finite(service)


class TestBatchQueries:
    def warmed(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 80.0, size=(12, 2))
        truth = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1)) + 1.0
        service = StreamCoordinateService(rng=1)
        for node in range(12):
            service.join(node)
        t = 1.0
        for _ in range(40):
            for src in range(12):
                dst = int(rng.integers(0, 11))
                dst += dst >= src
                service.observe(src, dst, float(truth[src, dst]), t=t)
                t += 0.001
        return service

    def test_batch_queries_delegate_to_the_embedding(self):
        service = self.warmed()
        nodes = service.active_nodes()
        expected = [closest_oracle(service.embedding, node, 2) for node in nodes]
        assert service.closest_batch(nodes, k=2) == expected
        assert [service.closest(node, k=2) for node in nodes] == expected
        pairs = [(a, b) for a in nodes[:4] for b in nodes[:4]]
        values = service.distance_batch(pairs)
        for (a, b), got in zip(pairs, values):
            assert got == service.distance(a, b)

    def test_tiv_alert_batch_matches_scalar_verdicts(self):
        service = self.warmed()
        # A tenfold RTT on (0, 1) makes the embedding shrink that edge.
        service.observe(0, 1, 10 * service.distance(0, 1), t=service.clock)
        edges = service.observed_edges()[:16]
        # Both orders of every edge: the verdict is undirected.
        edges += [(b, a) for a, b in edges]
        verdicts = service.tiv_alert_batch(edges)
        assert len(verdicts) == len(edges)
        assert {verdict["alerted"] for verdict in verdicts} == {True, False}
        for edge, got in zip(edges, verdicts):
            expected = tiv_alert_oracle(service, *edge)
            assert got == expected
            assert service.tiv_alert(*edge) == expected

    def test_tiv_alert_batch_requires_observations_for_every_edge(self):
        service = self.warmed()
        good = service.observed_edges()[0]
        with pytest.raises(StreamError, match="no observed measurement"):
            service.tiv_alert_batch([good, (998, 999)])

    def test_self_pair_of_an_inactive_node_is_refused(self):
        service = StreamCoordinateService(rng=0)
        for node in (1, 2):
            service.join(node)
        service.observe(1, 2, 20.0, t=1.0)
        assert service.distance(2, 2) == 0.0
        with pytest.raises(EmbeddingError, match="node 7 is not active"):
            service.distance(7, 7)
        with pytest.raises(EmbeddingError, match="node 7 is not active"):
            service.distance_batch([(7, 7)])

    def test_observed_rtt_batch_matches_tiv_alert(self):
        service = self.warmed()
        edges = service.observed_edges()[:16]
        flipped = [(b, a) for a, b in edges[:4]]
        queries = edges + flipped + [(0, 0), (998, 999)]
        got = service.observed_rtt_batch(queries)
        assert got.dtype == np.float64 and got.shape == (len(queries),)
        for (a, b), rtt in zip(edges + flipped, got.tolist()):
            assert rtt == service.tiv_alert(a, b)["observed"]
        assert np.isnan(got[-2:]).all()
        assert service.observed_rtt_batch([]).shape == (0,)

    def id_service(self):
        """Nodes 0-3 with edges (0, 2), (0, 3) and (1, 2) observed.

        2.7, 3.0 and True sit next to ids with an edge to 0 or 2, so a
        query that rounded or compared them would find one.
        """
        service = StreamCoordinateService(rng=0)
        for node in range(4):
            service.join(node)
        for t, (a, b) in enumerate([(0, 2), (0, 3), (1, 2), (2, 3)], start=1):
            service.observe(a, b, 10.0 + t, t=float(t))
        return service

    @pytest.mark.parametrize("bad", [2.7, 3.0, True, np.float64(2.0)])
    def test_tiv_alerts_refuse_an_id_that_is_not_an_integer(self, bad):
        service = self.id_service()
        for other in (0, 2):
            for edge in ((bad, other), (other, bad)):
                with pytest.raises(StreamError, match="is not an integer"):
                    service.tiv_alert(*edge)
                with pytest.raises(StreamError, match="is not an integer"):
                    service.tiv_alert_batch([(0, 2), edge])

    READS = {
        "severity_estimate": lambda service, node: service.severity_estimate(node, 0),
        "observed_rtt_batch": lambda service, node: service.observed_rtt_batch(
            [(0, 2), (node, 0)]
        ).tolist(),
        "distance": lambda service, node: service.distance(node, 0),
        "distance_batch": lambda service, node: service.distance_batch(
            [(0, 2), (node, 0)]
        ).tolist(),
        "closest": lambda service, node: service.closest(node, k=2),
        "closest_batch": lambda service, node: service.closest_batch([0, node], k=2),
        "suspicion_of": lambda service, node: service.suspicion_of(node),
        "embedding.distance": lambda service, node: service.embedding.distance(node, 0),
        "embedding.distance_batch": lambda service, node: service.embedding.distance_batch(
            [(0, node)]
        ).tolist(),
        "embedding.closest_batch": lambda service, node: service.embedding.closest_batch([node]),
        "embedding.coordinate_of": lambda service, node: (
            service.embedding.coordinate_of(node).tolist()
        ),
        "embedding.update_count_of": lambda service, node: service.embedding.update_count_of(node),
    }

    #: The reads of the service's own tables (the edge table, the suspicion
    #: ledger); the others read the embedding and refuse as it refuses an
    #: inactive node.
    EDGE_READS = {"severity_estimate", "observed_rtt_batch", "suspicion_of"}

    @pytest.mark.parametrize("bad", [3.0, True])
    @pytest.mark.parametrize("read", sorted(READS))
    def test_reads_refuse_an_id_that_is_not_an_integer(self, read, bad):
        service = self.id_service()
        call = self.READS[read]
        error = StreamError if read in self.EDGE_READS else EmbeddingError
        with pytest.raises(error, match="is not an integer"):
            call(service, bad)
        assert call(service, np.int64(3)) == call(service, 3)

    def test_tiv_alerts_take_numpy_integers(self):
        service = self.id_service()
        expected = service.tiv_alert(0, 2)
        assert service.tiv_alert(np.int64(2), 0) == expected
        assert service.tiv_alert_batch([(0, np.int64(2)), (np.int32(2), 0)]) == [expected] * 2
        assert all(type(node) is int for node in service.tiv_alert(np.int64(2), 0)["edge"])

    def test_observed_edges_sorted_and_undirected(self):
        service = StreamCoordinateService(rng=0)
        for node in (1, 2, 3):
            service.join(node)
        service.observe(3, 1, 9.0, t=1.0)
        service.observe(2, 1, 9.0, t=2.0)
        assert service.observed_edges() == [(1, 2), (1, 3)]


class TestQueries:
    def test_closest_and_distance_reflect_the_embedding(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0.0, 80.0, size=(10, 2))
        truth = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
        service = StreamCoordinateService(
            StreamServiceConfig(
                online=OnlineVivaldiConfig(use_height=False, rho=0.0)
            ),
            rng=1,
        )
        for node in range(10):
            service.join(node)
        t = 1.0
        for _ in range(100):
            for src in range(10):
                dst = int(rng.integers(0, 9))
                dst += dst >= src
                service.observe(src, dst, float(truth[src, dst]), t=t)
                t += 0.001
        node, predicted = service.closest(0, k=1)[0]
        assert predicted == pytest.approx(service.distance(0, node))
        # The embedding's nearest neighbour should be among the true
        # nearest few (exact rank-1 agreement is not guaranteed).
        true_rank = np.argsort(truth[0])[1:4]
        assert node in true_rank

    def test_staleness_summary(self):
        service = StreamCoordinateService(rng=0)
        service.join(1, t=0.0)
        service.join(2, t=0.0)
        service.observe(1, 2, 10.0, t=8.0)
        stats = service.staleness()
        assert stats["nodes"] == 2.0
        assert stats["max"] == pytest.approx(8.0)  # node 2 never updated
        assert stats["mean"] == pytest.approx(4.0)

    def test_empty_service_staleness(self):
        service = StreamCoordinateService(rng=0)
        stats = service.staleness()
        assert stats["nodes"] == 0.0
        assert np.isnan(stats["mean"])


class EdgeTableSeverity(StreamCoordinateService):
    """The severity update read straight off the row table.

    Common peers are recomputed on every sample from the id columns of
    the rows that hold an edge, and each witness RTT is read from the RTT
    column at its edge's row, so nothing here reads the per-node RTT maps
    the service keeps for the same purpose.
    """

    def _update_severity(self, src, dst, row, rtt):
        rows = self._live_rows()
        a, b = self._a[rows].tolist(), self._b[rows].tolist()

        def peers_of(node):
            return {y if x == node else x for x, y in zip(a, b) if node in (x, y)}

        witnesses = sorted(peers_of(src) & peers_of(dst))
        if not witnesses:
            return
        k = self._config.severity_witnesses
        if len(witnesses) > k:
            chosen = self._rng.choice(len(witnesses), size=k, replace=False)
            witnesses = [witnesses[index] for index in chosen]

        def rtt_of(x, y):
            return float(self._rtt[self._row_of[(x, y) if x <= y else (y, x)]])

        total = 0.0
        for witness in witnesses:
            ratio = rtt / (rtt_of(src, witness) + rtt_of(witness, dst))
            total += ratio if ratio > 1.0 else 1.0
        sample = total / len(witnesses)
        previous = float(self._severity[row])
        if math.isnan(previous):
            estimate = sample
        else:
            alpha = self._config.severity_alpha
            estimate = alpha * sample + (1 - alpha) * previous
        self._severity[row] = min(estimate, sys.float_info.max)


class TestSeverityOracle:
    def test_rtt_maps_match_the_edge_table_through_churn_and_restore(self):
        trace = synthesize_trace(
            n_nodes=20,
            duration=40.0,
            churn=0.3,
            seed=5,
            faults=FaultSpec.parse("flaps=6,dupes=0.05,spikes=0.2,seed=5"),
        )
        # The trace must exercise every way a map entry can go stale or
        # missing: leaves, rejoins, and edges observed again with a new
        # RTT (spikes), some after an endpoint came back.
        left, rejoined, last_rtt = set(), set(), {}
        changed = after_rejoin = 0
        for event in trace.events:
            if isinstance(event, NodeLeave):
                left.add(event.node)
            elif isinstance(event, NodeJoin):
                if event.node in left:
                    rejoined.add(event.node)
            else:
                edge = (min(event.src, event.dst), max(event.src, event.dst))
                changed += last_rtt.get(edge, event.rtt) != event.rtt
                after_rejoin += bool(rejoined & set(edge))
                last_rtt[edge] = event.rtt
        assert len(left) >= 5 and len(rejoined) >= 5
        assert changed > 100 and after_rejoin > 50

        middle = trace.n_events // 2
        service = StreamCoordinateService(rng=3)
        oracle = EdgeTableSeverity(rng=3)
        for index, event in enumerate(trace.events):
            if index == middle:
                service = StreamCoordinateService.from_state(service.state_dict())
            service.apply(event)
            oracle.apply(event)
            assert state_fingerprint(service) == state_fingerprint(oracle), index
        assert service.n_observed_edges > 50
        assert len(service.worst_edges(1000)) > 50
