"""A Hypothesis state machine for the stream service against a dict model.

The model holds what the service promises through its public surface:
the active nodes, the remembered RTT (and observation time) of every
measured edge, which edges hold a severity estimate, the event count,
the dropped-measurement count and the clock.  An edge gains an estimate
when a usable observation of it finds a common witness (a peer measured
by both endpoints) and loses it when either endpoint leaves, so a row
of the service's edge table that a later edge reuses must never carry
the old edge's estimate.  Node ids come from 0-300, about half of them
multiples of 8, so the service's small per-node peer sets collide in
their hash tables and their iteration order depends on insertion
history.  Every run starts from 8-16 nodes and two probe rounds, dense
enough that edges have several common witnesses.

Three kinds of copy must stay bit-identical to the live service: a copy
restored from ``state_dict`` at the start of every probe round, a
checkpoint twin (saved and loaded at some step, then fed every later
event), and the service a WAL recovery rebuilds.
"""

import math
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import StreamError
from repro.stream import (
    MeasurementEvent,
    NodeJoin,
    NodeLeave,
    StreamCoordinateService,
    WalWriter,
    load_checkpoint,
    recover,
    save_checkpoint,
    state_fingerprint,
)

NODE_IDS = st.one_of(
    st.integers(min_value=0, max_value=37).map(lambda k: 8 * k),
    st.integers(min_value=0, max_value=300),
)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
STEPS = [0.0, 0.25, 1.0]
UNUSABLE_RTTS = [0.0, -5.0, float("nan")]


def _random_rtt(rng: random.Random) -> float:
    """A short or a long RTT, or now and then an unusable one.

    A long edge between short ones often has a faster two-hop detour,
    so its severity sample sums ratios above 1.
    """
    draw = rng.random()
    if draw < 0.15:
        return rng.choice(UNUSABLE_RTTS)
    if draw < 0.6:
        return rng.uniform(0.5, 20.0)
    return rng.uniform(100.0, 400.0)


class StreamServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="stream-machine-"))
        self.checkpoint = self.workdir / "ck.npz"
        self.wal_path = self.workdir / "wal.jsonl"
        self.service = StreamCoordinateService(rng=0)
        save_checkpoint(self.service, self.checkpoint)
        self.wal = WalWriter(self.wal_path)
        # False once an event that raised but still counted was applied
        # since the last checkpoint: the WAL cannot hold it, so recovery
        # would (rightly) refuse the gap.
        self.wal_complete = True
        self.twin = None
        self.active: set[int] = set()
        self.edges: dict[tuple[int, int], tuple[float, float]] = {}
        self.estimated: set[tuple[int, int]] = set()
        self.events = 0
        self.dropped = 0
        self.clock = 0.0

    def teardown(self):
        self.wal.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _peers(self, node) -> set[int]:
        return {b if a == node else a for a, b in self.edges if node in (a, b)}

    def _copies(self, extra):
        return [c for c in (self.service, self.twin, extra) if c is not None]

    def _apply(self, event, *, extra=None) -> None:
        """Log and apply an event the model says is valid."""
        self.wal.log(self.service.n_events, event)
        for copy in self._copies(extra):
            copy.apply(event)
        self.events += 1
        self.clock = event.t

    def _refuse(self, event, *, counted: bool, extra=None) -> None:
        """Apply an event the model says is invalid: every copy raises."""
        for copy in self._copies(extra):
            with pytest.raises(StreamError):
                copy.apply(event)
        if counted:
            self.events += 1
            self.clock = event.t
            self.wal_complete = False

    # -- membership ------------------------------------------------------------

    @initialize(
        nodes=st.lists(NODE_IDS, min_size=8, max_size=16, unique=True),
        seeds=st.lists(SEEDS, min_size=2, max_size=2),
    )
    def populate(self, nodes, seeds):
        for node in nodes:
            self._apply(NodeJoin(self.clock, node))
            self.active.add(node)
        for seed in seeds:
            self.probe_round(seed)

    @rule(node=NODE_IDS, dt=st.sampled_from(STEPS))
    def join(self, node, dt):
        if node not in self.active:
            self._apply(NodeJoin(self.clock + dt, node))
            self.active.add(node)

    @precondition(lambda self: self.active)
    @rule(data=st.data(), dt=st.sampled_from(STEPS))
    def leave(self, data, dt):
        node = data.draw(st.sampled_from(sorted(self.active)), label="node")
        self._apply(NodeLeave(self.clock + dt, node))
        self.active.discard(node)
        self.edges = {edge: obs for edge, obs in self.edges.items() if node not in edge}
        self.estimated = {edge for edge in self.estimated if node not in edge}

    # -- measurements ----------------------------------------------------------

    @precondition(lambda self: self.active)
    @rule(seed=SEEDS)
    def probe_round(self, seed):
        """Every active node measures one peer (possibly itself).

        The round's peers, RTTs and time steps come from ``seed``: one
        draw per round keeps Hypothesis's overhead off the hot loop.  A
        copy restored from the state at the start of the round takes the
        same events and must end the round bit-identical.
        """
        rng = random.Random(seed)
        restored = StreamCoordinateService.from_state(self.service.state_dict())
        active = sorted(self.active)
        for src in active:
            dst = rng.choice(active)
            rtt = _random_rtt(rng)
            event = MeasurementEvent(self.clock + rng.choice(STEPS), src, dst, rtt)
            if src == dst:
                self._refuse(event, counted=False, extra=restored)
                continue
            self._apply(event, extra=restored)
            if math.isfinite(rtt) and rtt > 0:
                edge = (min(src, dst), max(src, dst))
                self.edges[edge] = (rtt, event.t)
                if self._peers(src) & self._peers(dst):
                    self.estimated.add(edge)
            else:
                self.dropped += 1
        assert state_fingerprint(restored) == state_fingerprint(self.service)

    @precondition(lambda self: self.active)
    @rule(data=st.data(), node=NODE_IDS, dt=st.sampled_from(STEPS))
    def misuse(self, data, node, dt):
        """Join an active node, or leave or measure an inactive one."""
        t = self.clock + dt
        if node in self.active:
            self._refuse(NodeJoin(t, node), counted=True)
        elif data.draw(st.booleans(), label="leave"):
            self._refuse(NodeLeave(t, node), counted=True)
        else:
            src = data.draw(st.sampled_from(sorted(self.active)), label="src")
            self._refuse(MeasurementEvent(t, src, node, 10.0), counted=True)

    # -- queries ---------------------------------------------------------------

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def query(self, data):
        edge = data.draw(st.sampled_from(sorted(self.edges)), label="edge")
        rtt, observed_at = self.edges[edge]
        verdict = self.service.tiv_alert(*edge)
        assert verdict["observed"] == rtt
        assert verdict["observation_age"] == self.clock - observed_at
        if self.twin is not None:
            assert self.twin.tiv_alert(*edge) == verdict
            assert self.twin.closest(edge[0], k=3) == self.service.closest(edge[0], k=3)
            assert self.twin.worst_edges(5) == self.service.worst_edges(5)

    # -- durability ------------------------------------------------------------

    @rule()
    def checkpoint(self):
        save_checkpoint(self.service, self.checkpoint)
        self.wal.cut()
        self.wal_complete = True
        self.twin = load_checkpoint(self.checkpoint)

    @precondition(lambda self: self.wal_complete)
    @rule()
    def crash_and_recover(self):
        self.wal.close()
        recovered = recover(self.checkpoint, self.wal_path)
        assert state_fingerprint(recovered) == state_fingerprint(self.service)
        self.service = recovered
        self.wal = WalWriter(self.wal_path, append=True)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def service_matches_the_model(self):
        service = self.service
        assert service.active_nodes() == sorted(self.active)
        assert service.n_events == self.events
        assert service.dropped_measurements == self.dropped
        assert service.clock == self.clock
        edges = sorted(self.edges)
        assert service.observed_edges() == edges
        state = service.state_dict()
        assert "peers" not in state
        assert [tuple(row) for row in state["edge_ids"].tolist()] == edges
        assert [tuple(row) for row in state["edge_obs"].tolist()] == [
            self.edges[edge] for edge in edges
        ]
        assert [tuple(row) for row in state["severity_ids"].tolist()] == sorted(
            self.estimated
        )
        for edge in edges:
            estimate = service.severity_estimate(*edge)
            assert (estimate is None) == (edge not in self.estimated), edge

    @invariant()
    def twin_matches_the_live_service(self):
        if self.twin is not None:
            assert state_fingerprint(self.twin) == state_fingerprint(self.service)


StreamServiceMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestStreamServiceMachine = StreamServiceMachine.TestCase
