"""Unit tests for the per-observation online Vivaldi embedding."""

import numpy as np
import pytest

from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig
from repro.errors import EmbeddingError


class TestConfigValidation:
    def test_defaults_are_paper_faithful(self):
        config = OnlineVivaldiConfig()
        assert config.dimension == 5
        assert config.cc == 0.25
        assert config.ce == 0.25
        assert config.rho == 150.0
        assert config.use_height
        assert config.initial_error == 1.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dimension=0),
            dict(cc=0.0),
            dict(ce=1.5),
            dict(rho=-1.0),
            dict(min_height=0.0),
            dict(initial_error=0.0),
            dict(min_error=2.0),  # above initial_error
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(EmbeddingError):
            OnlineVivaldiConfig(**kwargs)


class TestMembership:
    def test_join_initialises_fresh_state(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(5, t=3.0)
        assert emb.is_active(5)
        assert emb.n_active == 1
        assert np.allclose(emb.coordinate_of(5), 0.0)
        assert emb.error_of(5) == emb.config.initial_error
        assert emb.height_of(5) == emb.config.min_height
        assert emb.update_count_of(5) == 0

    @pytest.mark.parametrize("node", ["a", 1.0, True, None])
    def test_join_refuses_non_integer_ids(self, node):
        emb = OnlineVivaldi(rng=0)
        with pytest.raises(EmbeddingError, match="is not an integer"):
            emb.join(node)
        assert emb.n_active == 0

    def test_restore_refuses_non_integer_ids(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        state = emb.state_dict()
        state["nodes"] = ["1"]
        with pytest.raises(EmbeddingError, match="is not an integer"):
            OnlineVivaldi.from_state(state)

    def test_double_join_rejected(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        with pytest.raises(EmbeddingError, match="already active"):
            emb.join(1)

    def test_leave_unknown_rejected(self):
        emb = OnlineVivaldi(rng=0)
        with pytest.raises(EmbeddingError, match="not active"):
            emb.leave(7)

    def test_rejoin_resets_state(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        emb.join(2)
        for _ in range(10):
            emb.observe(1, 2, 40.0, t=1.0)
        assert emb.update_count_of(1) == 10
        emb.leave(1)
        emb.join(1, t=2.0)
        assert np.allclose(emb.coordinate_of(1), 0.0)
        assert emb.error_of(1) == emb.config.initial_error
        assert emb.update_count_of(1) == 0

    def test_capacity_grows_past_initial(self):
        emb = OnlineVivaldi(rng=0, capacity=2)
        for node in range(10):
            emb.join(node)
        assert emb.n_active == 10
        assert emb.active_nodes() == list(range(10))

    def test_slots_reused_after_leave(self):
        emb = OnlineVivaldi(rng=0, capacity=4)
        for node in range(4):
            emb.join(node)
        emb.leave(1)
        emb.join(99)  # must reuse slot 1, not grow
        assert emb.n_active == 4
        assert emb._coords.shape[0] == 4


class TestObservation:
    def test_observation_moves_only_the_source(self):
        emb = OnlineVivaldi(OnlineVivaldiConfig(rho=0.0), rng=0)
        emb.join(1)
        emb.join(2)
        emb.observe(1, 2, 50.0, t=1.0)
        assert np.linalg.norm(emb.coordinate_of(1)) > 0
        assert np.allclose(emb.coordinate_of(2), 0.0)
        assert emb.update_count_of(1) == 1
        assert emb.update_count_of(2) == 0

    def test_observation_of_inactive_node_rejected(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        with pytest.raises(EmbeddingError, match="not active"):
            emb.observe(1, 99, 10.0)

    def test_nonpositive_and_nan_rtts_are_ignored(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        emb.join(2)
        for rtt in (0.0, -5.0, float("nan"), float("inf")):
            assert emb.observe(1, 2, rtt) == 0.0
        assert emb.update_count_of(1) == 0

    def test_error_stays_capped(self):
        emb = OnlineVivaldi(rng=3)
        emb.join(1)
        emb.join(2)
        # Wildly inconsistent measurements: the error estimate must never
        # exceed the initial_error cap (the Ledlie et al. max_error rule).
        rng = np.random.default_rng(0)
        for _ in range(200):
            emb.observe(1, 2, float(rng.uniform(1.0, 500.0)), t=1.0)
            assert emb.error_of(1) <= emb.config.initial_error + 1e-12

    def test_height_never_drops_below_floor(self):
        emb = OnlineVivaldi(rng=5)
        nodes = list(range(6))
        for node in nodes:
            emb.join(node)
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = rng.choice(6, size=2, replace=False)
            emb.observe(int(a), int(b), float(rng.uniform(5.0, 80.0)))
        for node in nodes:
            assert emb.height_of(node) >= emb.config.min_height

    def test_distance_includes_both_heights(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        emb.join(2)
        emb.observe(1, 2, 30.0, t=1.0)
        i, j = emb._slots[1], emb._slots[2]
        euclid = float(np.linalg.norm(emb._coords[i] - emb._coords[j]))
        assert emb.distance(1, 2) == pytest.approx(
            euclid + emb.height_of(1) + emb.height_of(2)
        )
        assert emb.distance(1, 1) == 0.0

    def test_rho_gravity_bounds_the_norm(self):
        # With a tight rho the pull grows quadratically: coordinates
        # cannot wander far beyond rho even under one-sided measurements.
        # An RTT far above 2 * rho**2 pushes the coordinate to where an
        # unclamped pull would overshoot the origin and diverge.
        for rtt in (400.0, 1e6):
            emb = OnlineVivaldi(
                OnlineVivaldiConfig(rho=50.0, use_height=False), rng=2
            )
            emb.join(1)
            emb.join(2)
            for _ in range(500):
                emb.observe(1, 2, rtt, t=1.0)
            assert np.linalg.norm(emb.coordinate_of(1)) < 250.0, rtt

    def test_reduces_error_on_euclidean_data(self):
        # A TIV-free metric space must embed well through the pure
        # per-observation path.
        rng = np.random.default_rng(4)
        points = rng.uniform(0.0, 100.0, size=(16, 3))
        truth = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
        emb = OnlineVivaldi(
            OnlineVivaldiConfig(use_height=False, rho=0.0), rng=9
        )
        for node in range(16):
            emb.join(node)
        for _ in range(150):
            for src in range(16):
                dst = int(rng.integers(0, 15))
                dst += dst >= src
                emb.observe(src, dst, float(truth[src, dst]))
        errors = [
            abs(emb.distance(a, b) - truth[a, b]) / truth[a, b]
            for a in range(16)
            for b in range(a + 1, 16)
        ]
        assert float(np.median(errors)) < 0.1


class TestQueries:
    @pytest.fixture()
    def localized(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0.0, 100.0, size=(12, 2))
        truth = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
        emb = OnlineVivaldi(OnlineVivaldiConfig(use_height=False, rho=0.0), rng=1)
        for node in range(12):
            emb.join(node)
        for _ in range(120):
            for src in range(12):
                dst = int(rng.integers(0, 11))
                dst += dst >= src
                emb.observe(src, dst, float(truth[src, dst]))
        return emb, truth

    def test_closest_orders_by_predicted_delay(self, localized):
        emb, _ = localized
        ranked = emb.closest(0, k=11)
        assert len(ranked) == 11
        delays = [delay for _, delay in ranked]
        assert delays == sorted(delays)
        assert emb.closest(0, k=1) == ranked[:1]

    def test_staleness_ages_from_last_update(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1, t=0.0)
        emb.join(2, t=4.0)
        emb.observe(1, 2, 20.0, t=10.0)
        ages = emb.staleness(now=12.0)
        assert ages[1] == pytest.approx(2.0)  # updated at t=10
        assert ages[2] == pytest.approx(8.0)  # never updated since joining

    def test_staleness_rejects_a_clock_behind_the_updates(self):
        # Regression: a `now` earlier than the latest update used to return
        # silently negative ages; it must raise instead.
        emb = OnlineVivaldi(rng=0)
        emb.join(1, t=0.0)
        emb.join(2, t=0.0)
        emb.observe(1, 2, 20.0, t=10.0)
        with pytest.raises(EmbeddingError, match="earlier than the latest"):
            emb.staleness(now=5.0)
        # Exactly at the latest update is fine (zero age, not negative).
        assert emb.staleness(now=10.0)[1] == 0.0
        # And an empty population never raises.
        assert OnlineVivaldi(rng=0).staleness(now=-100.0) == {}

    def test_closest_breaks_ties_numerically_for_int_ids(self):
        # Regression: ties used to sort by str(node), ranking 10 before 2.
        emb = OnlineVivaldi(rng=0)
        for node in (0, 10, 2, 30):
            emb.join(node)
        # No observations: every node sits at the origin with equal height,
        # so all predicted delays from 0 tie exactly.
        ranked = emb.closest(0, k=3)
        assert [node for node, _ in ranked] == [2, 10, 30]

    def test_snapshot_is_a_copy(self):
        emb = OnlineVivaldi(rng=0)
        emb.join(1)
        emb.join(2)
        emb.observe(1, 2, 25.0, t=1.0)
        snap = emb.snapshot()
        snap["coordinates"][:] = 0.0
        assert np.linalg.norm(emb.coordinate_of(1)) > 0
        assert snap["nodes"] == [1, 2]


class TestSlotLifecycleUnderMassChurn:
    """The slot allocator under flapping populations: capacity tracks the
    *concurrent* peak, freed slots are recycled deterministically, and
    surviving nodes' state is never disturbed by other nodes' churn."""

    def test_mass_leave_join_cycles_bound_capacity(self):
        embedding = OnlineVivaldi(rng=0, capacity=4)
        rng = np.random.default_rng(0)
        for cycle in range(20):
            cohort = [100 * cycle + i for i in range(8)]
            for node in cohort:
                embedding.join(node, t=float(cycle))
            for a in cohort:
                for b in cohort:
                    if a != b:
                        embedding.observe(a, b, float(rng.uniform(5, 50)), t=float(cycle))
            for node in cohort:
                embedding.leave(node)
        assert embedding.n_active == 0
        # 8 concurrent nodes ever: the arrays never grew past that peak
        # (growth doubles, so the bound is the next power of two of 8).
        assert embedding._coords.shape[0] <= 16

    def test_survivor_state_untouched_by_neighbors_churn(self):
        embedding = OnlineVivaldi(rng=0, capacity=4)
        keeper, aux = 0, 1
        embedding.join(keeper, t=0.0)
        embedding.join(aux, t=0.0)
        for i in range(30):
            embedding.observe(keeper, aux, 20.0, t=float(i))
            embedding.observe(aux, keeper, 20.0, t=float(i))
        coord = embedding.coordinate_of(keeper).copy()
        height = embedding.height_of(keeper)
        error = embedding.error_of(keeper)
        for cycle in range(10):
            node = 100 + cycle
            embedding.join(node, t=50.0 + cycle)
            embedding.leave(node)
        assert np.array_equal(embedding.coordinate_of(keeper), coord)
        assert embedding.height_of(keeper) == height
        assert embedding.error_of(keeper) == error

    def test_active_nodes_correct_after_interleaved_churn(self):
        embedding = OnlineVivaldi(rng=0, capacity=2)
        alive = set()
        rng = np.random.default_rng(3)
        for step in range(200):
            if alive and rng.uniform() < 0.4:
                node = sorted(alive)[int(rng.integers(len(alive)))]
                embedding.leave(node)
                alive.discard(node)
            else:
                node = int(rng.integers(1000))
                if node not in alive:
                    embedding.join(node, t=float(step))
                    alive.add(node)
        assert embedding.n_active == len(alive)
        assert embedding.active_nodes() == sorted(alive)
        for node in alive:
            assert embedding.is_active(node)

    def test_state_round_trip_preserves_churned_slot_map(self):
        embedding = OnlineVivaldi(rng=0, capacity=2)
        rng = np.random.default_rng(5)
        for i in range(12):
            embedding.join(i, t=float(i))
        for i in range(0, 12, 3):
            embedding.leave(i)
        for _ in range(50):
            a, b = rng.choice(embedding.active_nodes(), size=2, replace=False)
            embedding.observe(int(a), int(b), float(rng.uniform(5, 50)))
        state = embedding.state_dict()
        restored = OnlineVivaldi.from_state(
            state, embedding.config, rng=np.random.default_rng(9)
        )
        assert restored.active_nodes() == embedding.active_nodes()
        assert restored._slots == embedding._slots
        assert restored._free == embedding._free
        for node in embedding.active_nodes():
            assert np.array_equal(
                restored.coordinate_of(node), embedding.coordinate_of(node)
            )
            assert restored.update_count_of(node) == embedding.update_count_of(node)

    def test_rejoin_after_mass_leave_reuses_most_recent_slot(self):
        embedding = OnlineVivaldi(rng=0, capacity=4)
        for i in range(4):
            embedding.join(i)
        slots = dict(embedding._slots)
        for i in range(4):
            embedding.leave(i)
        # LIFO reuse: the last freed slot is handed to the next join.
        embedding.join(99)
        assert embedding._slots[99] == slots[3]
