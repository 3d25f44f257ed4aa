"""The ring store and lock-step query against the Meridian oracle.

Small random matrices are drawn from a pool of awkward delays — exact ring
boundaries ``alpha * s**i`` and their float neighbours (which rounding can
place just outside their ring), the β window edges around them, repeated
values (ties) and ``nan`` (unmeasured, seen as ``inf`` by queries) — so
every comparison, rounding and tie-break of the array code meets the case
the oracle's per-member loops decide one at a time.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alert import TIVAlert
from repro.core.tiv_aware_meridian import (
    TIVAwareMeridianConfig,
    tiv_aware_membership_adjuster,
    tiv_aware_restart_policy,
)
from repro.delayspace.matrix import DelayMatrix
from repro.errors import MeridianError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_experiment
from repro.meridian.overlay import MeridianOverlay
from repro.meridian.rings import MeridianConfig
from tests.meridian.oracle import OracleOverlay
from tests.meridian.test_rings import row_rings


def delay_pool(config: MeridianConfig, gen: np.random.Generator) -> np.ndarray:
    """Ring boundaries and their neighbours, β window edges, a few plain delays."""
    boundaries = config.alpha * config.s ** np.arange(config.n_rings + 1, dtype=float)
    neighbours = np.concatenate([np.nextafter(boundaries, 0.0), np.nextafter(boundaries, np.inf)])
    edges = np.concatenate([(1 - config.beta) * boundaries, (1 + config.beta) * boundaries])
    return np.concatenate(
        [[0.0], boundaries, neighbours, edges, gen.uniform(0.0, boundaries[-1], 6)]
    )


def random_matrix(n: int, pool: np.ndarray, holes: float, gen: np.random.Generator) -> DelayMatrix:
    upper = gen.choice(pool, size=(n, n))
    upper[gen.random((n, n)) < holes] = np.nan
    delays = np.triu(upper, 1)
    delays = delays + delays.T
    delays[np.isnan(delays.T)] = np.nan
    np.fill_diagonal(delays, 0.0)
    return DelayMatrix(delays)


def random_alert(matrix: DelayMatrix, pool: np.ndarray, gen: np.random.Generator) -> TIVAlert:
    n = matrix.n_nodes
    ratios = gen.choice([np.nan, 0.3, 0.6, 1.0, 2.0, 3.5], size=(n, n))
    predicted = gen.choice(np.concatenate([pool, [np.nan, -1.0]]), size=(n, n))
    return TIVAlert.from_ratio_matrix(matrix, ratios, predicted)


def assert_same_rings(batched: MeridianOverlay, reference: OracleOverlay) -> None:
    """Same members, rings and placements, and every window sees the same members."""
    store = batched._store
    for node_id in reference.meridian_ids:
        assert batched.members(node_id) == reference.members(node_id)  # insertion order too
        row = batched._row_of[node_id]
        rings = row_rings(store, row)
        assert [list(ring.items()) for ring in rings] == [
            list(ring.items()) for ring in reference.rings(node_id)
        ]
        # Eligibility is the queries' one ring read.  Windows ending exactly
        # at a placement delay see the ring-overlap test: a boundary delay
        # rounded into the next ring hides there.
        want = reference.node(node_id).rings
        placements = {delay for ring in rings for delay in ring.values()}
        windows = [(0.0, np.inf), (5.0, 2.0)]
        windows += [w for p in placements for w in [(p, p), (0.0, p), (p, np.inf)]]
        for low, high in windows:
            eligible = np.unique(store.members[row][store.eligible(row, low, high)])
            assert eligible.tolist() == want.members_within(low, high)


overlay_cases = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**32 - 1),
        "n": st.integers(min_value=3, max_value=16),
        "meridian_fraction": st.sampled_from([0.4, 0.7, 1.0]),
        "geometry": st.sampled_from([(1.0, 2.0, 6, 2), (2.5, 3.0, 4, 3), (1.0, 2.0, 11, 16)]),
        "beta": st.sampled_from([0.1, 0.5, 0.9]),
        "use_termination": st.booleans(),
        "holes": st.sampled_from([0.0, 0.2, 0.6]),
        "full_membership": st.booleans(),
        "sample_size": st.integers(min_value=1, max_value=8),
        "exclude": st.sampled_from([0.0, 0.3]),
        "adjuster": st.sampled_from([None, "tiv_aware", "pool"]),
    }
)


class PoolAdjuster:
    """Double-places every edge whose id sum is a multiple of 3 at a pool delay."""

    def __init__(self, pool: np.ndarray):
        self.pool = pool

    def __call__(self, owner, member, delay):
        total = owner + member
        return self.pool[total % self.pool.size] if total % 3 == 0 else None

    def placement_delays(self, owners, members, delays):
        total = owners + members
        return np.where(total % 3 == 0, self.pool[total % self.pool.size], np.nan)


def build_pair(case):
    """An overlay and its oracle for one drawn case, plus its inputs."""
    alpha, s, n_rings, k = case["geometry"]
    config = MeridianConfig(
        alpha=alpha,
        s=s,
        n_rings=n_rings,
        k=k,
        beta=case["beta"],
        use_termination=case["use_termination"],
    )
    gen = np.random.default_rng(case["seed"])
    pool = delay_pool(config, gen)
    matrix = random_matrix(case["n"], pool, case["holes"], gen)
    n = matrix.n_nodes
    count = max(2, min(n, int(round(case["meridian_fraction"] * n))))
    meridian_ids = gen.permutation(n)[:count].tolist()
    excluded = [(i, j) for i in range(n) for j in range(n) if gen.random() < case["exclude"]]
    alert = random_alert(matrix, pool, gen)
    tiv_config = TIVAwareMeridianConfig(restart_members=3)
    adjuster = {
        None: None,
        "tiv_aware": tiv_aware_membership_adjuster(alert, tiv_config),
        "pool": PoolAdjuster(pool),
    }[case["adjuster"]]
    overlays = {
        kernel: overlay(
            matrix,
            meridian_ids,
            config,
            rng=case["seed"],
            full_membership=case["full_membership"],
            membership_sample_size=case["sample_size"],
            excluded_edges=excluded,
            membership_adjuster=adjuster,
        )
        for kernel, overlay in (("batched", MeridianOverlay), ("reference", OracleOverlay))
    }
    return overlays, matrix, alert, tiv_config, gen


def repeating_policy(overlay, current, target, delay):
    """A restart policy returning repeats, the current node and the target."""
    return [target, current] + overlay.meridian_ids[::-1] * 2


class TestRingStoreMatchesReference:
    @given(case=overlay_cases)
    @settings(max_examples=120, deadline=None)
    def test_rings(self, case):
        overlays, *_ = build_pair(case)
        assert_same_rings(overlays["batched"], overlays["reference"])


class TestLockstepQueryMatchesReference:
    @given(
        case=overlay_cases,
        policy=st.sampled_from([None, "tiv_aware", "repeating"]),
        max_hops=st.sampled_from([0, 1, 2, 64]),
    )
    @settings(max_examples=120, deadline=None)
    def test_batch_equals_scalar_reference(self, case, policy, max_hops):
        overlays, matrix, alert, tiv_config, gen = build_pair(case)
        restart_policy = {
            None: None,
            "tiv_aware": tiv_aware_restart_policy(alert, tiv_config),
            "repeating": repeating_policy,
        }[policy]
        options = {"restart_policy": restart_policy, "max_hops": max_hops}
        reference = overlays["reference"]
        batched = overlays["batched"]
        # Answers each query on its own, from the same RNG state.
        alone = copy.deepcopy(batched)
        # Every node is a target, Meridian nodes included.
        targets = list(range(matrix.n_nodes))
        ids = reference.meridian_ids
        starts = [ids[i] for i in gen.integers(0, len(ids), len(targets))]

        answerable, expected = [], []
        for target, start in zip(targets, starts):
            try:
                expected.append(
                    reference.closest_neighbor_query(target, start_node=start, **options)
                )
            except MeridianError:
                continue  # no Meridian node measured this target
            answerable.append((target, start))
        if len(answerable) < len(targets):
            with pytest.raises(MeridianError, match="no Meridian node"):
                batched.closest_neighbor_query_batch(targets, start_nodes=starts, **options)
        if not answerable:
            return
        chosen, chosen_starts = map(list, zip(*answerable))
        got = batched.closest_neighbor_query_batch(chosen, start_nodes=chosen_starts, **options)
        assert got == expected
        # A query answers the same inside the batch as alone.
        assert [
            alone.closest_neighbor_query(t, start_node=s, **options) for t, s in answerable
        ] == got

        # Random starts: the overlay draws them from its RNG as the oracle
        # does, one draw per target in order, whether alone or batched.
        expected = reference.closest_neighbor_query_batch(chosen, **options)
        assert batched.closest_neighbor_query_batch(chosen, **options) == expected
        assert [alone.closest_neighbor_query(t, **options) for t in chosen] == expected
        state = reference._rng.bit_generator.state
        assert batched._rng.bit_generator.state == state
        assert alone._rng.bit_generator.state == state


class TestFiguresMatchReference:
    """Every Meridian figure gives the same data with its batches answered
    by the oracle, and every overlay it builds holds the oracle's rings."""

    def test_meridian_figures(self, monkeypatch):
        config = ExperimentConfig(n_nodes=48, seed=2)
        figures = ("fig14", "fig18", "fig24", "fig25")
        lockstep = {figure: run_experiment(figure, config).data for figure in figures}

        built = []
        build = MeridianOverlay.__init__

        def recording_build(overlay, matrix, meridian_nodes, config=None, **kwargs):
            # The oracle draws from a copy of the generator the overlay is
            # about to draw from, so both see the same candidates and the
            # oracle draws the random starts the overlay would have drawn.
            oracle = OracleOverlay(matrix, meridian_nodes, config, **copy.deepcopy(kwargs))
            build(overlay, matrix, meridian_nodes, config, **kwargs)
            built.append((overlay, oracle))

        def through_the_oracle(overlay, targets, **kwargs):
            oracle = next(oracle for built_overlay, oracle in built if built_overlay is overlay)
            return oracle.closest_neighbor_query_batch(targets, **kwargs)

        monkeypatch.setattr(MeridianOverlay, "__init__", recording_build)
        monkeypatch.setattr(MeridianOverlay, "closest_neighbor_query_batch", through_the_oracle)
        for figure in figures:
            assert run_experiment(figure, config).data == lockstep[figure], figure
        assert built
        for overlay, oracle in built:
            assert_same_rings(overlay, oracle)
