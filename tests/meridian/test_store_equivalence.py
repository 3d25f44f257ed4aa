"""The batched ring store and lock-step query against the ``reference`` kernel.

Small random matrices are drawn from a pool of awkward delays — exact ring
boundaries ``alpha * s**i`` and their float neighbours (which rounding can
place just outside their ring), the β window edges around them, repeated
values (ties) and ``nan`` (unmeasured, seen as ``inf`` by queries) — so
every comparison, rounding and tie-break of the array code meets the case
the per-member reference loops decide one at a time.
"""

import functools

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


def assert_same_rings(batched: MeridianOverlay, reference: MeridianOverlay) -> None:
    config = reference.config
    assert batched.ring_occupancy() == reference.ring_occupancy()
    for node_id in reference.meridian_ids:
        got, want = batched.node(node_id).rings, reference.node(node_id).rings
        assert got.members() == want.members()  # insertion order included
        assert len(got) == len(want)
        assert got.occupancy() == want.occupancy()
        for ring in range(config.n_rings):
            assert list(got.ring_members(ring).items()) == list(want.ring_members(ring).items())
        for member in want.members():
            assert member in got
            assert got.member_delay(member) == want.member_delay(member)
            assert got.ring_of(member) == want.ring_of(member)
        # Windows ending exactly at a placement delay see the ring-overlap
        # test: a boundary delay rounded into the next ring hides there.
        placements = {
            delay for ring in range(config.n_rings) for delay in want.ring_members(ring).values()
        }
        windows = [(0.0, np.inf), (5.0, 2.0)]
        windows += [w for p in placements for w in [(p, p), (0.0, p), (p, np.inf)]]
        for low, high in windows:
            assert got.members_within(low, high) == want.members_within(low, high)


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
        "adjuster": st.sampled_from([None, "tiv_aware", "callable"]),
    }
)


def build_pair(case):
    """A batched and a reference overlay of one drawn case, plus its inputs."""
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
        "callable": lambda owner, member, delay: pool[(owner + member) % pool.size]
        if (owner + member) % 3 == 0
        else None,
    }[case["adjuster"]]
    overlays = {
        kernel: MeridianOverlay(
            matrix,
            meridian_ids,
            config,
            rng=case["seed"],
            full_membership=case["full_membership"],
            membership_sample_size=case["sample_size"],
            excluded_edges=excluded,
            membership_adjuster=adjuster,
            kernel=kernel,
        )
        for kernel in ("batched", "reference")
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
    @given(case=overlay_cases, policy=st.sampled_from([None, "tiv_aware", "repeating"]))
    @settings(max_examples=120, deadline=None)
    def test_batch_equals_scalar_reference(self, case, policy):
        overlays, matrix, alert, tiv_config, gen = build_pair(case)
        restart_policy = {
            None: None,
            "tiv_aware": tiv_aware_restart_policy(alert, tiv_config),
            "repeating": repeating_policy,
        }[policy]
        reference = overlays["reference"]
        batched = overlays["batched"]
        # Every node is a target, Meridian nodes included.
        targets = list(range(matrix.n_nodes))
        ids = reference.meridian_ids
        starts = [ids[i] for i in gen.integers(0, len(ids), len(targets))]

        answerable, expected = [], []
        for target, start in zip(targets, starts):
            try:
                expected.append(
                    reference.closest_neighbor_query(
                        target, start_node=start, restart_policy=restart_policy
                    )
                )
            except MeridianError:
                continue  # no Meridian node measured this target
            answerable.append((target, start))
        if len(answerable) < len(targets):
            with pytest.raises(MeridianError, match="no Meridian node"):
                batched.closest_neighbor_query_batch(
                    targets, start_nodes=starts, restart_policy=restart_policy
                )
        if not answerable:
            return
        chosen, chosen_starts = map(list, zip(*answerable))
        got = batched.closest_neighbor_query_batch(
            chosen, start_nodes=chosen_starts, restart_policy=restart_policy
        )
        assert got == expected
        scalar = [
            batched.closest_neighbor_query(t, start_node=s, restart_policy=restart_policy)
            for t, s in answerable
        ]
        assert scalar == expected


class TestStoredRingSetWrites:
    """Adds through a batched overlay's node land in the store, as in a RingSet."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        adds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=30),
                st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_adds_match_reference(self, seed, adds):
        config = MeridianConfig(n_rings=5, k=3)
        gen = np.random.default_rng(seed)
        pool = delay_pool(config, gen)
        matrix = random_matrix(40, pool, 0.1, gen)
        ids = list(range(12))
        overlays = [
            MeridianOverlay(matrix, ids, config, rng=seed, membership_sample_size=2, kernel=kernel)
            for kernel in ("batched", "reference")
        ]
        for owner, member, delay, also in adds:
            if member == owner:
                continue
            extra = None if also is None else float(pool[also])
            placed = [
                overlay.node(owner).add_member(member, float(pool[delay]), adjuster=lambda *_: extra)
                for overlay in overlays
            ]
            assert placed[0] == placed[1]
        assert_same_rings(*overlays)
        targets = list(range(12, 40))
        starts = [ids[t % len(ids)] for t in targets]
        assert overlays[0].closest_neighbor_query_batch(
            targets, start_nodes=starts
        ) == overlays[1].closest_neighbor_query_batch(targets, start_nodes=starts)


class TestFiguresMatchReference:
    """Every Meridian figure gives the same data under both kernels."""

    def test_meridian_figures(self, monkeypatch):
        config = ExperimentConfig(n_nodes=48, seed=2)
        figures = ("fig14", "fig18", "fig24", "fig25")
        batched = {figure: run_experiment(figure, config).data for figure in figures}
        # The runners build their overlays with the default kernel; make
        # that default the reference one.
        monkeypatch.setattr(
            MeridianOverlay,
            "__init__",
            functools.partialmethod(MeridianOverlay.__init__, kernel="reference"),
        )
        probe = random_matrix(6, np.array([3.0, 9.0]), 0.0, np.random.default_rng(0))
        assert MeridianOverlay(probe, range(3), rng=0).kernel == "reference"
        for figure in figures:
            assert run_experiment(figure, config).data == batched[figure], figure
