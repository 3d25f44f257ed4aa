"""Batch-query equivalence: the serving hot path must bit-match the per-query answers.

``distance_batch`` sums its squared differences through the same
``squared_distance`` helper as the scalar ``distance``, so every value is
required to be *bit-identical* (plain ``==``, no approx) to it — across
churny populations, seeds, and slot reuse after leaves.  ``closest`` is
``closest_batch`` on a batch of one, so both are held to the plain-Python
ranking oracle ``tests/stream/oracles.py::closest_oracle`` instead.
``closest_batch`` selects its top k for the whole batch at once, so a
Hypothesis property also pins it to the oracle on tie-heavy populations:
nodes that never probed sit at the origin with the minimum height, and a
selection that keeps an arbitrary subset of the delays tied at the k-th
place returns the wrong ids.  The property draws 1 to 12 dimensions: from
8 on, numpy's einsum sums in another order, so one path that went back to
einsum fails it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig
from repro.errors import EmbeddingError
from tests.stream.oracles import closest_oracle


def churny_embedding(seed: int, n: int = 40, use_height: bool = True) -> OnlineVivaldi:
    """A live embedding shaken by measurements, leaves and rejoins."""
    emb = OnlineVivaldi(OnlineVivaldiConfig(use_height=use_height), rng=seed)
    rng = np.random.default_rng(seed + 1000)
    points = rng.uniform(0.0, 120.0, size=(n, 3))
    truth = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1)) + 1.0
    for node in range(n):
        emb.join(node, t=0.0)
    for t in range(1, 30):
        for src in emb.active_nodes():
            others = [x for x in emb.active_nodes() if x != src]
            dst = others[int(rng.integers(0, len(others)))]
            emb.observe(src, dst, float(truth[src % n, dst % n]), t=float(t))
        if t == 10:
            # Churn out a third of the population...
            for node in range(0, n, 3):
                emb.leave(node)
        if t == 18:
            # ... and bring them back, reusing the freed slots (plus a few
            # fresh ids that take whatever slots remain).
            for node in range(0, n, 3):
                emb.join(node, t=float(t))
            for extra in range(n, n + 4):
                emb.join(extra, t=float(t))
    return emb


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("use_height", [True, False])
class TestBatchEquivalence:
    def test_closest_batch_bit_matches_scalar(self, seed, use_height):
        emb = churny_embedding(seed, use_height=use_height)
        nodes = emb.active_nodes()
        for k in (1, 3, len(nodes)):
            batch = emb.closest_batch(nodes, k=k)
            assert len(batch) == len(nodes)
            for node, got in zip(nodes, batch):
                assert got == closest_oracle(emb, node, k)
                assert emb.closest(node, k=k) == got

    def test_distance_batch_bit_matches_distance(self, seed, use_height):
        emb = churny_embedding(seed, use_height=use_height)
        nodes = emb.active_nodes()
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(nodes), size=(64, 2))
        pairs = [(nodes[a], nodes[b]) for a, b in picks] + [(nodes[0], nodes[0])]
        values = emb.distance_batch(pairs)
        assert values.shape == (len(pairs),)
        for (a, b), got in zip(pairs, values):
            assert got == emb.distance(a, b)


class TestBatchEdgeCases:
    def test_empty_batches(self):
        emb = churny_embedding(0, n=10)
        assert emb.closest_batch([], k=2) == []
        assert emb.distance_batch([]).shape == (0,)

    def test_closest_batch_rejects_bad_k(self):
        emb = churny_embedding(0, n=10)
        with pytest.raises(EmbeddingError, match="k must be >= 1"):
            emb.closest_batch(emb.active_nodes(), k=0)

    def test_closest_batch_rejects_inactive_query(self):
        emb = churny_embedding(0, n=10)
        with pytest.raises(EmbeddingError, match="not active"):
            emb.closest_batch([99999], k=1)

    def test_self_pair_of_an_inactive_node_is_refused_everywhere(self):
        emb = OnlineVivaldi(rng=0)
        for node in (1, 2):
            emb.join(node)
        emb.observe(1, 2, 25.0, t=1.0)
        assert emb.distance(1, 1) == 0.0
        with pytest.raises(EmbeddingError, match="node 7 is not active"):
            emb.distance(7, 7)
        with pytest.raises(EmbeddingError, match="node 7 is not active"):
            emb.distance_batch([(7, 7)])
        with pytest.raises(EmbeddingError, match="node 7 is not active"):
            emb.closest_batch([7])
        with pytest.raises(EmbeddingError, match="node 7 is not active"):
            emb.closest(7)
        emb.leave(2)
        with pytest.raises(EmbeddingError, match="node 2 is not active"):
            emb.distance(2, 2)

    def test_k_is_clamped_to_population(self):
        emb = churny_embedding(1, n=10)
        nodes = emb.active_nodes()
        batch = emb.closest_batch(nodes, k=10 * len(nodes))
        for node, got in zip(nodes, batch):
            assert len(got) == len(nodes) - 1
            assert got == closest_oracle(emb, node, 10 * len(nodes))
            assert got == emb.closest(node, k=10 * len(nodes))

    def test_cache_invalidated_by_membership_changes(self):
        emb = churny_embedding(2, n=12)
        before = emb.closest_batch(emb.active_nodes(), k=2)
        victim = emb.active_nodes()[0]
        emb.leave(victim)
        after = emb.closest_batch(emb.active_nodes(), k=2)
        assert victim not in [node for row in after for node, _ in row]
        assert len(after) == len(before) - 1
        emb.join(victim, t=100.0)
        again = emb.closest_batch(emb.active_nodes(), k=2)
        assert len(again) == len(before)


@st.composite
def tie_heavy_populations(draw):
    """``(config, ids, probes, queries, k)`` for a population full of exact ties.

    Ids are integers, negative and sparse ones included.  Only a drawn
    share of the nodes sends probes, with RTTs from a small set, so the
    rest stay at the origin with the minimum height and tie exactly.
    Queries may repeat an id, and ``k`` runs past the population.
    """
    config = OnlineVivaldiConfig(
        dimension=draw(st.integers(min_value=1, max_value=12)),
        use_height=draw(st.booleans()),
    )
    n_nodes = draw(st.integers(min_value=1, max_value=40))
    ids = draw(
        st.lists(
            st.integers(min_value=-20, max_value=20)
            | st.integers(min_value=-(10**12), max_value=10**12),
            min_size=n_nodes,
            max_size=n_nodes,
            unique=True,
        )
    )
    probes = []
    if n_nodes > 1:
        movers = draw(st.integers(min_value=0, max_value=n_nodes))
        if movers:
            probes = [
                (ids[src], ids[(src + offset) % n_nodes], rtt)
                for src, offset, rtt in draw(
                    st.lists(
                        st.tuples(
                            st.integers(min_value=0, max_value=movers - 1),
                            st.integers(min_value=1, max_value=n_nodes - 1),
                            st.sampled_from([1.0, 2.0, 5.0, 20.0]),
                        ),
                        max_size=60,
                    )
                )
            ]
    queries = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    k = draw(st.integers(min_value=1, max_value=n_nodes + 2))
    return config, ids, probes, queries, k


@given(tie_heavy_populations())
@example((OnlineVivaldiConfig(), [-5], [], [-5, -5], 3))
@settings(max_examples=200, deadline=None)
def test_closest_batch_matches_scalar_closest_with_ties(population):
    config, ids, probes, queries, k = population
    emb = OnlineVivaldi(config, rng=0)
    for node in ids:
        emb.join(node)
    for src, dst, rtt in probes:
        emb.observe(src, dst, rtt)
    batch = emb.closest_batch(queries, k=k)
    assert batch == [closest_oracle(emb, node, k) for node in queries]
    assert batch == [emb.closest(node, k=k) for node in queries]
    if len(ids) == 1:
        assert batch == [[] for _ in queries]
