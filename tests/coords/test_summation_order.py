"""Every exactly compared distance sums its squares in one fixed order.

A plain-Python oracle sums the squares of the even axes in order, then
those of the odd axes, adds the two totals, takes ``math.sqrt`` and adds
the heights.  The scalar and batched queries of the online embedding and
``VivaldiSystem.predict_edges`` must all equal it bit for bit, in every
dimension from 1 to 12.  From 8 axes on, numpy's einsum sums in another
order, so a query path that went back to einsum fails here.
"""

import numpy as np
import pytest

from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from tests.coords.oracles import oracle_norm
from tests.stream.oracles import closest_oracle

DIMENSIONS = range(1, 13)


def moved_embedding(dimension, use_height, n=24):
    """An online embedding whose every node has probed a few times."""
    config = OnlineVivaldiConfig(dimension=dimension, use_height=use_height)
    emb = OnlineVivaldi(config, rng=dimension)
    rng = np.random.default_rng(dimension)
    for node in range(n):
        emb.join(node)
    for _ in range(8):
        for src in range(n):
            dst = (src + int(rng.integers(1, n))) % n
            emb.observe(src, dst, float(rng.uniform(1.0, 200.0)))
    return emb


@pytest.mark.parametrize("use_height", [True, False])
@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_online_queries_equal_the_oracle(dimension, use_height):
    emb = moved_embedding(dimension, use_height)
    nodes = emb.active_nodes()
    coords = {node: emb.coordinate_of(node).tolist() for node in nodes}
    heights = {node: emb.height_of(node) for node in nodes}

    def pair(a, b):
        """``distance(a, b)``: both heights added together."""
        value = oracle_norm(coords[a], coords[b])
        return value + (heights[a] + heights[b]) if use_height else value

    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    expected = [pair(a, b) for a, b in pairs]
    assert [emb.distance(a, b) for a, b in pairs] == expected
    assert emb.distance_batch(pairs).tolist() == expected

    # A ranking adds the other node's height, then the query's.
    for query, answer in zip(nodes, emb.closest_batch(nodes, k=len(nodes))):
        assert answer == closest_oracle(emb, query, len(nodes))
        assert emb.closest(query, k=len(nodes)) == answer


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_predict_edges_equals_the_oracle(small_internet_matrix, dimension):
    system = VivaldiSystem(
        small_internet_matrix, VivaldiConfig(dimension=dimension, n_neighbors=8), rng=dimension
    )
    system.run(5)
    rows, cols = small_internet_matrix.edge_index_pairs()
    coords = system.coordinates.tolist()
    expected = [oracle_norm(coords[i], coords[j]) for i, j in zip(rows.tolist(), cols.tolist())]
    assert system.predict_edges(rows, cols).tolist() == expected
