"""Every exactly compared distance sums its squares in one fixed order.

A plain-Python oracle sums the squares of the even axes in order, then
those of the odd axes, adds the two totals, takes ``math.sqrt`` and adds
the heights.  The scalar and batched queries of the online embedding and
``VivaldiSystem.predict_edges`` must all equal it bit for bit, in every
dimension from 1 to 12.  From 8 axes on, numpy's einsum sums in another
order, so a query path that went back to einsum fails here.
"""

import math

import numpy as np
import pytest

from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem

DIMENSIONS = range(1, 13)


def oracle_norm(x, y):
    """Euclidean distance of two coordinate lists, in the fixed order."""
    diffs = [a - b for a, b in zip(x, y)]
    even = odd = 0.0
    for diff in diffs[0::2]:
        even += diff * diff
    for diff in diffs[1::2]:
        odd += diff * diff
    return math.sqrt(even + odd)


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

    def row(query, other):
        """A query row's entry: the other node's height, then the query's."""
        value = oracle_norm(coords[other], coords[query])
        return value + heights[other] + heights[query] if use_height else value

    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    expected = [pair(a, b) for a, b in pairs]
    assert [emb.distance(a, b) for a, b in pairs] == expected
    assert emb.distance_batch(pairs).tolist() == expected

    active, matrix = emb.distances_matrix(nodes)
    assert active == nodes
    assert matrix.tolist() == [
        [0.0 if other == query else row(query, other) for other in nodes] for query in nodes
    ]
    for query, answer in zip(nodes, emb.closest_batch(nodes, k=len(nodes))):
        assert answer == sorted(
            ((other, row(query, other)) for other in nodes if other != query),
            key=lambda item: (item[1], item[0]),
        )


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
