"""Every predicted delay of a pair sums its squares in one fixed order.

A plain-Python oracle sums the squares of the even axes in order, then
those of the odd axes, adds the two totals, takes ``math.sqrt`` and adds
the two endpoint terms (heights, LAT adjustments) as one term.
``pairwise_distances`` (every ``predicted_matrix`` but IDES's),
``VivaldiSystem.predict_edges`` and the online embedding's scalar and
batched queries must all equal it bit for bit, in every dimension from 1
to 12.  So one pair has one predicted delay, whichever read asks and in
whichever order it names the endpoints.  From 8 axes on, numpy's einsum
sums in another order, and from 3 axes on, a sum in axis order differs
from the oracle's, so a read that went back to either fails here.
"""

import numpy as np
import pytest

from repro.coords.base import MatrixPredictor
from repro.coords.lat import fit_lat
from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem, pairwise_distances
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

    for query, answer in zip(nodes, emb.closest_batch(nodes, k=len(nodes))):
        assert answer == closest_oracle(emb, query, len(nodes))
        assert emb.closest(query, k=len(nodes)) == answer


@pytest.mark.parametrize("use_height", [True, False])
@pytest.mark.parametrize("dimension", [2, 5, 9])
def test_rankings_equal_distance_batch_in_both_orders(dimension, use_height):
    emb = moved_embedding(dimension, use_height, n=40)
    nodes = emb.active_nodes()
    answers = emb.closest_batch(nodes, k=len(nodes))
    ranked = [(query, other, value) for query, row in zip(nodes, answers) for other, value in row]
    assert len(ranked) == len(nodes) * (len(nodes) - 1)
    values = [value for _, _, value in ranked]
    forward = emb.distance_batch([(query, other) for query, other, _ in ranked])
    backward = emb.distance_batch([(other, query) for query, other, _ in ranked])
    assert forward.tolist() == values
    assert backward.tolist() == values


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_pairwise_distances_equal_the_oracle(dimension):
    rng = np.random.default_rng(dimension)
    for scale in (1e-3, 1.0, 150.0, 1e6):
        coords = rng.normal(0.0, scale, size=(30, dimension))
        rows = coords.tolist()
        expected = [[oracle_norm(x, y) if i != j else 0.0 for j, y in enumerate(rows)]
                    for i, x in enumerate(rows)]
        assert pairwise_distances(coords).tolist() == expected, scale


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
    # Both orders of every pair, the self-pairs included: a gather of the matrix.
    n = small_internet_matrix.n_nodes
    rows, cols = np.divmod(np.arange(n * n), n)
    matrix = system.predicted_matrix()
    assert np.array_equal(system.predict_edges(rows, cols), matrix[rows, cols])


@pytest.mark.parametrize("dimension", [2, 5, 9])
def test_symmetric_systems_have_symmetric_matrices(small_internet_matrix, dimension):
    system = VivaldiSystem(
        small_internet_matrix, VivaldiConfig(dimension=dimension, n_neighbors=8), rng=dimension
    )
    system.run(20)
    lat = fit_lat(system, rng=dimension)
    assert np.any(lat.adjustments != 0.0)
    symmetric = np.random.default_rng(dimension).uniform(1.0, 100.0, size=(30, 30))
    symmetric = symmetric + symmetric.T
    for predictor in (system, lat, MatrixPredictor(symmetric)):
        matrix = predictor.predicted_matrix()
        assert np.array_equal(matrix, matrix.T), type(predictor).__name__
        assert np.all(np.diag(matrix) == 0.0), type(predictor).__name__
