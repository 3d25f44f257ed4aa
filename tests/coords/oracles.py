"""Scalar oracles of the embedding fits: one node, one host, one sample at a time.

Each is the plain per-node loop the library's whole-array code replaced,
kept here so the equivalence tests have something independent to compare
against:

* :class:`GaussSeidelVivaldi` — Vivaldi probing node after node, each update
  published at once (the library sweeps a round against a start-of-round
  snapshot instead, so the two agree statistically, not bit for bit);
* :func:`ides_per_host` — the IDES host projection, one least-squares solve
  per host and factor (equal to the stacked solve to float accuracy);
* :func:`lat_double_loop` — the LAT adjustment terms, node by node and
  sample by sample (equal to the padded gathers to float accuracy).
"""

import numpy as np

from repro.coords.ides import IDESConfig, IDESCoordinates, _filled, _fit_svd
from repro.coords.lat import LATCoordinates
from repro.coords.vivaldi import VivaldiConfig, pairwise_distances
from repro.stats.rng import ensure_rng


class GaussSeidelVivaldi:
    """Vivaldi in which nodes probe one after another within a round."""

    def __init__(self, matrix, config=None, *, rng=None, neighbors=None):
        self.config = config if config is not None else VivaldiConfig()
        self.delays = matrix.to_array()
        self.rng = ensure_rng(rng)
        n = matrix.n_nodes
        self.coords = self.rng.normal(0.0, 1.0, size=(n, self.config.dimension))
        self.errors = np.full(n, self.config.initial_error)
        if neighbors is None:
            k = min(self.config.n_neighbors, n - 1)
            neighbors = [
                [int(j) for j in self.rng.choice(np.delete(np.arange(n), i), k, replace=False)]
                for i in range(n)
            ]
        self.neighbors = [list(nbrs) for nbrs in neighbors]

    @property
    def coordinates(self) -> np.ndarray:
        return self.coords.copy()

    def probe(self, i: int, j: int) -> None:
        """Apply one Vivaldi update at node ``i`` after probing node ``j``."""
        cfg = self.config
        rtt = self.delays[i, j]
        if not np.isfinite(rtt) or rtt <= 0:
            return
        diff = self.coords[i] - self.coords[j]
        dist = float(np.linalg.norm(diff))
        if dist > 0:
            direction = diff / dist
        else:
            # Coincident coordinates: pick a random push direction.
            direction = self.rng.normal(size=cfg.dimension)
            direction /= np.linalg.norm(direction)
        e_i = max(self.errors[i], cfg.min_error)
        e_j = max(self.errors[j], cfg.min_error)
        w = e_i / (e_i + e_j)
        relative_error = abs(dist - rtt) / rtt
        ce_w = cfg.ce * w
        self.errors[i] = relative_error * ce_w + self.errors[i] * (1.0 - ce_w)
        self.coords[i] = self.coords[i] + cfg.cc * w * (rtt - dist) * direction

    def step(self) -> None:
        for _ in range(self.config.probes_per_node_per_second):
            for i, nbrs in enumerate(self.neighbors):
                self.probe(i, nbrs[int(self.rng.integers(0, len(nbrs)))])

    def run(self, seconds: int) -> None:
        for _ in range(seconds):
            self.step()

    def predicted_matrix(self) -> np.ndarray:
        return pairwise_distances(self.coords)


def ides_per_host(matrix, config=None, *, rng=None, landmarks=None) -> IDESCoordinates:
    """IDES with every ordinary host projected by its own least-squares solves."""
    cfg = config if config is not None else IDESConfig()
    data = _filled(matrix)
    n = matrix.n_nodes
    if landmarks is None:
        count = cfg.n_landmarks if cfg.n_landmarks is not None else max(2 * cfg.dimension, 20)
        landmarks = np.sort(ensure_rng(rng).choice(n, size=min(count, n), replace=False))
    landmarks = np.asarray(landmarks, dtype=int)
    rank = min(cfg.dimension, landmarks.size)
    landmark_out, landmark_in = _fit_svd(data[np.ix_(landmarks, landmarks)], rank)
    outgoing, incoming = np.zeros((n, rank)), np.zeros((n, rank))
    outgoing[landmarks], incoming[landmarks] = landmark_out, landmark_in
    for host in range(n):
        if host in landmarks:
            continue
        d = data[host, landmarks]
        outgoing[host] = np.linalg.lstsq(landmark_in, d, rcond=None)[0]
        incoming[host] = np.linalg.lstsq(landmark_out, d, rcond=None)[0]
    return IDESCoordinates(outgoing, incoming, landmarks=landmarks.tolist())


def lat_double_loop(vivaldi, *, sample_size=None, samples=None, rng=None) -> LATCoordinates:
    """LAT adjustment terms, averaged node by node over each node's samples."""
    coords = vivaldi.coordinates
    measured = vivaldi.matrix.values
    n = vivaldi.matrix.n_nodes
    if samples is None:
        gen = ensure_rng(rng)
        k = min(sample_size if sample_size is not None else vivaldi.config.n_neighbors, n - 1)
        samples = [
            [int(j) for j in gen.choice(np.delete(np.arange(n), i), size=k, replace=False)]
            for i in range(n)
        ]
    adjustments = np.zeros(n)
    for i, sample in enumerate(samples):
        errors = []
        for j in sample:
            d = measured[i, j]
            if np.isfinite(d):
                errors.append(d - float(np.linalg.norm(coords[i] - coords[j])))
        if errors:
            adjustments[i] = float(np.mean(errors)) / 2.0
    return LATCoordinates(coords, adjustments)
