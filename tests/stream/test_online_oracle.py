"""OnlineVivaldi against a scalar per-node oracle with every stabiliser on.

``test_equivalence.py`` pins the online update to the batch Vivaldi rule
only with height and gravity off.  Here each node is one
:class:`ScalarCoordinate` in plain Python floats, in the shape of the
edgeIO ``VivaldiCoordinate`` (after Ledlie et al., "Network Coordinates in
the Wild"): a Euclidean vector plus a height, an error estimate that
weights every move and is capped, and rho gravity that pulls toward the
origin but never past it.

Vivaldi magnifies rounding wherever two nodes nearly coincide (the unit
vector between them is then ill-conditioned), so two correct
implementations drift apart over long runs.  The oracle therefore starts
every observation from the embedding's state before it: each update is
checked against the scalar rule applied to exactly the state it moved.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords.online import OnlineVivaldi, OnlineVivaldiConfig


class ScalarCoordinate:
    """One node's coordinate, updated from the probes it issues."""

    def __init__(self, config: OnlineVivaldiConfig):
        self.config = config
        self.vector = [0.0] * config.dimension
        self.height = config.min_height
        self.error = config.initial_error

    @classmethod
    def of(cls, embedding: OnlineVivaldi, node) -> "ScalarCoordinate":
        """A copy of ``node``'s current state in ``embedding``."""
        coordinate = cls(embedding.config)
        coordinate.vector = [float(x) for x in embedding.coordinate_of(node)]
        coordinate.height = embedding.height_of(node)
        coordinate.error = embedding.error_of(node)
        return coordinate

    def state(self) -> list[float]:
        return [*self.vector, self.height, self.error]

    def update(self, rtt: float, remote: "ScalarCoordinate", rng) -> float:
        """Move toward (or away from) ``remote`` after observing ``rtt``."""
        cfg = self.config
        if not math.isfinite(rtt) or rtt <= 0:
            return 0.0
        diff = [a - b for a, b in zip(self.vector, remote.vector)]
        mag = math.sqrt(sum(d * d for d in diff))
        dist = mag + (self.height + remote.height if cfg.use_height else 0.0)

        local_error = max(self.error, cfg.min_error)
        weight = local_error / (local_error + max(remote.error, cfg.min_error))
        sample_error = abs(dist - rtt) / rtt
        ce_weight = cfg.ce * weight
        self.error = min(
            sample_error * ce_weight + self.error * (1.0 - ce_weight), cfg.initial_error
        )

        force = cfg.cc * weight * (rtt - dist)
        if mag > 0:
            unit = [d / mag for d in diff]
        else:
            # Coincident nodes push apart in a random direction.
            unit = [float(v) for v in rng.normal(size=cfg.dimension)]
            length = math.sqrt(sum(u * u for u in unit))
            unit = [u / length for u in unit]
        self.vector = [x + force * u for x, u in zip(self.vector, unit)]
        if cfg.use_height and mag > 0:
            share = force * (self.height + remote.height) / mag
            self.height = max(cfg.min_height, self.height + share)

        if cfg.rho > 0:
            norm = math.sqrt(sum(x * x for x in self.vector))
            if norm > 0:
                pull = min((norm / cfg.rho) ** 2, norm)
                self.vector = [x - x * (pull / norm) for x in self.vector]
        return abs(force)


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= 1e-9 * (1.0 + abs(expected))


configs = st.builds(
    OnlineVivaldiConfig,
    dimension=st.integers(min_value=1, max_value=5),
    cc=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    ce=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    rho=st.sampled_from([0.0, 5.0, 150.0]),
    use_height=st.booleans(),
)

rtts = st.one_of(
    st.floats(min_value=0.5, max_value=500.0),
    st.sampled_from([0.0, -3.0, float("nan"), 1e6]),
)


@st.composite
def populations_and_observations(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=5))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n_nodes - 1),
        st.integers(min_value=1, max_value=n_nodes - 1),
        rtts,
    )
    observations = [
        (src, (src + offset) % n_nodes, rtt)
        for src, offset, rtt in draw(st.lists(pairs, max_size=60))
    ]
    return n_nodes, observations


@given(configs, populations_and_observations(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_online_vivaldi_matches_the_scalar_oracle(config, population, seed):
    n_nodes, observations = population
    embedding = OnlineVivaldi(config, rng=seed)
    oracle_rng = np.random.default_rng(seed)
    for node in range(n_nodes):
        embedding.join(node)
        fresh = ScalarCoordinate(config).state()
        assert ScalarCoordinate.of(embedding, node).state() == fresh

    for step, (src, dst, rtt) in enumerate(observations):
        before = [ScalarCoordinate.of(embedding, node) for node in range(n_nodes)]
        expected = before[src].update(rtt, before[dst], oracle_rng)
        moved = embedding.observe(src, dst, rtt)
        assert close(moved, expected), (step, moved, expected)
        for node, coordinate in enumerate(before):
            actual = ScalarCoordinate.of(embedding, node).state()
            if node == src:
                assert all(map(close, actual, coordinate.state())), (
                    step, actual, coordinate.state()
                )
            else:
                # Only the observing node moves.
                assert actual == coordinate.state(), (step, node)
