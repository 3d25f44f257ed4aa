"""Reproducible random-number-generator helpers.

Every stochastic component in the library (synthetic delay spaces, Vivaldi
neighbour sampling, Meridian node selection, experiment splits) accepts either
an integer seed, an existing :class:`numpy.random.Generator`, or ``None``.
These helpers normalise that choice in one place so results are reproducible
whenever a seed is supplied.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Parameters
    ----------
    rng:
        ``None`` (fresh unseeded generator), an integer seed, or an existing
        generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, an int seed, or a Generator, got {type(rng)!r}")


def spawn_rngs(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Used by multi-run experiments (the paper repeats each neighbour-selection
    experiment five times with different random subsets) so each run has an
    independent but reproducible stream.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    base = ensure_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]

