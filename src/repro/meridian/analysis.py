"""Ring-membership misplacement analysis (Fig. 13 of the paper).

Meridian's correctness argument assumes that two nodes that are close to
each other end up in the same (or adjacent) rings of any third node.  TIVs
break that: given a Meridian node ``Ni`` and a reference node ``Nj`` at
delay ``d_ij``, consider the nodes within ``beta * d_ij`` of ``Nj`` — under
the triangle inequality every one of them would have a delay to ``Ni``
inside ``[(1-beta) d_ij, (1+beta) d_ij]`` and would therefore be eligible to
probe a target near ``Nj``.  The fraction of such nodes that fall *outside*
that window is the placement-error rate the paper plots against ``d_ij`` for
``beta`` ∈ {0.1, 0.5, 0.9}.
"""

from __future__ import annotations

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.errors import MeridianError
from repro.stats.rng import RngLike, ensure_rng

#: Cap on the temporaries one chunk of pairs holds: two gathered float rows
#: plus a handful of boolean masks, ~24 bytes per (pair, node) cell.  Larger
#: caps ran no faster at n = 240 and 400 on a 2-vCPU x86-64 VM: the chunk
#: falls out of cache.
_CHUNK_BYTES = 2 << 20
_BYTES_PER_CELL = 24


def ring_misplacement_by_delay(
    matrix: DelayMatrix,
    *,
    beta: float = 0.5,
    bin_width: float = 50.0,
    max_pairs: int | None = 200_000,
    rng: RngLike = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute the Fig. 13 ring-misplacement curve for one ``beta``.

    Parameters
    ----------
    matrix:
        The delay matrix.
    beta:
        Meridian acceptance threshold.
    bin_width:
        Width (ms) of the delay bins along the x axis.
    max_pairs:
        Number of (Ni, Nj) pairs to sample; ``None`` enumerates all ordered
        pairs.
    rng:
        Seed or generator for the sampling path.

    Returns
    -------
    (bin_centers, misplacement_fraction, pair_counts)
        ``misplacement_fraction[b]`` is the mean fraction of would-be ring
        members that are misplaced, over all sampled pairs whose delay falls
        in bin ``b``; bins with no pairs hold ``nan``.

    This is :func:`pair_misplacement` followed by :func:`bin_misplacement`.
    """
    delays, fractions = pair_misplacement(matrix, beta=beta, max_pairs=max_pairs, rng=rng)
    return bin_misplacement(delays, fractions, bin_width=bin_width)


def pair_misplacement(
    matrix: DelayMatrix,
    *,
    beta: float = 0.5,
    max_pairs: int | None = 200_000,
    rng: RngLike = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (Ni, Nj) pairs and the misplaced fraction of each, for one ``beta``.

    Parameters are those of :func:`ring_misplacement_by_delay`.  Returns
    ``(delays, fractions)``: the measured delay ``d_ij`` of every sampled
    pair that has one, and the fraction of its would-be ring members that
    are misplaced (0 where it has none).  The sample depends on ``rng``,
    the node count and which delays are measured, not on ``beta``, so the
    same seed gives every ``beta`` the same pairs.

    Pairs are evaluated a chunk at a time as whole-row array operations,
    with the chunk sized so its temporaries stay under ``_CHUNK_BYTES``.
    """
    if not 0 < beta < 1:
        raise MeridianError("beta must lie in (0, 1)")
    delays = matrix.to_array()
    delays[~np.isfinite(delays)] = np.inf
    np.fill_diagonal(delays, np.inf)
    n = matrix.n_nodes
    gen = ensure_rng(rng)

    total_pairs = n * (n - 1)
    if max_pairs is not None and total_pairs > max_pairs:
        i_idx = gen.integers(0, n, size=max_pairs)
        j_idx = gen.integers(0, n, size=max_pairs)
        keep = i_idx != j_idx
        i_idx, j_idx = i_idx[keep], j_idx[keep]
    else:
        grid = np.indices((n, n)).reshape(2, -1)
        keep = grid[0] != grid[1]
        i_idx, j_idx = grid[0][keep], grid[1][keep]

    d_ij = delays[i_idx, j_idx]
    finite = np.isfinite(d_ij)
    i_idx, j_idx, d_ij = i_idx[finite], j_idx[finite], d_ij[finite]
    if d_ij.size == 0:
        raise MeridianError(
            "no sampled (Ni, Nj) pair has a measured delay, so there is "
            "nothing to bin"
        )

    fractions = np.empty(d_ij.size)
    step = max(1, _CHUNK_BYTES // (_BYTES_PER_CELL * n))
    for start in range(0, d_ij.size, step):
        chunk = slice(start, start + step)
        i, j, d = i_idx[chunk], j_idx[chunk], d_ij[chunk, None]
        rows = np.arange(i.size)
        # near[k, x]: node x lies within beta * d of Nj, excluding Ni and Nj.
        near = delays[j] <= beta * d
        near[rows, i] = False
        near[rows, j] = False
        to_i = delays[i]
        misplaced = (to_i < (1.0 - beta) * d) | (to_i > (1.0 + beta) * d)
        misplaced &= near
        count = np.count_nonzero(near, axis=1)
        wrong = np.count_nonzero(misplaced, axis=1)
        fractions[chunk] = np.where(count > 0, wrong / np.maximum(count, 1), 0.0)
    return d_ij, fractions


def bin_misplacement(
    delays: np.ndarray, fractions: np.ndarray, *, bin_width: float = 50.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average per-pair misplaced fractions over delay bins of ``bin_width`` ms.

    Takes what :func:`pair_misplacement` returns and gives the
    ``(bin_centers, misplacement_fraction, pair_counts)`` of
    :func:`ring_misplacement_by_delay`.
    """
    max_delay = float(delays.max())
    n_bins = max(1, int(np.ceil(max_delay / bin_width)))
    centers = bin_width * (np.arange(n_bins) + 0.5)
    mean_fraction = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    bins = np.minimum((delays / bin_width).astype(int), n_bins - 1)
    for b in range(n_bins):
        mask = bins == b
        if mask.any():
            counts[b] = int(mask.sum())
            mean_fraction[b] = float(fractions[mask].mean())
    return centers, mean_fraction, counts
