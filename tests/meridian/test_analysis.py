"""Tests for repro.meridian.analysis."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delayspace.matrix import DelayMatrix
from repro.errors import MeridianError
from repro.meridian import analysis
from repro.meridian.analysis import ring_misplacement_by_delay
from repro.stats.rng import RngLike, ensure_rng


class TestRingMisplacement:
    def test_output_shapes(self, small_internet_matrix):
        centers, fraction, counts = ring_misplacement_by_delay(
            small_internet_matrix, beta=0.5, bin_width=50.0, max_pairs=5_000, rng=0
        )
        assert centers.shape == fraction.shape == counts.shape
        assert counts.sum() > 0

    def test_fraction_bounds(self, small_internet_matrix):
        _, fraction, _ = ring_misplacement_by_delay(
            small_internet_matrix, beta=0.5, max_pairs=5_000, rng=1
        )
        valid = fraction[~np.isnan(fraction)]
        assert np.all(valid >= 0.0)
        assert np.all(valid <= 1.0)

    def test_euclidean_matrix_has_no_misplacement(self, euclidean_matrix):
        _, fraction, counts = ring_misplacement_by_delay(
            euclidean_matrix, beta=0.5, max_pairs=None
        )
        weighted = np.nansum(np.nan_to_num(fraction) * counts) / counts.sum()
        assert weighted == pytest.approx(0.0, abs=1e-12)

    def test_tiv_matrix_has_misplacement(self, small_internet_matrix):
        _, fraction, counts = ring_misplacement_by_delay(
            small_internet_matrix, beta=0.5, max_pairs=None
        )
        weighted = np.nansum(np.nan_to_num(fraction) * counts) / counts.sum()
        assert weighted > 0.0

    def test_larger_beta_reduces_misplacement(self, small_internet_matrix):
        def overall(beta):
            _, fraction, counts = ring_misplacement_by_delay(
                small_internet_matrix, beta=beta, max_pairs=None
            )
            return np.nansum(np.nan_to_num(fraction) * counts) / counts.sum()

        assert overall(0.9) <= overall(0.1) + 1e-9

    def test_invalid_beta_raises(self, small_internet_matrix):
        with pytest.raises(MeridianError):
            ring_misplacement_by_delay(small_internet_matrix, beta=1.5)

    def test_sampling_reproducible(self, small_internet_matrix):
        a = ring_misplacement_by_delay(small_internet_matrix, max_pairs=2_000, rng=7)
        b = ring_misplacement_by_delay(small_internet_matrix, max_pairs=2_000, rng=7)
        assert np.allclose(np.nan_to_num(a[1]), np.nan_to_num(b[1]))


def _ring_misplacement_loop(
    matrix: DelayMatrix,
    *,
    beta: float = 0.5,
    bin_width: float = 50.0,
    max_pairs: int | None = 200_000,
    rng: RngLike = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar oracle: the original one-pair-at-a-time implementation."""
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

    fractions = np.empty(d_ij.size)
    for k in range(d_ij.size):
        i, j, d = int(i_idx[k]), int(j_idx[k]), float(d_ij[k])
        near_j = delays[j] <= beta * d
        near_j[i] = False
        near_j[j] = False
        count = int(np.count_nonzero(near_j))
        if count == 0:
            fractions[k] = 0.0
            continue
        to_i = delays[i, near_j]
        misplaced = (to_i < (1.0 - beta) * d) | (to_i > (1.0 + beta) * d)
        fractions[k] = float(np.count_nonzero(misplaced)) / count

    max_delay = float(d_ij.max())
    n_bins = max(1, int(np.ceil(max_delay / bin_width)))
    centers = bin_width * (np.arange(n_bins) + 0.5)
    mean_fraction = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    bins = np.minimum((d_ij / bin_width).astype(int), n_bins - 1)
    for b in range(n_bins):
        mask = bins == b
        if mask.any():
            counts[b] = int(mask.sum())
            mean_fraction[b] = float(fractions[mask].mean())
    return centers, mean_fraction, counts


def _boundary_matrix(n: int, beta: float, seed: int, holes: float, zeros: float) -> DelayMatrix:
    """A symmetric matrix whose delays often sit exactly on a beta boundary.

    Entries are drawn from base delays and their ``beta * d`` and
    ``(1 ± beta) * d`` images (computed exactly as the analysis computes
    them), mixed with uniform noise, zero delays and NaN holes.
    """
    rng = np.random.default_rng(seed)
    bases = [10.0, 25.0, 80.0, 150.0]
    palette = np.array(
        bases
        + [beta * b for b in bases]
        + [(1.0 - beta) * b for b in bases]
        + [(1.0 + beta) * b for b in bases]
    )
    values = np.where(
        rng.random((n, n)) < 0.7,
        palette[rng.integers(0, palette.size, size=(n, n))],
        rng.uniform(1.0, 200.0, size=(n, n)),
    )
    values[rng.random((n, n)) < zeros] = 0.0
    values[rng.random((n, n)) < holes] = np.nan
    upper = np.triu(values, k=1)
    return DelayMatrix(upper + upper.T, symmetrize=False)


class TestMatchesScalarOracle:
    """The chunked array kernel is bit-identical to the per-pair loop."""

    @given(
        n=st.integers(min_value=3, max_value=40),
        beta=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        holes=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        zeros=st.sampled_from([0.0, 0.1]),
        max_pairs=st.one_of(st.none(), st.integers(min_value=1, max_value=400)),
        pairs_per_chunk=st.sampled_from([1, 7, None]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_identical(self, n, beta, seed, holes, zeros, max_pairs, pairs_per_chunk):
        matrix = _boundary_matrix(n, beta, seed, holes, zeros)
        cap = analysis._CHUNK_BYTES
        if pairs_per_chunk is not None:
            cap = pairs_per_chunk * analysis._BYTES_PER_CELL * n
        try:
            expected = _ring_misplacement_loop(matrix, beta=beta, max_pairs=max_pairs, rng=seed)
        except ValueError:  # the loop's bare reduction error on no measured pair
            with pytest.raises(MeridianError, match="no sampled"):
                ring_misplacement_by_delay(matrix, beta=beta, max_pairs=max_pairs, rng=seed)
            return
        with mock.patch.object(analysis, "_CHUNK_BYTES", cap):
            actual = ring_misplacement_by_delay(matrix, beta=beta, max_pairs=max_pairs, rng=seed)
        for got, want in zip(actual, expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("max_pairs", [None, 40_000])
    def test_bit_identical_on_internet_matrix(self, small_internet_matrix, max_pairs):
        for beta in (0.1, 0.5, 0.9):
            expected = _ring_misplacement_loop(
                small_internet_matrix, beta=beta, max_pairs=max_pairs, rng=3
            )
            actual = ring_misplacement_by_delay(
                small_internet_matrix, beta=beta, max_pairs=max_pairs, rng=3
            )
            for got, want in zip(actual, expected):
                assert np.array_equal(got, want, equal_nan=True)


class TestNoMeasuredPair:
    def test_all_missing_matrix_raises_meridian_error(self):
        matrix = DelayMatrix(np.full((4, 4), np.nan))
        with pytest.raises(MeridianError, match="no sampled .* measured delay"):
            ring_misplacement_by_delay(matrix, max_pairs=None)
