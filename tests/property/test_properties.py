"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.delayspace.matrix import DelayMatrix
from repro.delayspace.shortest_path import detour_gains, shortest_path_matrix
from repro.delayspace.synthetic import (
    SyntheticSpaceConfig,
    clustered_delay_space,
    euclidean_delay_space,
)
from repro.meridian.rings import MeridianConfig, ring_bounds, ring_index
from repro.neighbor.selection import percentage_penalty
from repro.scenarios.generators import load_scenario_dataset
from repro.scenarios.spec import Scenario
from repro.stats.binning import bin_by_value
from repro.stats.cdf import ECDF
from repro.tiv.severity import compute_tiv_severity, triangulation_ratios


def delay_matrices(min_nodes: int = 3, max_nodes: int = 12):
    """Strategy producing valid symmetric DelayMatrix instances."""

    def build(n: int, seed: int) -> DelayMatrix:
        rng = np.random.default_rng(seed)
        upper = rng.uniform(1.0, 500.0, size=(n, n))
        delays = np.triu(upper, k=1)
        delays = delays + delays.T
        return DelayMatrix(delays, symmetrize=False)

    return st.builds(
        build,
        st.integers(min_value=min_nodes, max_value=max_nodes),
        st.integers(min_value=0, max_value=10_000),
    )


class TestDelayMatrixProperties:
    @given(delay_matrices())
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_zero_diagonal(self, matrix):
        values = matrix.values
        assert np.allclose(values, values.T, equal_nan=True)
        assert np.allclose(np.diag(values), 0.0)

    @given(delay_matrices())
    @settings(max_examples=20, deadline=None)
    def test_submatrix_preserves_delays(self, matrix):
        subset = list(range(0, matrix.n_nodes, 2))
        if len(subset) < 2:
            subset = [0, 1]
        sub = matrix.submatrix(subset)
        for a, i in enumerate(subset):
            for b, j in enumerate(subset):
                if a != b:
                    assert sub.delay(a, b) == pytest.approx(matrix.delay(i, j), nan_ok=True)


class TestSeverityProperties:
    @given(delay_matrices())
    @settings(max_examples=15, deadline=None)
    def test_severity_nonnegative_and_symmetric(self, matrix):
        result = compute_tiv_severity(matrix)
        severities = result.edge_severities()
        assert np.all(severities >= 0)
        finite = np.isfinite(result.severity)
        assert np.allclose(result.severity[finite], result.severity.T[finite])

    @given(delay_matrices())
    @settings(max_examples=15, deadline=None)
    def test_severity_consistent_with_ratios(self, matrix):
        result = compute_tiv_severity(matrix)
        n = matrix.n_nodes
        rng = np.random.default_rng(0)
        i, j = rng.integers(0, n), rng.integers(0, n)
        if i == j:
            j = (i + 1) % n
        ratios = triangulation_ratios(matrix, int(i), int(j))
        assert np.all(ratios > 1.0)
        assert result.edge_severity(int(i), int(j)) == pytest.approx(ratios.sum() / n)

    @given(st.integers(min_value=5, max_value=25), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_metric_spaces_have_zero_severity(self, n, seed):
        matrix = euclidean_delay_space(n, rng=seed, min_delay=0.0)
        result = compute_tiv_severity(matrix)
        assert np.all(result.edge_severities() == 0.0)

    @given(delay_matrices())
    @settings(max_examples=15, deadline=None)
    def test_violation_count_bounded(self, matrix):
        result = compute_tiv_severity(matrix)
        assert result.violation_counts.max() <= matrix.n_nodes - 2


class TestShortestPathProperties:
    @given(delay_matrices())
    @settings(max_examples=20, deadline=None)
    def test_shortest_path_never_longer_than_direct(self, matrix):
        shortest = shortest_path_matrix(matrix)
        values = matrix.values
        finite = np.isfinite(values)
        assert np.all(shortest[finite] <= values[finite] + 1e-9)

    @given(delay_matrices())
    @settings(max_examples=20, deadline=None)
    def test_detour_gains_at_least_one(self, matrix):
        gains = detour_gains(matrix)
        assert np.all(gains >= 1.0 - 1e-9)


class TestECDFProperties:
    @given(
        hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=1, max_value=200),
            elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cdf_monotone_and_bounded(self, sample):
        cdf = ECDF(sample)
        xs = np.linspace(sample.min() - 1, sample.max() + 1, 50)
        ys = cdf(xs)
        assert np.all(np.diff(ys) >= -1e-12)
        assert ys[0] >= 0.0 and ys[-1] == 1.0

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.integers(min_value=2, max_value=100),
            elements=st.floats(min_value=0, max_value=1e4, allow_nan=False),
        ),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantile_inverse_relationship(self, sample, q):
        cdf = ECDF(sample)
        value = cdf.quantile(q)
        assert cdf.values[0] <= value <= cdf.values[-1]
        # With linear interpolation between order statistics, the CDF at the
        # q-th quantile can undershoot q by at most one sample's worth.
        assert cdf(value) >= q - 1.0 / len(cdf) - 1e-9


class TestBinningProperties:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.5, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_conserved(self, n, seed, width):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 100, size=n)
        y = rng.uniform(0, 10, size=n)
        stats = bin_by_value(x, y, bin_width=width)
        assert stats.counts.sum() == n

    @given(st.integers(min_value=2, max_value=200), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_percentiles_ordered(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 50, size=n)
        y = rng.normal(size=n)
        stats = bin_by_value(x, y, bin_width=5.0)
        mask = stats.counts > 0
        assert np.all(stats.p10[mask] <= stats.median[mask] + 1e-12)
        assert np.all(stats.median[mask] <= stats.p90[mask] + 1e-12)


class TestMeridianRingProperties:
    @given(
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
        st.floats(min_value=0.5, max_value=10),
        st.floats(min_value=1.5, max_value=4),
        st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_index_within_bounds(self, delay, alpha, s, n_rings):
        config = MeridianConfig(alpha=alpha, s=s, n_rings=n_rings)
        idx = ring_index(delay, config)
        assert 0 <= idx < n_rings
        inner, outer = ring_bounds(idx, config)
        # The delay lies in its ring unless it was clamped into the last ring.
        assert (inner <= delay <= outer) or idx == n_rings - 1 or delay <= alpha

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.1, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_index_monotone_in_delay(self, d1, d2):
        config = MeridianConfig()
        lo, hi = sorted((d1, d2))
        assert ring_index(lo, config) <= ring_index(hi, config)


def scenarios():
    """Strategy producing valid scenario specifications across every dimension."""
    return st.builds(
        Scenario,
        name=st.just("prop"),
        topology=st.sampled_from(("default", "two_continent", "five_cluster", "ring", "flat")),
        tiv_level=st.sampled_from(("none", "light", "baseline", "heavy")),
        access_model=st.sampled_from(("default", "powerlaw")),
        asymmetry=st.sampled_from((0.0, 0.05, 0.15)),
        extra_jitter=st.sampled_from((0.0, 0.05, 0.1)),
        dropout=st.sampled_from((0.0, 0.05, 0.15)),
        churn=st.sampled_from((0.0, 0.2, 0.4)),
        rescale=st.sampled_from((0.5, 1.0, 2.0)),
    )


class TestScenarioGeneratorProperties:
    """Invariants of the scenario generator layer (ISSUE 2 satellite)."""

    @given(scenarios(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_zero_diagonal(self, scenario, seed):
        # Scenario matrices are RTT matrices: per-direction asymmetry is
        # averaged back in, so symmetry holds even when asymmetry is
        # requested, and the diagonal stays zero.
        matrix, _ = load_scenario_dataset(scenario, "ds2_like", 24, seed)
        values = matrix.values
        assert np.allclose(values, values.T, equal_nan=True)
        assert np.allclose(np.diag(values), 0.0)

    @given(scenarios(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_per_seed(self, scenario, seed):
        first, c1 = load_scenario_dataset(scenario, "ds2_like", 24, seed)
        second, c2 = load_scenario_dataset(scenario, "ds2_like", 24, seed)
        assert np.array_equal(first.values, second.values, equal_nan=True)
        assert np.array_equal(c1, c2)

    @given(scenarios(), st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_requested_node_count_preserved(self, scenario, seed):
        matrix, clusters = load_scenario_dataset(scenario, "ds2_like", 24, seed)
        assert matrix.n_nodes == 24
        assert clusters.shape == (24,)

    @given(
        st.integers(min_value=12, max_value=40),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_requested_tiv_fraction_exact(self, n, fraction, seed):
        # The generator's ground-truth mask must contain exactly the
        # requested fraction of inflated edges (rounded to whole edges).
        config = SyntheticSpaceConfig(n_nodes=n, tiv_edge_fraction=fraction)
        _, mask = clustered_delay_space(config, rng=seed, return_tiv_edges=True)
        iu = np.triu_indices(n, k=1)
        assert mask[iu].sum() == round(fraction * iu[0].size)
        assert np.array_equal(mask, mask.T)
        assert not mask.diagonal().any()

    @given(
        st.sampled_from((0.0, 0.05, 0.1, 0.2)),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=20, deadline=None)
    def test_requested_dropout_fraction_exact(self, dropout, seed):
        scenario = Scenario("prop", dropout=dropout)
        matrix, _ = load_scenario_dataset(scenario, "ds2_like", 24, seed)
        iu = np.triu_indices(24, k=1)
        missing = np.count_nonzero(~np.isfinite(matrix.values[iu]))
        assert missing == round(dropout * iu[0].size)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_tiv_none_yields_violation_free_base(self, seed):
        # With injection off and jitter disabled the clustered geometry is
        # metric (positions + additive access delays), so severity is zero.
        config = SyntheticSpaceConfig(
            n_nodes=20, tiv_edge_fraction=0.0, jitter_fraction=0.0
        )
        matrix = clustered_delay_space(config, rng=seed)
        result = compute_tiv_severity(matrix)
        assert np.all(result.edge_severities() == 0.0)


class TestPenaltyProperties:
    @given(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.001, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_penalty_sign(self, selected, optimal):
        penalty = percentage_penalty(max(selected, optimal), optimal)
        assert penalty >= 0
        assert percentage_penalty(optimal, optimal) == 0.0

    @given(
        st.floats(min_value=0.001, max_value=1e4),
        st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_penalty_scale_invariant(self, optimal, factor):
        selected = optimal * factor
        penalty = percentage_penalty(selected, optimal)
        scaled = percentage_penalty(selected * 3.0, optimal * 3.0)
        assert penalty == pytest.approx(scaled)
        assert penalty == pytest.approx((factor - 1.0) * 100.0)


class TestBatchedKernelProperties:
    """Invariants of the whole-array IDES, LAT and Meridian code."""

    @given(delay_matrices(min_nodes=6, max_nodes=12))
    @settings(max_examples=10, deadline=None)
    def test_ides_batched_finite_and_landmark_vectors_exact(self, matrix):
        from repro.coords.ides import IDESConfig, _filled, _fit_svd, fit_ides

        landmarks = list(range(4))
        fit = fit_ides(matrix, IDESConfig(dimension=3), rng=0, landmarks=landmarks)
        assert np.all(np.isfinite(fit.outgoing))
        assert np.all(np.isfinite(fit.incoming))
        # Landmark vectors come straight from the landmark factorisation;
        # the one-shot host projection must not touch them.
        data = _filled(matrix)
        out, inc = _fit_svd(data[np.ix_(landmarks, landmarks)], 3)
        assert np.array_equal(fit.outgoing[landmarks], out)
        assert np.array_equal(fit.incoming[landmarks], inc)

    @given(st.integers(min_value=5, max_value=12), st.integers(min_value=0, max_value=9_999))
    @settings(max_examples=10, deadline=None)
    def test_lat_batched_matches_reference_on_any_sample_lists(self, n, seed):
        from repro.coords.lat import fit_lat
        from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
        from tests.coords.oracles import lat_double_loop

        matrix = euclidean_delay_space(n, rng=seed)
        system = VivaldiSystem(
            matrix, VivaldiConfig(n_neighbors=4, dimension=2), rng=seed
        )
        system.run(3)
        rng = np.random.default_rng(seed)
        # Any lists of other nodes, empty ones included: a node's own id
        # is refused, as in a neighbour list.
        samples = [
            [
                int(j)
                for j in rng.choice(
                    np.delete(np.arange(n), i), size=int(rng.integers(0, n)), replace=False
                )
            ]
            for i in range(n)
        ]
        batched = fit_lat(system, samples=samples)
        reference = lat_double_loop(system, samples=samples)
        assert np.all(np.isfinite(batched.adjustments))
        assert np.allclose(batched.adjustments, reference.adjustments, atol=1e-9)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.5, max_value=10.0),
        st.floats(min_value=1.5, max_value=4.0),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_ring_indices_matches_scalar_ring_index(self, delays, alpha, s, n_rings):
        from repro.meridian.rings import ring_indices

        config = MeridianConfig(alpha=alpha, s=s, n_rings=n_rings)
        vectorised = ring_indices(np.asarray(delays), config)
        scalar = np.array([ring_index(d, config) for d in delays])
        assert np.array_equal(vectorised, scalar)
