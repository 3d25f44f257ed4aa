"""Tests for repro.stats.cdf."""

import numpy as np
import pytest

from repro.stats.cdf import ECDF


class TestECDFBasics:
    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            ECDF([])

    def test_all_nan_raises(self):
        with pytest.raises(ValueError):
            ECDF([np.nan, np.nan])

    def test_nan_values_dropped(self):
        cdf = ECDF([1.0, np.nan, 3.0])
        assert len(cdf) == 2

    def test_len(self):
        assert len(ECDF([1, 2, 3])) == 3

    def test_values_sorted(self):
        cdf = ECDF([3, 1, 2])
        assert np.array_equal(cdf.values, [1, 2, 3])


class TestECDFEvaluation:
    def test_scalar_evaluation(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf(2) == pytest.approx(0.5)
        assert cdf(0) == 0.0
        assert cdf(4) == 1.0

    def test_array_evaluation(self):
        cdf = ECDF([1, 2, 3, 4])
        result = cdf(np.array([0.5, 2.5, 10.0]))
        assert np.allclose(result, [0.0, 0.5, 1.0])

    def test_median_and_mean(self):
        cdf = ECDF([1, 2, 3, 4, 100])
        assert cdf.median == 3
        assert cdf.mean == pytest.approx(22.0)

    def test_quantile_bounds(self):
        cdf = ECDF([5, 10])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_quantile_scalar_and_array(self):
        cdf = ECDF(range(101))
        assert cdf.quantile(0.5) == pytest.approx(50)
        qs = cdf.quantile([0.1, 0.9])
        assert np.allclose(qs, [10, 90])

    def test_fraction_at_most(self):
        cdf = ECDF([1, 2, 3, 4])
        assert cdf.fraction_at_most(2) == pytest.approx(0.5)


class TestECDFCurveAndDescribe:
    def test_describe_keys(self):
        info = ECDF([1, 2, 3]).describe()
        assert set(info) == {"count", "mean", "median", "p10", "p90", "min", "max"}
        assert info["count"] == 3
