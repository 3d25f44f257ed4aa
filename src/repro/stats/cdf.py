"""Empirical cumulative distribution functions.

Most figures in the paper are CDFs (TIV severity, percentage penalty,
severity differences).  :class:`ECDF` provides the evaluation, quantile and
sampling operations those figures need, in a form that is easy to assert on
in tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ECDF:
    """Empirical CDF of a one-dimensional sample.

    Attributes
    ----------
    values:
        The sorted sample values.
    """

    values: np.ndarray = field(repr=False)

    def __init__(self, sample: Iterable[float]):
        data = np.asarray(list(sample) if not isinstance(sample, np.ndarray) else sample,
                          dtype=float).ravel()
        data = data[~np.isnan(data)]
        if data.size == 0:
            raise ValueError("ECDF requires a non-empty sample")
        object.__setattr__(self, "values", np.sort(data))

    def __len__(self) -> int:
        return int(self.values.size)

    def __call__(self, x: float | np.ndarray) -> np.ndarray | float:
        """Return P(X <= x) for scalar or array ``x``."""
        xs = np.asarray(x, dtype=float)
        result = np.searchsorted(self.values, xs, side="right") / self.values.size
        if np.isscalar(x):
            return float(result)
        return result

    def quantile(self, q: float | Sequence[float]) -> np.ndarray | float:
        """Return the ``q``-th quantile(s) of the sample (``q`` in [0, 1])."""
        qs = np.asarray(q, dtype=float)
        if np.any((qs < 0) | (qs > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        result = np.quantile(self.values, qs)
        if np.isscalar(q):
            return float(result)
        return result

    @property
    def median(self) -> float:
        """The sample median."""
        return float(np.median(self.values))

    @property
    def mean(self) -> float:
        """The sample mean."""
        return float(np.mean(self.values))

    def fraction_at_most(self, x: float) -> float:
        """Fraction of the sample that is <= ``x`` (alias of calling the ECDF)."""
        return float(self(x))

    def describe(self) -> dict[str, float]:
        """Return a small dictionary of summary statistics."""
        return {
            "count": float(self.values.size),
            "mean": self.mean,
            "median": self.median,
            "p10": float(self.quantile(0.10)),
            "p90": float(self.quantile(0.90)),
            "min": float(self.values[0]),
            "max": float(self.values[-1]),
        }
