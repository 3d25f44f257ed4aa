"""Latency accounting for the serving load generator.

The generator hands per-query latencies (seconds) plus the wall-clock of
the whole timed region to :func:`summarize_latencies`, which produces the
numbers the serving report records: QPS, best/mean per-query seconds and
the p50/p95/p99 tail in milliseconds.  In batched mode a query's latency
is its *batch's* wall time — that is what a client co-batched with 63
other queries actually waits — so batched percentiles honestly price the
batching trade-off (higher per-query latency, much higher throughput)
rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ServeError


@dataclass(frozen=True)
class LatencySummary:
    """QPS and tail latency of one measured (family, mode) stream."""

    queries: int
    total_seconds: float
    #: Best observed per-query cost: in scalar mode the fastest single
    #: query, in batched mode the fastest batch divided by its width.
    best_seconds: float
    mean_seconds: float
    qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "total_seconds": self.total_seconds,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
        }


def summarize_latencies(
    latencies_seconds: Sequence[float],
    *,
    total_seconds: float,
    best_per_query_seconds: float,
) -> LatencySummary:
    """Fold one stream's per-query latencies into a :class:`LatencySummary`."""
    values = np.asarray(list(latencies_seconds), dtype=float)
    if values.size == 0:
        raise ServeError("cannot summarize an empty latency stream")
    if total_seconds <= 0:
        raise ServeError("total_seconds must be > 0")
    p50, p95, p99 = np.percentile(values, [50.0, 95.0, 99.0])
    return LatencySummary(
        queries=int(values.size),
        total_seconds=float(total_seconds),
        best_seconds=float(best_per_query_seconds),
        mean_seconds=float(total_seconds / values.size),
        qps=float(values.size / total_seconds),
        p50_ms=float(p50 * 1000.0),
        p95_ms=float(p95 * 1000.0),
        p99_ms=float(p99 * 1000.0),
    )
