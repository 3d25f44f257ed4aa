"""The serving benchmark report (``BENCH_serving.json``).

One ``kernels`` row per measured stream, named ``serve_<family>_<mode>``
and keyed by ``size``, with its best per-query time (``best_seconds``),
QPS, tail latency and batch width, plus the batched-over-scalar QPS
ratio per family and size.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass, field

from repro.serve.latency import LatencySummary
from repro.utils.io import PathLike, write_json_report

#: Schema tag of the serving report payload.
SERVING_SCHEMA = "repro-bench-serving/1"


@dataclass(frozen=True)
class ServingRow:
    """Measured QPS/latency of one ``(family, mode, size)`` stream."""

    family: str
    mode: str
    size: int
    batch: int
    summary: LatencySummary

    def as_dict(self) -> dict:
        payload = {
            "kernel": f"serve_{self.family}_{self.mode}",
            "family": self.family,
            "mode": self.mode,
            "size": self.size,
            "batch": self.batch,
            "units": "queries/s",
            "throughput": self.summary.qps,
        }
        payload.update(self.summary.as_dict())
        return payload


@dataclass(frozen=True)
class ServingReport:
    """All streams of one ``repro serve-bench`` invocation."""

    workload: dict
    sizes: tuple[int, ...]
    rows: tuple[ServingRow, ...] = field(repr=False)

    def row(self, family: str, mode: str, size: int) -> ServingRow | None:
        for row in self.rows:
            if (row.family, row.mode, row.size) == (family, mode, size):
                return row
        return None

    def speedups(self) -> dict[str, dict[str, float]]:
        """Batched-over-scalar QPS ratio per family and size.

        Reported only where both modes were measured; sizes are keyed as
        strings so the mapping round-trips through JSON unchanged.
        """
        result: dict[str, dict[str, float]] = {}
        families = sorted({row.family for row in self.rows})
        for family in families:
            per_size: dict[str, float] = {}
            for size in self.sizes:
                batched = self.row(family, "batched", size)
                scalar = self.row(family, "scalar", size)
                if batched is None or scalar is None or scalar.summary.qps <= 0:
                    continue
                per_size[str(size)] = batched.summary.qps / scalar.summary.qps
            if per_size:
                result[family] = per_size
        return result

    def as_dict(self) -> dict:
        import numpy

        return {
            "schema": SERVING_SCHEMA,
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
            },
            "workload": dict(self.workload),
            "sizes": list(self.sizes),
            "kernels": [row.as_dict() for row in self.rows],
            "speedups": self.speedups(),
        }

    def write(self, path: PathLike) -> None:
        """Write the report as diff-friendly JSON."""
        write_json_report(path, self.as_dict())

