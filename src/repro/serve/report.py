"""The serving benchmark report (``BENCH_serving.json``).

The report's ``kernels`` rows carry the same ``kernel`` / ``size`` /
``best_seconds`` triple the perf-gate comparator keys on — so ``repro
perf-gate --baseline BENCH_serving.json`` guards serving latency with the
exact machinery that guards the compute kernels — plus the
serving-specific numbers (QPS, tail latency, batch width) the gate
ignores but humans and the acceptance checks read.
"""

from __future__ import annotations

import platform
from dataclasses import dataclass, field

from repro.errors import ServeError
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

    @property
    def kernel(self) -> str:
        """Gate-comparable kernel name, e.g. ``serve_closest_batched``."""
        return f"serve_{self.family}_{self.mode}"

    def as_dict(self) -> dict:
        payload = {
            "kernel": self.kernel,
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


def validate_serving_payload(payload: dict) -> None:
    """Cheap structural check of a loaded serving report."""
    if payload.get("schema") != SERVING_SCHEMA:
        raise ServeError(
            f"serving report has schema {payload.get('schema')!r}, "
            f"expected {SERVING_SCHEMA!r}"
        )
    for row in payload.get("kernels", []):
        for key in ("kernel", "size", "best_seconds", "qps"):
            if key not in row:
                raise ServeError(f"serving report row {row!r} is missing {key!r}")
