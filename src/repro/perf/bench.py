"""The benchmark harness behind ``repro bench``.

For every (kernel, size) pair the harness runs the kernel's setup once,
performs untimed warmup calls, then times ``repeats`` calls individually
with :func:`time.perf_counter` and records the best and mean wall-clock
plus derived throughput.  Best-of-N is the headline number: it is the
least noisy estimator of what the code can do on the machine, while the
mean documents run-to-run spread.

The report is a plain-JSON document (``BENCH_perf.json``) that also
carries the environment (python/numpy versions) and, per kernel
family whose batched and reference variants were both measured at a size,
their speedup (``speedups``) — the numbers the CI ``bench-smoke`` job
asserts on.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.perf.kernels import BenchmarkError, available_kernels, get_kernel

#: Schema tag written into every report so downstream tooling can detect
#: incompatible layout changes.
SCHEMA = "repro-bench-perf/1"


@dataclass(frozen=True)
class KernelTiming:
    """Timing of one (kernel, size) pair."""

    kernel: str
    size: int
    repeats: int
    best_seconds: float
    mean_seconds: float
    #: ``None`` when the clock resolution swallowed the call entirely
    #: (best_seconds == 0) — kept null rather than inf so the report stays
    #: strictly-valid JSON.
    throughput: Optional[float]
    units: str

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "size": self.size,
            "repeats": self.repeats,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "throughput": self.throughput,
            "units": self.units,
        }


@dataclass(frozen=True)
class BenchReport:
    """All timings of one ``repro bench`` invocation."""

    sizes: tuple[int, ...]
    repeats: int
    seed: int
    timings: tuple[KernelTiming, ...] = field(repr=False)

    def timing(self, kernel: str, size: int) -> Optional[KernelTiming]:
        """The timing row for ``(kernel, size)``, or ``None``."""
        for row in self.timings:
            if row.kernel == kernel and row.size == size:
                return row
        return None

    def speedups(self) -> dict[str, dict[str, float]]:
        """Batched-over-reference speedup per kernel family and size.

        A family's speedup at a size is only reported when both variants
        were measured there.  Sizes are keyed as strings (JSON object keys
        are strings; using them directly keeps the report round-trippable).
        """
        from repro.perf.kernels import kernel_families

        result: dict[str, dict[str, float]] = {}
        for family, (batched_name, reference_name) in sorted(kernel_families().items()):
            per_size: dict[str, float] = {}
            for size in self.sizes:
                batched = self.timing(batched_name, size)
                reference = self.timing(reference_name, size)
                if batched is None or reference is None or batched.best_seconds <= 0:
                    continue
                per_size[str(size)] = reference.best_seconds / batched.best_seconds
            if per_size:
                result[family] = per_size
        return result

    def as_dict(self) -> dict:
        import numpy

        return {
            "schema": SCHEMA,
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
            },
            "sizes": list(self.sizes),
            "repeats": self.repeats,
            "seed": self.seed,
            "kernels": [row.as_dict() for row in self.timings],
            "speedups": self.speedups(),
        }


def _time_once(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def run_benchmarks(
    *,
    kernels: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = (100, 200),
    repeats: int = 3,
    warmup: int = 1,
    seed: int = 0,
) -> BenchReport:
    """Time the named kernels across sizes.

    Parameters
    ----------
    kernels:
        Kernel names (defaults to every registered kernel).
    sizes:
        Matrix sizes (node counts) to run each kernel at.
    repeats:
        Timed calls per (kernel, size); best and mean are reported.
    warmup:
        Untimed calls before the timed ones (fills caches, triggers lazy
        imports and numpy's first-call machinery).
    seed:
        Seed for dataset generation and the Vivaldi simulations.
    """
    names = tuple(kernels) if kernels is not None else available_kernels()
    specs = [get_kernel(name) for name in names]
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s < 8 for s in sizes):
        raise BenchmarkError("sizes must be a non-empty list of node counts >= 8")
    if repeats < 1:
        raise BenchmarkError("repeats must be >= 1")
    if warmup < 0:
        raise BenchmarkError("warmup must be >= 0")

    timings: list[KernelTiming] = []
    for spec in specs:
        for size in sizes:
            run, work = spec.setup(size, seed)
            for _ in range(warmup):
                run()
            samples = [_time_once(run) for _ in range(repeats)]
            best = min(samples)
            timings.append(
                KernelTiming(
                    kernel=spec.name,
                    size=size,
                    repeats=repeats,
                    best_seconds=best,
                    mean_seconds=sum(samples) / len(samples),
                    throughput=work / best if best > 0 else None,
                    units=spec.units,
                )
            )
    return BenchReport(sizes=sizes, repeats=repeats, seed=seed, timings=tuple(timings))
