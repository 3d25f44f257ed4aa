"""Performance benchmark subsystem.

``repro.perf`` times the library's hot kernels — the batched and reference
variants of the Vivaldi spring step, the IDES and LAT embedding fits, the
Meridian overlay build and closest-node query and the live service's
closest-node query, plus TIV severity, all-pairs shortest paths and
scenario generation — across matrix sizes, and writes a structured
``BENCH_perf.json`` report so the performance trajectory of the codebase
accumulates run over run (locally and as a CI artifact).

The CLI entry points are ``repro bench`` (timing) and ``repro perf-gate``
(compare a fresh report against the committed baseline and fail on
regressions); the programmatic surface is :func:`run_benchmarks`,
:func:`compare_reports` and the kernel registry in
:mod:`repro.perf.kernels`.
"""

from repro.perf.bench import BenchReport, KernelTiming, run_benchmarks
from repro.perf.gate import GateRow, compare_reports, format_table, load_report, regressions
from repro.perf.kernels import (
    KernelSpec,
    available_kernels,
    get_kernel,
    kernel_families,
    resolve_kernel_names,
)

__all__ = [
    "BenchReport",
    "GateRow",
    "KernelSpec",
    "KernelTiming",
    "available_kernels",
    "compare_reports",
    "format_table",
    "get_kernel",
    "kernel_families",
    "load_report",
    "regressions",
    "resolve_kernel_names",
    "run_benchmarks",
]
