"""The serving load generator behind ``repro serve-bench``.

For every requested ``(family, mode, size)`` the generator replays the
workload's deterministic query stream against the warm context and times
it: batched mode wraps each batch call (every query in the batch
experiences the batch's wall time), scalar mode wraps every individual
call.  One client fires every stream in-process, against one warm context
per size.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.errors import ServeError
from repro.serve.latency import LatencySummary, summarize_latencies
from repro.serve.report import ServingReport, ServingRow
from repro.serve.workload import (
    ServingWorkload,
    WarmContext,
    build_warm_context,
    generate_query_batches,
)


def _answer_batch(context: WarmContext, family: str, queries: list, k: int):
    """Answer one batch with the vectorised entry point."""
    service = context.service
    if family == "closest":
        return service.closest_batch(queries, k)
    if family == "distance":
        return service.distance_batch(queries)
    if family == "tiv_alert":
        return service.tiv_alert_batch(queries)
    return context.overlay.closest_neighbor_query_batch(
        [target for target, _ in queries],
        start_nodes=[start for _, start in queries],
    )


def _answer_one(context: WarmContext, family: str, query, k: int):
    """Answer one query with the scalar entry point."""
    service = context.service
    if family == "closest":
        return service.closest(query, k)
    if family == "distance":
        return service.distance(*query)
    if family == "tiv_alert":
        return service.tiv_alert(*query)
    target, start = query
    return context.overlay.closest_neighbor_query(target, start_node=start)


def measure_stream(
    context: WarmContext, workload: ServingWorkload, family: str, mode: str
) -> LatencySummary:
    """Time one (family, mode) query stream against a warm context."""
    batches = generate_query_batches(workload, context, family)
    warmup = batches[: workload.warmup_batches]
    timed = batches[workload.warmup_batches :]
    k = workload.k
    for queries in warmup:
        _answer_batch(context, family, queries, k)

    latencies: list[float] = []
    total = 0.0
    best = float("inf")
    if mode == "batched":
        for queries in timed:
            start = time.perf_counter()
            _answer_batch(context, family, queries, k)
            elapsed = time.perf_counter() - start
            latencies.extend([elapsed] * len(queries))
            total += elapsed
            best = min(best, elapsed / len(queries))
    elif mode == "scalar":
        for queries in timed:
            for query in queries:
                start = time.perf_counter()
                _answer_one(context, family, query, k)
                elapsed = time.perf_counter() - start
                latencies.append(elapsed)
                total += elapsed
                best = min(best, elapsed)
    else:
        raise ServeError(f"unknown serving mode {mode!r}")
    return summarize_latencies(latencies, total_seconds=total, best_per_query_seconds=best)


def _measure_all(workload: ServingWorkload) -> list[ServingRow]:
    """Every (family, mode) stream of one workload, at its single size."""
    context = build_warm_context(workload)
    return [
        ServingRow(
            family=family,
            mode=mode,
            size=workload.n_nodes,
            batch=workload.batch,
            summary=measure_stream(context, workload, family, mode),
        )
        for family in workload.families
        for mode in workload.modes
    ]


def run_serving_benchmark(
    workload: ServingWorkload, *, sizes: Optional[Sequence[int]] = None
) -> ServingReport:
    """Run the full serving benchmark, optionally across several sizes.

    ``sizes`` overrides the workload's ``n_nodes`` run by run (warm state
    is rebuilt per size); omitted, the workload runs at its own size.
    """
    if sizes is None:
        resolved = (workload.n_nodes,)
    else:
        resolved = tuple(int(s) for s in sizes)
        if not resolved:
            raise ServeError("sizes must be non-empty when given")
    rows: list[ServingRow] = []
    for size in resolved:
        sized = workload if size == workload.n_nodes else replace(workload, n_nodes=size)
        rows.extend(_measure_all(sized))
    return ServingReport(workload=workload.as_dict(), sizes=resolved, rows=tuple(rows))
