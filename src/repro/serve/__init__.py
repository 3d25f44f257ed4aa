"""Query-serving benchmark tier: load generation against the live service.

``repro.serve`` measures the repository's *serving* story — queries per
second and tail latency of the closest-node, coordinate-distance and
TIV-alert queries answered by a warm
:class:`~repro.stream.service.StreamCoordinateService`, plus the batch
Meridian closest-neighbour search — rather than the *convergence* story
the figure runners cover.  A workload
(:class:`~repro.serve.workload.ServingWorkload`) pins the warm state and
the query mix; the load generator
(:func:`~repro.serve.loadgen.run_serving_benchmark`) fires the queries in
batched and scalar modes from one in-process client; the report
(:class:`~repro.serve.report.ServingReport`, ``BENCH_serving.json``)
records QPS and p50/p95/p99 per query family and mode, and the
batched-over-scalar speedup.
"""

from repro.serve.latency import LatencySummary, summarize_latencies
from repro.serve.loadgen import run_serving_benchmark
from repro.serve.report import SERVING_SCHEMA, ServingReport
from repro.serve.workload import ServingWorkload, WarmContext, build_warm_context

__all__ = [
    "LatencySummary",
    "SERVING_SCHEMA",
    "ServingReport",
    "ServingWorkload",
    "WarmContext",
    "build_warm_context",
    "run_serving_benchmark",
    "summarize_latencies",
]
