#!/usr/bin/env python
"""Scale smoke test: the dense artifact path at n = 2000.

Computes the TIV severity tensor and the exact all-pairs shortest-path
matrix of a DS²-like matrix (default 2000 nodes, five times the largest
harness size) through the artifact cache, then asserts:

* every measured edge's shortest path is no longer than its direct delay;
* a warm re-run is served entirely from the cache;
* the warm arrays equal the cold ones, whole;
* peak RSS stays under the ceiling (default 2 GiB).

Run from a checkout::

    python scripts/scale_smoke.py --nodes 2000 --report SCALE_report.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def _check(condition: bool, message: str, failures: list[str]) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        failures.append(message)


def run(nodes: int, ceiling_mb: float, cache_dir: Path) -> dict:
    failures: list[str] = []
    config = ExperimentConfig(n_nodes=nodes)
    print(f"scale smoke: n={nodes}, dense severity and exact shortest paths")

    cold = ExperimentContext(config, cache=ArtifactCache(cache_dir))
    started = time.perf_counter()
    severity = cold.severity
    severity_seconds = time.perf_counter() - started
    started = time.perf_counter()
    shortest = cold.shortest_paths
    shortest_seconds = time.perf_counter() - started
    print(
        f"  cold: severity {severity_seconds:.1f}s, "
        f"shortest {shortest_seconds:.1f}s, "
        f"cache {cold.cache.stats.stores} stores"
    )
    direct = cold.matrix.values
    measured = np.isfinite(direct)
    _check(
        bool(np.all(shortest[measured] <= direct[measured])),
        "shortest path <= direct delay on every measured edge",
        failures,
    )

    # Warm run: a fresh context over the same cache must restore both
    # artifacts without computing anything, and restore them exactly.
    warm = ExperimentContext(config, cache=ArtifactCache(cache_dir))
    warm_severity = warm.severity
    warm_shortest = warm.shortest_paths
    stats = warm.cache.stats
    print(f"  warm: {stats.hits} hits, {stats.misses} misses")
    _check(stats.misses == 0 and stats.hits > 0, "warm run all cache hits", failures)
    _check(
        np.array_equal(warm_severity.severity, severity.severity, equal_nan=True)
        and np.array_equal(warm_severity.violation_counts, severity.violation_counts),
        "warm severity equals the cold computation",
        failures,
    )
    _check(
        np.array_equal(warm_shortest, shortest),
        "warm shortest paths equal the cold computation",
        failures,
    )

    rss = peak_rss_mb()
    _check(rss < ceiling_mb, f"peak RSS {rss:.0f} MiB < {ceiling_mb:.0f} MiB", failures)

    return {
        "schema": "repro-scale-smoke/2",
        "nodes": nodes,
        "rss_ceiling_mb": ceiling_mb,
        "cold_severity_seconds": round(severity_seconds, 3),
        "cold_shortest_seconds": round(shortest_seconds, 3),
        "warm_cache": {"hits": stats.hits, "misses": stats.misses},
        "peak_rss_mb": round(rss, 1),
        "failures": failures,
        "ok": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--rss-ceiling", type=float, default=2048.0, metavar="MIB")
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--report", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.cache_dir is not None:
        report = run(args.nodes, args.rss_ceiling, args.cache_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="scale-smoke-") as tmp:
            report = run(args.nodes, args.rss_ceiling, Path(tmp))
    if args.report is not None:
        args.report.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.report}")
    if not report["ok"]:
        print("scale smoke FAILED:", "; ".join(report["failures"]))
        return 1
    print("scale smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
