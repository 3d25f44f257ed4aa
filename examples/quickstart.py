#!/usr/bin/env python3
"""Quickstart: measure TIVs, embed with Vivaldi, and raise TIV alerts.

This walks the core pipeline of the paper end to end on a small synthetic
Internet-like delay matrix:

1. generate a DS²-like delay matrix with injected triangle inequality
   violations;
2. quantify the TIVs with the per-edge severity metric (§2.1);
3. embed the matrix with Vivaldi and observe the aggregate error TIVs cause;
4. build the TIV alert from the embedding's prediction ratios (§5.1) and
   check how well it identifies the worst edges.

Run with::

    python examples/quickstart.py [n_nodes]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    TIVAlert,
    compute_tiv_severity,
    embed_vivaldi,
    load_dataset,
)
from repro.stats import median_absolute_error


def main(n_nodes: int = 200) -> None:
    print(f"=== 1. Generating a DS2-like delay matrix with {n_nodes} nodes ===")
    matrix = load_dataset("ds2_like", n_nodes=n_nodes, rng=0)
    print(f"nodes: {matrix.n_nodes}, median delay: {matrix.median_delay():.1f} ms")

    print("\n=== 2. TIV severity analysis (Section 2) ===")
    severity = compute_tiv_severity(matrix)
    summary = severity.summary()
    triangles = severity.violating_triangle_fraction()
    print(f"fraction of violating triangles: {triangles:.1%}")
    print(f"edges causing at least one violation: {summary['fraction_nonzero']:.1%}")
    print(f"median / p90 / max edge severity: "
          f"{summary['median']:.3f} / {summary['p90']:.3f} / {summary['max']:.2f}")

    print("\n=== 3. Vivaldi embedding under TIV (Section 3) ===")
    vivaldi = embed_vivaldi(matrix, seconds=100, rng=1)
    error = median_absolute_error(matrix.values, vivaldi.predicted_matrix())
    print(f"median absolute prediction error after 100 s: {error:.1f} ms "
          f"(the paper reports ~20 ms on DS2)")

    print("\n=== 4. TIV alert mechanism (Section 5) ===")
    alert = TIVAlert(matrix, vivaldi)
    for target in (0.01, 0.05, 0.10):
        evaluation = alert.evaluate(severity, target_fraction=target, thresholds=[0.6])
        accuracy = evaluation.accuracy[0]
        recall = evaluation.recall[0]
        alerted = evaluation.alert_fraction[0]
        print(
            f"alert threshold 0.6 vs worst {target:>4.0%} edges: "
            f"accuracy {accuracy:5.1%}  recall {recall:5.1%}  "
            f"(alerts on {alerted:.1%} of edges)"
        )

    worst = severity.worst_edges(0.05)
    alerted_edges = alert.alerted_edges(threshold=0.6)
    hit = len(worst & alerted_edges)
    print(f"\nof the {len(worst)} worst-severity edges, {hit} are flagged by the alert")
    print("done — see examples/server_selection.py for the alert applied to a real "
          "neighbour-selection task")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    np.set_printoptions(precision=3, suppress=True)
    main(size)
