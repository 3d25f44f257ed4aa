"""Experiment runners for the Section 2 TIV-characteristics figures.

* :func:`fig02_severity_cdf` — CDF of TIV severity on the four data sets.
* :func:`fig03_cluster_matrix` — TIV severity by cluster.
* :func:`fig04_07_severity_vs_delay` — median/10th/90th severity per 10 ms
  delay bin, one series per data set.
* :func:`fig08_shortest_path` — fraction of within-cluster edges and
  shortest-path lengths per delay bin.
* :func:`fig09_proximity` — nearest-pair vs random-pair severity-difference
  CDFs.

Every runner accepts an optional shared
:class:`~repro.experiments.context.ExperimentContext` so the engine can
reuse (and persist) the expensive intermediates across figures.
"""

from __future__ import annotations

from repro.delayspace.shortest_path import shortest_path_lengths_for_edges
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.result import ExperimentResult
from repro.stats.binning import bin_by_value
from repro.tiv.analysis import (
    cluster_severity_analysis,
    severity_cdf,
    severity_vs_delay,
    within_cluster_fraction_vs_delay,
)
from repro.tiv.proximity import proximity_analysis

#: The four measured data sets of the paper and the synthetic presets that
#: stand in for them.
DATASET_PRESETS: dict[str, str] = {
    "DS2": "ds2_like",
    "Meridian": "meridian_like",
    "p2psim": "p2psim_like",
    "PlanetLab": "planetlab_like",
}

#: Width (ms) of the edge-delay bins of Figs. 4-7.
SEVERITY_BIN_WIDTH = 10.0
#: Width (ms) of fig08's edge-delay bins.
SHORTEST_PATH_BIN_WIDTH = 50.0
#: Edges fig09 samples per data set (the paper's 10 000).
PROXIMITY_SAMPLES = 10_000


def dataset_sizes(config: ExperimentConfig) -> dict[str, int]:
    """Scale the four data sets' node counts relative to the config.

    Public because :func:`repro.artifacts.nodes.requirement_keys` expands
    the ``"datasets"`` requirement token into exactly these variants.
    """
    base = config.n_nodes
    return {
        "DS2": base,
        "Meridian": max(16, int(base * 0.8)),
        "p2psim": max(16, int(base * 0.7)),
        "PlanetLab": max(16, int(base * 0.55)),
    }


def fig02_severity_cdf(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 2: cumulative distribution of TIV severity for four data sets.

    ``data["curves"]`` maps each data-set name to the sorted severity sample
    and a few quantiles; ``data["violating_triangle_fraction"]`` records the
    in-text "~12 % of triangles violate" statistic for each data set, read
    exactly off its severity artifact.
    """
    ctx = ExperimentContext.resolve(config, context)
    sizes = dataset_sizes(ctx.config)
    curves: dict[str, dict] = {}
    violating = {}
    for name, preset in DATASET_PRESETS.items():
        severity = ctx.dataset_severity(preset, sizes[name])
        cdf = severity_cdf(severity)
        curves[name] = {
            "quantiles": {q: float(cdf.quantile(q)) for q in (0.5, 0.75, 0.9, 0.99)},
            "fraction_zero": cdf.fraction_at_most(0.0),
            "max": float(cdf.values[-1]),
            "n_edges": len(cdf),
        }
        violating[name] = severity.violating_triangle_fraction()
    return ExperimentResult(
        experiment_id="fig02",
        title="CDF of TIV severity across data sets",
        data={"curves": curves, "violating_triangle_fraction": violating},
        paper_expectation=(
            "TIVs are present in every data set: most edges cause only slight "
            "violations but each distribution has a long tail of severe ones."
        ),
    )


def fig03_cluster_matrix(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 3: TIV severity organised by major cluster.

    ``data`` reports the cluster sizes, the reordered severity matrix, and
    the within- vs cross-cluster mean violation counts (the paper reports
    80 vs 206 for DS²).
    """
    ctx = ExperimentContext.resolve(config, context)
    analysis = cluster_severity_analysis(ctx.matrix, ctx.severity, ctx.cluster_assignment)
    return ExperimentResult(
        experiment_id="fig03",
        title="TIV severity by cluster",
        data={
            "cluster_sizes": ctx.cluster_assignment.sizes(),
            "reordered_severity": analysis.reordered_severity,
            "mean_within_severity": analysis.mean_within_severity,
            "mean_cross_severity": analysis.mean_cross_severity,
            "mean_within_violations": analysis.mean_within_violations,
            "mean_cross_violations": analysis.mean_cross_violations,
        },
        paper_expectation=(
            "Edges within a major cluster cause fewer/weaker violations than "
            "edges crossing clusters (diagonal blocks darker than off-diagonal)."
        ),
    )


def fig04_07_severity_vs_delay(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figures 4-7: TIV severity versus edge delay, one series per data set.

    ``data["series"]`` maps data-set name to the binned 10th/median/90th
    percentile severities.
    """
    ctx = ExperimentContext.resolve(config, context)
    sizes = dataset_sizes(ctx.config)
    series = {}
    for name, preset in DATASET_PRESETS.items():
        matrix = ctx.dataset_matrix(preset, sizes[name])
        severity = ctx.dataset_severity(preset, sizes[name])
        stats = severity_vs_delay(matrix, severity, bin_width=SEVERITY_BIN_WIDTH)
        series[name] = stats.nonempty().as_dict()
    return ExperimentResult(
        experiment_id="fig04_07",
        title="Relation between edge delay and TIV severity",
        data={"series": series, "bin_width_ms": SEVERITY_BIN_WIDTH},
        paper_expectation=(
            "Longer edges tend to cause more severe violations, but the "
            "relationship is irregular and edges of very different lengths can "
            "share the same severity level."
        ),
    )


def fig08_shortest_path(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 8: within-cluster fraction and shortest-path length vs edge delay."""
    ctx = ExperimentContext.resolve(config, context)
    centers, fraction, counts = within_cluster_fraction_vs_delay(
        ctx.matrix, ctx.cluster_assignment, bin_width=SHORTEST_PATH_BIN_WIDTH
    )
    delays, shortest = shortest_path_lengths_for_edges(ctx.matrix, ctx.shortest_paths)
    shortest_stats = bin_by_value(delays, shortest, bin_width=SHORTEST_PATH_BIN_WIDTH)
    return ExperimentResult(
        experiment_id="fig08",
        title="Shortest path length for edges at different delays",
        data={
            "bin_centers": centers.tolist(),
            "within_cluster_fraction": fraction.tolist(),
            "edge_counts": counts.tolist(),
            "shortest_path": shortest_stats.nonempty().as_dict(),
        },
        paper_expectation=(
            "Edges longer than ~200 ms are mostly cross-cluster; shortest-path "
            "length grows with edge delay but lags it over the range where "
            "severe TIVs appear (short alternative paths exist)."
        ),
    )


def fig09_proximity(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 9: proximity does not predict TIV severity.

    ``data["datasets"]`` maps data-set name to the median nearest-pair and
    random-pair severity differences and the gap between them.
    """
    ctx = ExperimentContext.resolve(config, context)
    cfg = ctx.config
    sizes = dataset_sizes(cfg)
    datasets = {}
    for name, preset in DATASET_PRESETS.items():
        matrix = ctx.dataset_matrix(preset, sizes[name])
        severity = ctx.dataset_severity(preset, sizes[name])
        result = proximity_analysis(
            matrix, severity, n_samples=PROXIMITY_SAMPLES, rng=cfg.seed
        )
        datasets[name] = {
            "median_nearest_difference": result.nearest_cdf().median,
            "median_random_difference": result.random_cdf().median,
            "median_gap": result.median_gap(),
        }
    return ExperimentResult(
        experiment_id="fig09",
        title="Proximity property of TIVs",
        data={"datasets": datasets, "n_samples": PROXIMITY_SAMPLES},
        paper_expectation=(
            "Nearest-pair edges are only slightly more similar in TIV severity "
            "than random pairs: proximity alone cannot predict severity."
        ),
    )
