"""Experiment runners for the Section 5 TIV-alert figures.

* :func:`fig19_severity_vs_ratio` — TIV severity versus Vivaldi prediction
  ratio (the empirical basis of the alert).
* :func:`fig20_alert_accuracy` / :func:`fig21_alert_recall` — precision and
  recall of the alert across ratio thresholds and worst-severity targets.
* :func:`fig22_23_dynamic_neighbor` — severity of Vivaldi neighbour edges
  and the neighbour-selection penalty across dynamic-neighbour iterations.
* :func:`fig24_meridian_alert_normal` — TIV-aware Meridian in the normal
  setting (half the nodes are Meridian nodes).
* :func:`fig25_meridian_alert_small` — TIV-aware Meridian in the small,
  full-membership setting, compared against the no-termination ideal.
"""

from __future__ import annotations

import numpy as np

from repro.coords.base import MatrixPredictor
from repro.core.alert import severity_vs_prediction_ratio
from repro.core.tiv_aware_meridian import (
    TIVAwareMeridianConfig,
    tiv_aware_membership_adjuster,
    tiv_aware_restart_policy,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.result import ExperimentResult
from repro.meridian.rings import MeridianConfig
from repro.neighbor.selection import MeridianSelectionExperiment
from repro.stats.cdf import ECDF

#: Width of fig19's prediction-ratio bins, and the ratio where they stop.
RATIO_BIN_WIDTH = 0.1
MAX_RATIO = 5.0
#: Worst-severity edge shares whose alert fig20 and fig21 score.
ALERT_TARGET_FRACTIONS = (0.01, 0.05, 0.10, 0.20)
#: The refinement iterations (besides the initial period 0) fig22_23 reports.
DYNAMIC_REPORT_ITERATIONS = (1, 2, 5)


def fig19_severity_vs_ratio(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 19: TIV severity of edges with different prediction ratios."""
    ctx = ExperimentContext.resolve(config, context)
    stats = severity_vs_prediction_ratio(
        ctx.matrix, ctx.severity, ctx.alert, bin_width=RATIO_BIN_WIDTH, max_ratio=MAX_RATIO
    )
    nonempty = stats.nonempty()
    # Quantify the monotone trend the paper highlights: median severity of
    # strongly shrunk edges (ratio <= 0.5) vs roughly preserved edges (~1)
    # vs stretched edges (>= 2).
    centers = nonempty.bin_centers
    medians = nonempty.median

    def _median_in(lo: float, hi: float) -> float:
        mask = (centers >= lo) & (centers < hi)
        return float(np.nanmedian(medians[mask])) if mask.any() else float("nan")

    return ExperimentResult(
        experiment_id="fig19",
        title="TIV severity for edges with different prediction ratios",
        data={
            "severity_vs_ratio": nonempty.as_dict(),
            "median_severity_shrunk": _median_in(0.0, 0.5),
            "median_severity_neutral": _median_in(0.9, 1.1),
            "median_severity_stretched": _median_in(2.0, MAX_RATIO),
        },
        paper_expectation=(
            "Edges that the embedding shrank (ratio << 1) have much higher TIV "
            "severity; edges with ratio >= 2 cause almost none."
        ),
    )


def fig20_alert_accuracy(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 20: accuracy of the TIV alert across ratio thresholds."""
    ctx = ExperimentContext.resolve(config, context)
    curves = {}
    for fraction in ALERT_TARGET_FRACTIONS:
        evaluation = ctx.alert.evaluate(ctx.severity, target_fraction=fraction)
        curves[f"worst_{int(fraction * 100)}pct"] = {
            "thresholds": evaluation.thresholds.tolist(),
            "accuracy": evaluation.accuracy.tolist(),
            "alert_fraction": evaluation.alert_fraction.tolist(),
        }
    return ExperimentResult(
        experiment_id="fig20",
        title="Accuracy of the TIV alert mechanism",
        data={"curves": curves},
        paper_expectation=(
            "Tight thresholds give very high alert accuracy (>90% for the worst "
            "1-5% of edges); accuracy decays as the threshold is relaxed."
        ),
    )


def fig21_alert_recall(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 21: recall of the TIV alert across ratio thresholds."""
    ctx = ExperimentContext.resolve(config, context)
    curves = {}
    for fraction in ALERT_TARGET_FRACTIONS:
        evaluation = ctx.alert.evaluate(ctx.severity, target_fraction=fraction)
        curves[f"worst_{int(fraction * 100)}pct"] = {
            "thresholds": evaluation.thresholds.tolist(),
            "recall": evaluation.recall.tolist(),
            "alert_fraction": evaluation.alert_fraction.tolist(),
        }
    return ExperimentResult(
        experiment_id="fig21",
        title="Recall rate of the TIV alert mechanism",
        data={"curves": curves},
        paper_expectation=(
            "Tight thresholds recall only a small fraction of the bad edges; "
            "relaxing the threshold trades accuracy for recall."
        ),
    )


def fig22_23_dynamic_neighbor(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figures 22-23: dynamic-neighbour Vivaldi severity and penalty.

    One runner covers both figures because they come from the same dynamic
    neighbour run (the ``dynamic`` artifact): Fig. 22 is the severity CDF
    of the neighbour edges per iteration, Fig. 23 is the
    neighbour-selection penalty per iteration.
    """
    ctx = ExperimentContext.resolve(config, context)
    snapshots = ctx.dynamic

    experiment = ctx.selection_experiment()
    severity_by_iteration = {}
    penalty_by_iteration = {}
    for snap in snapshots:
        if snap.iteration != 0 and snap.iteration not in DYNAMIC_REPORT_ITERATIONS:
            continue
        severities = snap.neighbor_edge_severities(ctx.severity)
        cdf = ECDF(severities)
        severity_by_iteration[snap.iteration] = {
            "median": cdf.median,
            "p90": float(cdf.quantile(0.9)),
            "mean": cdf.mean,
        }
        result = experiment.run(MatrixPredictor(snap.predicted))
        penalty_by_iteration[snap.iteration] = result.summary()

    return ExperimentResult(
        experiment_id="fig22_23",
        title="Dynamic-neighbour Vivaldi: neighbour-edge severity and penalty",
        data={
            "neighbor_edge_severity": severity_by_iteration,
            "selection_penalty": penalty_by_iteration,
            "iterations": snapshots[-1].iteration,
        },
        paper_expectation=(
            "Neighbour-edge TIV severity shrinks iteration over iteration and "
            "neighbour selection beats original Vivaldi after a few iterations."
        ),
    )


def _meridian_alert_comparison(
    ctx: ExperimentContext,
    *,
    n_meridian: int,
    full_membership: bool,
    include_no_termination: bool,
) -> dict[str, dict[str, float]]:
    cfg = ctx.config
    meridian_config = MeridianConfig()
    tiv_config = TIVAwareMeridianConfig()
    alert = ctx.alert

    results: dict[str, dict[str, float]] = {}
    overlay_kwargs = {"full_membership": full_membership}

    results["meridian_original"] = MeridianSelectionExperiment(
        ctx.matrix,
        n_meridian=n_meridian,
        config=meridian_config,
        n_runs=cfg.selection_runs,
        max_clients=cfg.max_clients,
        rng=cfg.seed + 9,
        overlay_kwargs=overlay_kwargs,
    ).run().summary()

    results["meridian_tiv_alert"] = MeridianSelectionExperiment(
        ctx.matrix,
        n_meridian=n_meridian,
        config=meridian_config,
        n_runs=cfg.selection_runs,
        max_clients=cfg.max_clients,
        rng=cfg.seed + 9,
        overlay_kwargs={
            **overlay_kwargs,
            "membership_adjuster": tiv_aware_membership_adjuster(alert, tiv_config),
        },
        restart_policy=tiv_aware_restart_policy(alert, tiv_config),
    ).run().summary()

    if include_no_termination:
        results["meridian_no_termination"] = MeridianSelectionExperiment(
            ctx.matrix,
            n_meridian=n_meridian,
            config=MeridianConfig(use_termination=False),
            n_runs=cfg.selection_runs,
            max_clients=cfg.max_clients,
            rng=cfg.seed + 9,
            overlay_kwargs=overlay_kwargs,
        ).run().summary()

    base_probes = results["meridian_original"]["probes"]
    if base_probes > 0:
        results["probe_overhead_fraction"] = {
            "tiv_alert_vs_original": (
                results["meridian_tiv_alert"]["probes"] - base_probes
            ) / base_probes
        }
    return results


def fig24_meridian_alert_normal(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 24: TIV-aware Meridian in the normal setting."""
    ctx = ExperimentContext.resolve(config, context)
    results = _meridian_alert_comparison(
        ctx,
        n_meridian=ctx.config.n_meridian,
        full_membership=False,
        include_no_termination=False,
    )
    return ExperimentResult(
        experiment_id="fig24",
        title="Meridian with the TIV alert mechanism (normal setting)",
        data={"results": results},
        paper_expectation=(
            "The TIV alert improves Meridian's penalty CDF at the cost of a few "
            "percent more on-demand probes (~6% in the paper)."
        ),
    )


def fig25_meridian_alert_small(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 25: TIV-aware Meridian with a small, full-membership population."""
    ctx = ExperimentContext.resolve(config, context)
    results = _meridian_alert_comparison(
        ctx,
        n_meridian=ctx.config.n_meridian_small,
        full_membership=True,
        include_no_termination=True,
    )
    return ExperimentResult(
        experiment_id="fig25",
        title="Meridian with the TIV alert mechanism (small full-membership setting)",
        data={"results": results},
        paper_expectation=(
            "Even with every Meridian node knowing all others, the TIV alert "
            "still improves selection and can beat the no-termination ideal at "
            "similar extra probing cost (~5%)."
        ),
    )
