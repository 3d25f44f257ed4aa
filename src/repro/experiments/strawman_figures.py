"""Experiment runners for the §4 strawman figures.

* :func:`fig15_ides` — IDES neighbour selection vs original Vivaldi.
* :func:`fig16_lat` — Vivaldi + LAT vs original Vivaldi.
* :func:`fig17_vivaldi_filter` — Vivaldi with the global worst-severity edge
  filter.
* :func:`fig18_meridian_filter` — Meridian with the same filter.
"""

from __future__ import annotations

from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.result import ExperimentResult
from repro.meridian.rings import MeridianConfig
from repro.neighbor.filters import severity_excluded_edges, severity_filtered_neighbor_lists
from repro.neighbor.selection import MeridianSelectionExperiment

#: Share of the worst-severity edges that fig17 and fig18 filter out.
FILTER_FRACTION = 0.2


def fig15_ides(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 15: IDES neighbour-selection performance vs original Vivaldi.

    The landmark count scales with the matrix (0.5 % of nodes, at least 6),
    which reproduces the measurement budget of a real IDES deployment
    (~20 landmarks for a few thousand hosts).  The embedding itself is a
    shared context artefact (cached on disk when the context has a cache).
    """
    ctx = ExperimentContext.resolve(config, context)
    experiment = ctx.selection_experiment()
    vivaldi_result = experiment.run(ctx.vivaldi)
    ides_result = experiment.run(ctx.ides)
    return ExperimentResult(
        experiment_id="fig15",
        title="Neighbour selection performance of IDES",
        data={
            "vivaldi": vivaldi_result.summary(),
            "ides": ides_result.summary(),
        },
        paper_expectation=(
            "IDES does not beat Vivaldi at neighbour selection even though it "
            "can represent TIVs (its penalty CDF is no better, typically worse)."
        ),
    )


def fig16_lat(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 16: Vivaldi+LAT neighbour-selection performance vs Vivaldi."""
    ctx = ExperimentContext.resolve(config, context)
    experiment = ctx.selection_experiment()
    vivaldi_result = experiment.run(ctx.vivaldi)
    lat_result = experiment.run(ctx.lat)
    return ExperimentResult(
        experiment_id="fig16",
        title="Neighbour selection performance of Vivaldi with LAT",
        data={
            "vivaldi": vivaldi_result.summary(),
            "vivaldi_lat": lat_result.summary(),
        },
        paper_expectation=(
            "The localized adjustment term leaves neighbour selection only "
            "marginally different from original Vivaldi."
        ),
    )


def fig17_vivaldi_filter(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 17: Vivaldi whose probing neighbours avoid the worst-TIV edges."""
    ctx = ExperimentContext.resolve(config, context)
    experiment = ctx.selection_experiment()
    vivaldi_result = experiment.run(ctx.vivaldi)

    filtered_lists = severity_filtered_neighbor_lists(
        ctx.matrix,
        ctx.severity,
        n_neighbors=ctx.vivaldi.config.n_neighbors,
        fraction=FILTER_FRACTION,
        rng=ctx.config.seed + 5,
    )
    filtered_system = VivaldiSystem(
        ctx.matrix,
        VivaldiConfig(),
        rng=ctx.config.seed + 6,
        neighbors=filtered_lists,
    )
    filtered_system.run(ctx.config.vivaldi_seconds)
    filtered_result = experiment.run(filtered_system)
    return ExperimentResult(
        experiment_id="fig17",
        title="Vivaldi with TIV severity filter",
        data={
            "vivaldi_original": vivaldi_result.summary(),
            "vivaldi_severity_filter": filtered_result.summary(),
            "filter_fraction": FILTER_FRACTION,
        },
        paper_expectation=(
            "Excluding the globally worst-severity edges from Vivaldi probing "
            "only marginally changes its neighbour selection performance."
        ),
    )


def fig18_meridian_filter(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 18: Meridian whose rings avoid the worst-TIV edges (it gets worse)."""
    ctx = ExperimentContext.resolve(config, context)
    cfg = ctx.config
    excluded = severity_excluded_edges(ctx.severity, fraction=FILTER_FRACTION)
    meridian_config = MeridianConfig()

    original = MeridianSelectionExperiment(
        ctx.matrix,
        n_meridian=cfg.n_meridian,
        config=meridian_config,
        n_runs=cfg.selection_runs,
        max_clients=cfg.max_clients,
        rng=cfg.seed + 7,
    ).run()
    filtered = MeridianSelectionExperiment(
        ctx.matrix,
        n_meridian=cfg.n_meridian,
        config=meridian_config,
        n_runs=cfg.selection_runs,
        max_clients=cfg.max_clients,
        rng=cfg.seed + 7,
        overlay_kwargs={"excluded_edges": excluded},
    ).run()
    return ExperimentResult(
        experiment_id="fig18",
        title="Meridian with TIV severity filter",
        data={
            "meridian_original": original.summary(),
            "meridian_severity_filter": filtered.summary(),
            "filter_fraction": FILTER_FRACTION,
        },
        paper_expectation=(
            "Removing the worst-severity edges degrades Meridian: rings become "
            "under-populated and queries can no longer be routed well."
        ),
    )
