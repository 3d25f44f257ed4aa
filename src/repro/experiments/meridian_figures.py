"""Experiment runners for the Meridian behaviour figures (§3.2.2).

* :func:`fig13_ring_misplacement` — percentage of would-be ring members
  misplaced by TIVs, versus delay, for several β values.
* :func:`fig14_meridian_ideal` — neighbour-selection penalty of Meridian
  under idealised settings on a Euclidean matrix vs the DS²-like matrix.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.result import ExperimentResult
from repro.meridian.analysis import bin_misplacement
from repro.meridian.rings import MeridianConfig
from repro.neighbor.selection import MeridianSelectionExperiment

#: Width (ms) of fig13's delay bins.
MISPLACEMENT_BIN_WIDTH = 50.0


def fig13_ring_misplacement(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 13: percentage of Meridian ring members misplaced by TIVs.

    The sampled pairs and their misplaced fractions per β are the
    ``misplacement`` artifact; this runner bins them by delay.
    """
    ctx = ExperimentContext.resolve(config, context)
    delays, fractions = ctx.misplacement
    series = {}
    for beta, per_pair in fractions.items():
        centers, fraction, counts = bin_misplacement(
            delays, per_pair, bin_width=MISPLACEMENT_BIN_WIDTH
        )
        series[f"beta={beta}"] = {
            "bin_centers": centers.tolist(),
            "misplaced_fraction": fraction.tolist(),
            "pair_counts": counts.tolist(),
            "overall_mean": float(np.nansum(np.nan_to_num(fraction) * counts) / max(counts.sum(), 1)),
        }
    return ExperimentResult(
        experiment_id="fig13",
        title="Percentage of Meridian ring members misplaced",
        data={"series": series, "bin_width_ms": MISPLACEMENT_BIN_WIDTH},
        paper_expectation=(
            "Placement errors are frequent (10-30% even for short delays at "
            "beta=0.5) and decrease as beta grows, at the cost of more probes."
        ),
    )


def fig14_meridian_ideal(
    config: ExperimentConfig | None = None, *, context: ExperimentContext | None = None
) -> ExperimentResult:
    """Figure 14: Meridian with idealised settings, Euclidean vs DS²-like data.

    Idealised settings: a small Meridian population where every node uses
    all other Meridian nodes as ring members and the β termination condition
    is disabled.  On the Euclidean (TIV-free) matrix Meridian almost always
    finds the closest node; on the measured-like matrix it does not.
    """
    ctx = ExperimentContext.resolve(config, context)
    cfg = ctx.config
    ideal_config = MeridianConfig(use_termination=False)
    results = {}
    for name, preset in (("Euclidean", "euclidean_like"), ("DS2", cfg.dataset)):
        matrix = ctx.dataset_matrix(preset, cfg.n_nodes)
        experiment = MeridianSelectionExperiment(
            matrix,
            n_meridian=cfg.n_meridian_small,
            config=ideal_config,
            n_runs=cfg.selection_runs,
            max_clients=cfg.max_clients,
            rng=cfg.seed + 4,
            overlay_kwargs={"full_membership": True},
        )
        results[name] = experiment.run().summary()
    return ExperimentResult(
        experiment_id="fig14",
        title="Meridian neighbour selection with ideal settings",
        data={"results": results},
        paper_expectation=(
            "Meridian nearly always finds the closest neighbour on the "
            "Euclidean matrix but fails on a noticeable fraction (~13%) of "
            "queries on measured delays, even under ideal settings."
        ),
    )
