"""Generator layer interpreting a :class:`~repro.scenarios.spec.Scenario`.

A scenario changes how a dataset preset materialises in two stages:

* **pre-generation** — the topology family, TIV-injection level and
  access-delay model rewrite the preset's
  :class:`~repro.delayspace.synthetic.SyntheticSpaceConfig` before
  :func:`~repro.delayspace.synthetic.clustered_delay_space` runs.  Euclidean
  presets have no synthetic-space configuration, so these dimensions are
  no-ops there (a Euclidean space is TIV-free by construction).
* **post-generation** — churn snapshots, directional-asymmetry averaging,
  extra measurement jitter, global rescaling and edge dropout transform the
  generated :class:`~repro.delayspace.matrix.DelayMatrix`.

Both stages are fully determined by ``(scenario, preset, n_nodes, seed)``,
which is exactly the tuple the artifact cache addresses scenario matrices
by (see :meth:`repro.scenarios.spec.Scenario.cache_params`).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.delayspace.datasets import get_preset, load_dataset
from repro.delayspace.matrix import DelayMatrix
from repro.delayspace.synthetic import (
    ClusterSpec,
    SyntheticSpaceConfig,
    clustered_delay_space,
    euclidean_delay_space,
)
from repro.scenarios.spec import Scenario

#: Cluster geometries of the named topology families.  ``None`` keeps the
#: preset's own geometry.  ``"flat"`` maps to an empty tuple: every node
#: becomes a "noise" node scattered uniformly, i.e. a cluster-free space.
TOPOLOGIES: dict[str, Optional[tuple[ClusterSpec, ...]]] = {
    "default": None,
    "two_continent": (
        ClusterSpec("north-america", 0.50, (0.0, 0.0), 25.0),
        ClusterSpec("europe", 0.40, (95.0, 10.0), 22.0),
    ),
    "five_cluster": (
        ClusterSpec("na-east", 0.22, (0.0, 0.0), 15.0),
        ClusterSpec("na-west", 0.18, (35.0, -8.0), 14.0),
        ClusterSpec("europe", 0.25, (90.0, 15.0), 16.0),
        ClusterSpec("asia", 0.15, (170.0, 70.0), 20.0),
        ClusterSpec("south-america", 0.10, (20.0, 80.0), 18.0),
    ),
    "ring": tuple(
        ClusterSpec(
            f"ring-{k}",
            0.15,
            (
                80.0 + 80.0 * math.cos(2.0 * math.pi * k / 6.0),
                40.0 + 80.0 * math.sin(2.0 * math.pi * k / 6.0),
            ),
            12.0,
        )
        for k in range(6)
    ),
    "flat": (),
}


def _tiv_level_config(level: str, config: SyntheticSpaceConfig) -> SyntheticSpaceConfig:
    """Scale the preset's TIV-injection knobs to the requested level."""
    if level == "none":
        return replace(config, tiv_edge_fraction=0.0)
    if level == "light":
        return replace(
            config,
            tiv_edge_fraction=config.tiv_edge_fraction * 0.5,
            inflation_scale=config.inflation_scale * 0.75,
        )
    if level == "heavy":
        return replace(
            config,
            tiv_edge_fraction=min(0.6, config.tiv_edge_fraction * 1.8),
            inflation_shape=max(1.25, config.inflation_shape - 0.5),
            inflation_scale=config.inflation_scale * 1.25,
            max_inflation=config.max_inflation * 1.5,
        )
    return config


def scenario_space_config(
    scenario: Scenario, base: SyntheticSpaceConfig, n_nodes: int
) -> SyntheticSpaceConfig:
    """The synthetic-space configuration a scenario turns ``base`` into."""
    config = replace(base, n_nodes=int(n_nodes))
    clusters = TOPOLOGIES[scenario.topology]
    if clusters is not None:
        config = replace(config, clusters=clusters)
    config = _tiv_level_config(scenario.tiv_level, config)
    if scenario.access_model == "powerlaw":
        config = replace(config, access_delay_distribution="pareto")
    return config


def _perturbation_rng(seed: int) -> np.random.Generator:
    """Perturbation random stream, independent of the generation stream.

    The middle seed word is a literal ``0``, so the stream stays
    bit-identical to the one that produced the artifacts already cached
    under the same addresses.
    """
    return np.random.default_rng([abs(int(seed)) & 0xFFFFFFFF, 0, 0x5C3A])


def _churned_count(scenario: Scenario, n_nodes: int) -> int:
    """Nodes to over-generate so ``n_nodes`` survive the churn snapshot."""
    if scenario.churn <= 0:
        return int(n_nodes)
    return max(int(n_nodes) + 1, math.ceil(n_nodes / (1.0 - scenario.churn)))


def apply_perturbations(
    scenario: Scenario,
    matrix: DelayMatrix,
    clusters: np.ndarray,
    *,
    n_nodes: int,
    rng: np.random.Generator,
) -> tuple[DelayMatrix, np.ndarray]:
    """Apply the post-generation perturbations of ``scenario``.

    ``matrix`` may be over-provisioned (see :func:`_churned_count`); the
    returned matrix always has exactly ``n_nodes`` nodes.
    """
    values = matrix.values.copy()
    assignment = np.asarray(clusters)

    if scenario.churn > 0:
        survivors = np.sort(rng.choice(values.shape[0], size=int(n_nodes), replace=False))
        values = values[np.ix_(survivors, survivors)]
        assignment = assignment[survivors]

    n = values.shape[0]
    iu = np.triu_indices(n, k=1)

    if scenario.asymmetry > 0:
        # Per-NODE directional bias (an asymmetric access link slows one
        # direction of every path through the node), averaged back into the
        # RTT.  Unlike extra_jitter — iid per edge — this correlates the
        # perturbation across all edges of a node, shifting whole severity
        # neighbourhoods rather than individual measurements.
        bias = rng.normal(0.0, scenario.asymmetry, size=n)
        noise = (bias[iu[0]] + bias[iu[1]]) / 2.0
        noise = np.clip(noise, -3 * scenario.asymmetry, 3 * scenario.asymmetry)
        values[iu] *= 1.0 + noise

    if scenario.extra_jitter > 0:
        noise = rng.normal(0.0, scenario.extra_jitter, size=iu[0].size)
        noise = np.clip(noise, -3 * scenario.extra_jitter, 3 * scenario.extra_jitter)
        values[iu] *= 1.0 + noise

    if scenario.rescale != 1.0:
        values[iu] *= scenario.rescale

    with np.errstate(invalid="ignore"):
        values[iu] = np.maximum(values[iu], 1e-3)

    if scenario.dropout > 0:
        measured = np.flatnonzero(np.isfinite(values[iu]))
        n_drop = int(round(scenario.dropout * measured.size))
        if n_drop:
            chosen = measured[rng.choice(measured.size, size=n_drop, replace=False)]
            values[(iu[0][chosen], iu[1][chosen])] = np.nan

    values[(iu[1], iu[0])] = values[iu]
    np.fill_diagonal(values, 0.0)
    return DelayMatrix(values, symmetrize=False), assignment


def load_scenario_dataset(
    scenario: Scenario | None,
    preset_name: str,
    n_nodes: int,
    seed: int,
) -> tuple[DelayMatrix, np.ndarray]:
    """Materialise ``preset_name`` at ``n_nodes`` under ``scenario``.

    With ``scenario=None`` (or a no-op scenario) this is exactly
    :func:`repro.delayspace.datasets.load_dataset`, so baseline scenario
    artefacts share cache entries with plain runs.
    """
    preset = get_preset(preset_name)
    count = int(n_nodes)

    if scenario is None or scenario.is_noop:
        return load_dataset(preset_name, n_nodes=count, rng=seed, return_clusters=True)

    generated_count = _churned_count(scenario, count)
    if preset.euclidean or preset.config is None:
        # Euclidean presets have no synthetic-space configuration: the
        # pre-generation dimensions are no-ops and only the perturbations
        # apply (the space stays TIV-free unless a perturbation breaks it).
        matrix = euclidean_delay_space(generated_count, rng=seed)
        clusters = np.zeros(generated_count, dtype=int)
    else:
        config = scenario_space_config(scenario, preset.config, generated_count)
        matrix, clusters = clustered_delay_space(config, rng=seed, return_clusters=True)
    return apply_perturbations(
        scenario,
        matrix,
        clusters,
        n_nodes=count,
        rng=_perturbation_rng(seed),
    )
