"""Declarative artifact-node registry.

Every expensive intermediate of the experiment harness — a synthetic delay
matrix, its TIV severities, all-pairs shortest paths, each embedding, the
TIV alert, the strawman embeddings, the simulation runs of Figs. 11, 13 and
22–23 — is registered here as an :class:`ArtifactNode`: a declaration of
the artifact's cache kind, its dependencies on other artifacts, the
parameters that content-address it, and the functions that compute,
persist and restore it.

The declarations are the single source of truth for the dependency
structure (dataset → severity/clusters/shortest paths, dataset →
vivaldi/ides/oscillation/misplacement/dynamic, vivaldi → lat/alert):

* :class:`~repro.experiments.context.ExperimentContext` materialises
  artifacts by looking nodes up here (it carries no per-kind plumbing);
* :func:`repro.artifacts.graph.resolve_plan` closes figure requirements
  over the declared dependencies into a schedulable DAG;
* ``repro cache prune`` uses the declared kinds and parameter eras to
  decide which on-disk entries still correspond to a live node.

**Cache-address compatibility** is a hard contract of this module: every
``params`` function reproduces, byte for byte, the addresses the pre-graph
``ExperimentContext`` methods produced (``_matrix_params``,
``_embedding_params``, ``_ides_params``, ``_lat_params``), so warm caches
written by earlier releases keep hitting.  A node whose stored values
change gets a new address through a declared era parameter (the alert's
``sum_order``).

Nodes are parameterised by an *instance* tuple: ``("ds2_like", 240)`` for a
dataset/severity variant, ``()`` for the singletons bound to the
configuration's main dataset.  An :class:`ArtifactKey` is the pair of node
name and instance — the unit the scheduler works in.

"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ExperimentError

#: One-second steps fig11 tracks once its embedding has warmed up.
OSCILLATION_STEPS = 200
#: fig13's Meridian acceptance thresholds, and the (Ni, Nj) pairs it samples.
MISPLACEMENT_BETAS = (0.1, 0.5, 0.9)
MISPLACEMENT_PAIRS = 40_000
#: Refinement periods of fig22_23's dynamic-neighbour run, after the first one.
DYNAMIC_ITERATIONS = 5

#: Values the kernel parameters of live addresses may take.  Every
#: system has one kernel, so entries carrying any other value
#: (``"reference"`` entries written while runs could pick a kernel)
#: or missing a declared era parameter entirely belong to a retired kernel
#: era and are eligible for ``repro cache prune``.
KNOWN_KERNELS = ("batched",)
#: The summation order of the alert's stored predicted delays: entries
#: written while ``pairwise_distances`` summed in axis order lack it.
SUM_ORDERS = ("two-lane",)


@dataclass(frozen=True, order=True)
class ArtifactKey:
    """One schedulable artifact: a node name plus its instance tuple."""

    node: str
    instance: tuple = ()

    @property
    def label(self) -> str:
        """Human-readable form used in reports and the ``repro graph`` CLI."""
        if not self.instance:
            return self.node
        return f"{self.node}[{','.join(str(part) for part in self.instance)}]"


@dataclass(frozen=True)
class ArtifactNode:
    """Declaration of one artifact family.

    Attributes
    ----------
    name:
        Logical node name (``"dataset"``, ``"vivaldi"``, ...).
    kind:
        On-disk cache kind — the subdirectory of the artifact cache.  Kept
        identical to the pre-graph cache layout so existing caches hit.
    deps:
        ``deps(ctx, instance) -> tuple[ArtifactKey, ...]``: the artifacts
        this one needs, for the given context (the context supplies the
        configuration's main dataset instance).
    params:
        ``params(ctx, instance) -> dict``: the parameters that fully
        determine the artifact — its cache address.
    compute:
        ``compute(ctx, instance) -> value``: build the artifact from its
        dependencies (accessed through the context, which resolves them
        recursively).
    restore:
        ``restore(ctx, instance, entry) -> value``: rebuild the artifact
        from a loaded :class:`~repro.experiments.cache.CacheEntry`.
    payload:
        ``payload(value) -> (arrays, meta)``: what to persist.
    era_params:
        Parameter keys a *live* cache entry of this kind must carry, mapped
        to their allowed values (``None`` = any value).  ``repro cache
        prune`` evicts entries that predate these parameters or carry
        retired values.
    """

    name: str
    kind: str
    deps: Callable[[Any, tuple], tuple[ArtifactKey, ...]]
    params: Callable[[Any, tuple], dict]
    compute: Callable[[Any, tuple], Any]
    restore: Callable[[Any, tuple, Any], Any]
    payload: Callable[[Any], tuple[dict, dict]]
    era_params: Mapping[str, tuple[str, ...] | None] = field(default_factory=dict)


def _main_instance(ctx) -> tuple:
    """The configuration's main dataset instance (preset, node count)."""
    return (ctx.config.dataset, int(ctx.config.n_nodes))


def _no_deps(ctx, instance) -> tuple[ArtifactKey, ...]:
    return ()


# -- parameter functions (bit-compatible with the pre-graph addresses) --------


def _dataset_params(ctx, instance) -> dict:
    preset, n_nodes = instance
    params = {"preset": preset, "n_nodes": int(n_nodes), "seed": ctx.config.seed}
    # A (non-no-op) scenario changes the generated matrices, so it is part
    # of their content address; a no-op scenario — and the plain
    # scenario-free harness — keep the original address and therefore
    # share cache entries.
    if ctx.scenario is not None and not ctx.scenario.is_noop:
        params["scenario"] = ctx.scenario.cache_params()
    return params


def _main_dataset_params(ctx, instance) -> dict:
    return _dataset_params(ctx, _main_instance(ctx))


def _embedding_params(ctx, instance) -> dict:
    """Parameters that fully determine the Vivaldi embedding (LAT and the alert extend them).

    Deliberately narrower than the full config fingerprint: selection and
    Meridian knobs (``max_clients``, ``selection_runs``, ...) never enter
    the embedding, so changing them must not invalidate the most expensive
    cached artifacts.
    """
    params = {
        "preset": ctx.config.dataset,
        "n_nodes": ctx.config.n_nodes,
        "seed": ctx.config.seed,
        "vivaldi_seconds": ctx.config.vivaldi_seconds,
        # The embedding has one kernel, but its name stays in the address:
        # it follows a different per-seed stream than the retired scalar
        # loop, so entries written by pre-kernel versions of this code must
        # read as misses, not as stale hits.
        "kernel": "batched",
    }
    if ctx.scenario is not None and not ctx.scenario.is_noop:
        params["scenario"] = ctx.scenario.cache_params()
    return params


def _alert_params(ctx, instance) -> dict:
    """The embedding's address plus the summation order of its predicted delays."""
    params = _embedding_params(ctx, instance)
    params["sum_order"] = "two-lane"
    return params


def _ides_params(ctx, instance) -> dict:
    """IDES never touches the Vivaldi embedding: dataset address + kernel."""
    params = _dataset_params(ctx, _main_instance(ctx))
    params["kernel"] = "batched"
    return params


def _lat_params(ctx, instance) -> dict:
    """LAT adjusts the converged Vivaldi coordinates, so everything that
    addresses the embedding addresses LAT too; the coords kernel joins on
    top because LAT's sampling follows a different per-seed stream than the
    retired per-node loop's."""
    params = _embedding_params(ctx, instance)
    params["coords_kernel"] = "batched"
    return params


def _warmup_params(ctx, instance) -> dict:
    """Dataset address plus the warm-up length (fig11's and fig22_23's runs)."""
    params = _main_dataset_params(ctx, instance)
    params["vivaldi_seconds"] = ctx.config.vivaldi_seconds
    return params


# -- compute / restore / payload ----------------------------------------------


def _compute_dataset(ctx, instance):
    from repro.scenarios.generators import load_scenario_dataset

    preset, n_nodes = instance
    matrix, clusters = load_scenario_dataset(
        ctx.scenario, preset, int(n_nodes), ctx.config.seed
    )
    return matrix, np.asarray(clusters)


def _restore_dataset(ctx, instance, entry):
    from repro.delayspace.matrix import DelayMatrix

    return (
        DelayMatrix(entry.arrays["delays"], labels=entry.meta["labels"], symmetrize=False),
        entry.arrays["clusters"],
    )


def _payload_dataset(value):
    matrix, clusters = value
    return (
        {"delays": matrix.values, "clusters": np.asarray(clusters)},
        {"labels": list(matrix.labels)},
    )


def _dataset_dep(ctx, instance) -> tuple[ArtifactKey, ...]:
    """The one dataset an instance-keyed artifact (severity) is derived from."""
    return (ArtifactKey("dataset", instance),)


def _compute_severity(ctx, instance):
    from repro.tiv.severity import compute_tiv_severity

    preset, n_nodes = instance
    return compute_tiv_severity(ctx.dataset_matrix(preset, int(n_nodes)))


def _restore_severity(ctx, instance, entry):
    from repro.tiv.severity import TIVSeverityResult

    return TIVSeverityResult(
        severity=entry.arrays["severity"],
        violation_counts=entry.arrays["violation_counts"],
        n_nodes=int(entry.meta["n_nodes"]),
    )


def _payload_severity(value):
    return (
        {"severity": value.severity, "violation_counts": value.violation_counts},
        {"n_nodes": value.n_nodes},
    )


def _compute_clusters(ctx, instance):
    from repro.delayspace.clustering import classify_major_clusters

    return classify_major_clusters(ctx.matrix)


def _restore_clusters(ctx, instance, entry):
    from repro.delayspace.clustering import ClusterAssignment

    return ClusterAssignment(
        labels=entry.arrays["labels"].astype(int),
        n_clusters=int(entry.meta["n_clusters"]),
        cluster_radius=float(entry.meta["cluster_radius"]),
        heads=tuple(int(h) for h in entry.meta["heads"]),
    )


def _payload_clusters(value):
    return (
        {"labels": value.labels},
        {
            "n_clusters": value.n_clusters,
            "cluster_radius": value.cluster_radius,
            "heads": list(value.heads),
        },
    )


def _compute_shortest(ctx, instance):
    from repro.delayspace.shortest_path import shortest_path_matrix

    return shortest_path_matrix(ctx.matrix)


def _restore_shortest(ctx, instance, entry):
    return entry.arrays["shortest"]


def _payload_shortest(value):
    return {"shortest": value}, {}


def _build_vivaldi_system(ctx):
    from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem

    return VivaldiSystem(ctx.matrix, VivaldiConfig(), rng=ctx.config.seed + 1)


def _compute_vivaldi(ctx, instance):
    system = _build_vivaldi_system(ctx)
    system.run(ctx.config.vivaldi_seconds)
    return system


def _restore_vivaldi(ctx, instance, entry):
    system = _build_vivaldi_system(ctx)
    system.restore_state(
        entry.arrays["coordinates"],
        entry.arrays["errors"],
        float(entry.meta["simulation_time"]),
    )
    return system


def _payload_vivaldi(value):
    return (
        {"coordinates": value.coordinates, "errors": value.errors},
        {"simulation_time": value.simulation_time},
    )


def _compute_alert(ctx, instance):
    from repro.core.alert import TIVAlert

    return TIVAlert(ctx.matrix, ctx.vivaldi)


def _restore_alert(ctx, instance, entry):
    from repro.core.alert import TIVAlert

    return TIVAlert.from_ratio_matrix(
        ctx.matrix, entry.arrays["ratios"], entry.arrays["predicted"]
    )


def _payload_alert(value):
    return {"ratios": value.ratio_matrix, "predicted": value.predicted_matrix}, {}


def _compute_ides(ctx, instance):
    from repro.coords.ides import IDESConfig, fit_ides

    # The landmark budget is 0.5 % of the nodes (at least 6), matching a
    # real IDES deployment's ~20 landmarks for a few thousand hosts.
    n_landmarks = max(6, round(0.005 * ctx.matrix.n_nodes))
    return fit_ides(
        ctx.matrix,
        IDESConfig(n_landmarks=n_landmarks),
        rng=ctx.config.seed,
    )


def _restore_ides(ctx, instance, entry):
    from repro.coords.ides import IDESCoordinates

    return IDESCoordinates(
        entry.arrays["outgoing"],
        entry.arrays["incoming"],
        landmarks=[int(i) for i in entry.meta["landmarks"]],
    )


def _payload_ides(value):
    return (
        {"outgoing": value.outgoing, "incoming": value.incoming},
        {"landmarks": list(value.landmarks)},
    )


def _compute_lat(ctx, instance):
    from repro.coords.lat import fit_lat

    return fit_lat(ctx.vivaldi, rng=ctx.config.seed)


def _restore_lat(ctx, instance, entry):
    from repro.coords.lat import LATCoordinates

    return LATCoordinates(entry.arrays["coordinates"], entry.arrays["adjustments"])


def _payload_lat(value):
    return {"coordinates": value.coordinates, "adjustments": value.adjustments}, {}


def _compute_oscillation(ctx, instance):
    from repro.coords.simulation import VivaldiSimulation
    from repro.coords.vivaldi import VivaldiConfig

    sim = VivaldiSimulation(ctx.matrix, VivaldiConfig(), rng=ctx.config.seed + 3)
    # Let the embedding reach steady state before measuring oscillation.
    sim.system.run(ctx.config.vivaldi_seconds)
    return sim.run(OSCILLATION_STEPS, track_oscillation=True, track_movement=True)


#: The trace fields fig11's run fills (it tracks no single edge's error).
_TRACE_ARRAYS = ("times", "oscillation_range", "edge_delays", "movement_speeds")


def _restore_oscillation(ctx, instance, entry):
    from repro.coords.simulation import EmbeddingTrace

    return EmbeddingTrace(edge_errors={}, **{name: entry.arrays[name] for name in _TRACE_ARRAYS})


def _payload_oscillation(value):
    return {name: getattr(value, name) for name in _TRACE_ARRAYS}, {}


def _compute_misplacement(ctx, instance):
    from repro.meridian.analysis import pair_misplacement

    fractions = {}
    for beta in MISPLACEMENT_BETAS:
        # One seed draws the same pairs for every beta, so one delay
        # column serves them all.
        delays, fractions[beta] = pair_misplacement(
            ctx.matrix, beta=beta, max_pairs=MISPLACEMENT_PAIRS, rng=ctx.config.seed
        )
    return delays, fractions


def _restore_misplacement(ctx, instance, entry):
    return (
        entry.arrays["delays"],
        dict(zip(entry.meta["betas"], entry.arrays["fractions"])),
    )


def _payload_misplacement(value):
    delays, fractions = value
    return (
        {"delays": delays, "fractions": np.stack(list(fractions.values()))},
        {"betas": list(fractions)},
    )


def _compute_dynamic(ctx, instance):
    from repro.core.dynamic_vivaldi import DynamicNeighborVivaldi, DynamicVivaldiConfig

    dynamic = DynamicNeighborVivaldi(
        ctx.matrix,
        DynamicVivaldiConfig(period=ctx.config.vivaldi_seconds),
        rng=ctx.config.seed + 8,
    )
    return dynamic.run(DYNAMIC_ITERATIONS)


def _restore_dynamic(ctx, instance, entry):
    from repro.coords.vivaldi import pairwise_distances
    from repro.core.dynamic_vivaldi import DynamicVivaldiIteration

    # Each snapshot's predicted matrix is a function of its coordinates.
    return [
        DynamicVivaldiIteration(
            iteration=index,
            neighbor_lists=neighbors.tolist(),
            coordinates=coordinates,
            predicted=pairwise_distances(coordinates),
        )
        for index, (neighbors, coordinates) in enumerate(
            zip(entry.arrays["neighbors"], entry.arrays["coordinates"])
        )
    ]


def _payload_dynamic(value):
    return (
        {
            "neighbors": np.array([snapshot.neighbor_lists for snapshot in value]),
            "coordinates": np.stack([snapshot.coordinates for snapshot in value]),
        },
        {},
    )


# -- the registry -------------------------------------------------------------


def _main_dataset_dep(ctx, instance) -> tuple[ArtifactKey, ...]:
    return (ArtifactKey("dataset", _main_instance(ctx)),)


def _embedding_chain_deps(ctx, instance) -> tuple[ArtifactKey, ...]:
    """Dependencies of the artifacts derived from the converged embedding.

    Alert and LAT both consume the Vivaldi embedding; the matrix is
    declared explicitly too because restoring/recomputing either needs it
    even when the embedding itself is served from cache.
    """
    return (ArtifactKey("dataset", _main_instance(ctx)), ArtifactKey("vivaldi"))


_NODES: dict[str, ArtifactNode] = {}


def register_node(node: ArtifactNode) -> ArtifactNode:
    """Register an artifact node (its name and kind must be unused)."""
    if node.name in _NODES:
        raise ExperimentError(f"artifact node {node.name!r} is already registered")
    if any(existing.kind == node.kind for existing in _NODES.values()):
        raise ExperimentError(
            f"artifact cache kind {node.kind!r} is already registered "
            "(each kind maps to exactly one node)"
        )
    _NODES[node.name] = node
    return node


def get_node(name: str) -> ArtifactNode:
    """Look one artifact node up by name."""
    try:
        return _NODES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown artifact node {name!r}; registered: {', '.join(_NODES)}"
        ) from None


def node_kinds() -> dict[str, ArtifactNode]:
    """Registered nodes keyed by their on-disk cache kind."""
    return {node.kind: node for node in _NODES.values()}


for _node in (
    ArtifactNode(
        name="dataset",
        kind="dataset",
        deps=_no_deps,
        params=_dataset_params,
        compute=_compute_dataset,
        restore=_restore_dataset,
        payload=_payload_dataset,
    ),
    ArtifactNode(
        name="severity",
        kind="severity",
        deps=_dataset_dep,
        params=_dataset_params,
        compute=_compute_severity,
        restore=_restore_severity,
        payload=_payload_severity,
    ),
    ArtifactNode(
        name="clusters",
        kind="clusters",
        deps=_main_dataset_dep,
        params=_main_dataset_params,
        compute=_compute_clusters,
        restore=_restore_clusters,
        payload=_payload_clusters,
    ),
    ArtifactNode(
        name="shortest",
        kind="shortest_path",
        deps=_main_dataset_dep,
        params=_main_dataset_params,
        compute=_compute_shortest,
        restore=_restore_shortest,
        payload=_payload_shortest,
    ),
    ArtifactNode(
        name="vivaldi",
        kind="vivaldi",
        deps=_main_dataset_dep,
        params=_embedding_params,
        compute=_compute_vivaldi,
        restore=_restore_vivaldi,
        payload=_payload_vivaldi,
        era_params={"kernel": KNOWN_KERNELS},
    ),
    ArtifactNode(
        name="alert",
        kind="alert",
        deps=_embedding_chain_deps,
        params=_alert_params,
        compute=_compute_alert,
        restore=_restore_alert,
        payload=_payload_alert,
        era_params={"kernel": KNOWN_KERNELS, "sum_order": SUM_ORDERS},
    ),
    ArtifactNode(
        name="ides",
        kind="ides",
        deps=_main_dataset_dep,
        params=_ides_params,
        compute=_compute_ides,
        restore=_restore_ides,
        payload=_payload_ides,
        era_params={"kernel": KNOWN_KERNELS},
    ),
    ArtifactNode(
        name="lat",
        kind="lat",
        deps=_embedding_chain_deps,
        params=_lat_params,
        compute=_compute_lat,
        restore=_restore_lat,
        payload=_payload_lat,
        era_params={"kernel": KNOWN_KERNELS, "coords_kernel": KNOWN_KERNELS},
    ),
    ArtifactNode(
        name="oscillation",
        kind="oscillation",
        deps=_main_dataset_dep,
        params=_warmup_params,
        compute=_compute_oscillation,
        restore=_restore_oscillation,
        payload=_payload_oscillation,
    ),
    ArtifactNode(
        name="misplacement",
        kind="misplacement",
        deps=_main_dataset_dep,
        params=_main_dataset_params,
        compute=_compute_misplacement,
        restore=_restore_misplacement,
        payload=_payload_misplacement,
    ),
    ArtifactNode(
        name="dynamic",
        kind="dynamic",
        deps=_main_dataset_dep,
        params=_warmup_params,
        compute=_compute_dynamic,
        restore=_restore_dynamic,
        payload=_payload_dynamic,
    ),
):
    register_node(_node)


# -- figure requirements ------------------------------------------------------

#: Tokens that name a node bound to the main dataset, instance ``()``.
_SINGLETONS = (
    "clusters",
    "shortest",
    "vivaldi",
    "alert",
    "ides",
    "lat",
    "oscillation",
    "misplacement",
    "dynamic",
)
#: Requirement tokens a figure runner may declare.  Most name an artifact
#: node directly; ``"matrix"`` is the main dataset, ``"datasets"`` the four
#: scaled measured-data presets plus their severities (Figs. 2, 4-7, 9) and
#: ``"euclidean"`` the TIV-free Fig. 14 baseline.
REQUIREMENTS = frozenset({"matrix", "severity", "datasets", "euclidean", *_SINGLETONS})


def requirement_keys(ctx, token: str) -> tuple[ArtifactKey, ...]:
    """Expand one requirement token into concrete artifact keys."""
    if token == "matrix":
        return (ArtifactKey("dataset", _main_instance(ctx)),)
    if token == "severity":
        return (ArtifactKey("severity", _main_instance(ctx)),)
    if token in _SINGLETONS:
        return (ArtifactKey(token),)
    if token == "datasets":
        from repro.experiments.tiv_figures import DATASET_PRESETS, dataset_sizes

        sizes = dataset_sizes(ctx.config)
        keys: list[ArtifactKey] = []
        for name, preset in DATASET_PRESETS.items():
            instance = (preset, int(sizes[name]))
            keys.append(ArtifactKey("dataset", instance))
            keys.append(ArtifactKey("severity", instance))
        return tuple(keys)
    if token == "euclidean":
        return (ArtifactKey("dataset", ("euclidean_like", int(ctx.config.n_nodes))),)
    raise ExperimentError(
        f"unknown artifact requirement {token!r}; known: {', '.join(sorted(REQUIREMENTS))}"
    )
