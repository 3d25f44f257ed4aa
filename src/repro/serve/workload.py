"""Workload specification and warm-state construction for ``repro serve-bench``.

A :class:`ServingWorkload` is a frozen, validated description of one
serving benchmark: how the warm state is built (trace preset, node count,
seed, warm-up duration, churn) and what is fired at it (query families,
execution modes, batch size, batch count).  Identical
workloads produce identical warm state and identical query streams, so
two runs differ only in timing.

The warm context pairs a :class:`~repro.stream.service.StreamCoordinateService`
that has replayed the full synthetic trace (so its embedding, edge memory
and severity estimates are all live) with a
:class:`~repro.meridian.overlay.MeridianOverlay` over the same ground
truth (even indices serve as Meridian nodes, odd indices as targets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ServeError

#: Query families the load generator knows how to fire.
FAMILIES = ("closest", "distance", "tiv_alert", "meridian_closest")

#: Execution modes: ``batched`` uses the vectorised batch entry points,
#: ``scalar`` answers the same queries one call at a time.
MODES = ("batched", "scalar")


@dataclass(frozen=True)
class ServingWorkload:
    """One serving benchmark: warm-state recipe plus query mix.

    Attributes
    ----------
    n_nodes, seed, preset, scenario:
        Ground truth of the warm trace (same generator layer as
        ``repro make-trace``).
    warm_duration, rate, churn:
        Trace shape: simulated seconds of measurement traffic replayed
        into the service before any query is timed, probe rate, and the
        fraction of nodes that leave and rejoin mid-warm-up (exercising
        slot reuse on the serving path).
    families, modes:
        Which query families and execution modes to measure.
    batch:
        Queries per generated batch (the batched mode's vector width).
    batches, warmup_batches:
        Timed batches per (family, mode) and untimed warm-up batches
        before them.
    k:
        Neighbours returned per closest-node query.
    """

    n_nodes: int = 96
    seed: int = 0
    preset: str = "ds2_like"
    scenario: str | None = None
    warm_duration: float = 30.0
    rate: int = 1
    churn: float = 0.0
    families: tuple[str, ...] = FAMILIES
    modes: tuple[str, ...] = MODES
    batch: int = 64
    batches: int = 8
    warmup_batches: int = 1
    k: int = 3

    def __post_init__(self) -> None:
        if self.n_nodes < 8:
            raise ServeError("n_nodes must be >= 8 (the overlay needs Meridian nodes)")
        if self.warm_duration <= 0:
            raise ServeError("warm_duration must be > 0")
        if self.rate < 1:
            raise ServeError("rate must be >= 1")
        if not 0 <= self.churn < 1:
            raise ServeError("churn must lie in [0, 1)")
        if self.batch < 1:
            raise ServeError("batch must be >= 1")
        if self.batches < 1:
            raise ServeError("batches must be >= 1")
        if self.warmup_batches < 0:
            raise ServeError("warmup_batches must be >= 0")
        if self.k < 1:
            raise ServeError("k must be >= 1")
        object.__setattr__(self, "families", _validated(self.families, FAMILIES, "family"))
        object.__setattr__(self, "modes", _validated(self.modes, MODES, "mode"))

    def as_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "seed": self.seed,
            "preset": self.preset,
            "scenario": self.scenario,
            "warm_duration": self.warm_duration,
            "rate": self.rate,
            "churn": self.churn,
            "families": list(self.families),
            "modes": list(self.modes),
            "batch": self.batch,
            "batches": self.batches,
            "warmup_batches": self.warmup_batches,
            "k": self.k,
        }


def _validated(tokens: Sequence[str], allowed: tuple[str, ...], kind: str) -> tuple[str, ...]:
    names = tuple(dict.fromkeys(str(token) for token in tokens))
    if not names:
        raise ServeError(f"at least one {kind} is required")
    for name in names:
        if name not in allowed:
            raise ServeError(f"unknown {kind} {name!r}; expected one of {allowed}")
    return names


@dataclass(frozen=True)
class WarmContext:
    """The live state a workload's queries are answered from."""

    service: object  # StreamCoordinateService
    overlay: object  # MeridianOverlay
    meridian_ids: tuple[int, ...]
    meridian_targets: tuple[int, ...]
    active_nodes: tuple[int, ...]
    observed_edges: tuple[tuple[int, int], ...] = field(repr=False)


def build_warm_context(workload: ServingWorkload) -> WarmContext:
    """Build the warm service + overlay a workload queries against.

    The service replays a full synthetic trace (joins, churn,
    ``warm_duration`` seconds of measurements), so every query runs
    against a realistically converged embedding with live edge memory.
    The Meridian overlay shares the trace's ground-truth matrix; even
    indices act as Meridian nodes and odd indices as query targets,
    mirroring the PR 4 benchmark split.
    """
    from repro.delayspace.matrix import DelayMatrix
    from repro.meridian.overlay import MeridianOverlay
    from repro.stream.service import StreamCoordinateService
    from repro.stream.synth import synthesize_trace

    trace = synthesize_trace(
        preset=workload.preset,
        n_nodes=workload.n_nodes,
        seed=workload.seed,
        scenario=workload.scenario,
        duration=workload.warm_duration,
        rate=workload.rate,
        churn=workload.churn,
    )
    service = StreamCoordinateService(rng=workload.seed)
    for event in trace.events:
        service.apply(event)

    matrix = DelayMatrix(trace.ground_truth)
    meridian_ids = tuple(range(0, matrix.n_nodes, 2))
    meridian_targets = tuple(node for node in range(matrix.n_nodes) if node % 2)
    overlay = MeridianOverlay(matrix, meridian_ids, rng=workload.seed + 1)

    active = tuple(service.active_nodes())
    edges = tuple(service.observed_edges())
    if len(active) < 2:
        raise ServeError("warm trace left fewer than 2 active nodes; nothing to query")
    if not edges:
        raise ServeError("warm trace recorded no edges; TIV-alert queries are impossible")
    return WarmContext(
        service=service,
        overlay=overlay,
        meridian_ids=meridian_ids,
        meridian_targets=meridian_targets,
        active_nodes=active,
        observed_edges=edges,
    )


def generate_query_batches(
    workload: ServingWorkload, context: WarmContext, family: str
) -> list[list]:
    """The deterministic query stream of one family.

    Returns ``warmup_batches + batches`` batches of ``batch`` queries
    each, drawn from a dedicated RNG stream so the batched and scalar
    modes answer byte-identical query sequences.
    """
    if family not in FAMILIES:
        raise ServeError(f"unknown family {family!r}; expected one of {FAMILIES}")
    rng = np.random.default_rng(
        [abs(int(workload.seed)) & 0xFFFFFFFF, 0x5E2F, FAMILIES.index(family)]
    )
    total = workload.warmup_batches + workload.batches
    size = workload.batch
    batches: list[list] = []
    active = context.active_nodes
    for _ in range(total):
        if family == "closest":
            picks = rng.integers(0, len(active), size=size)
            batches.append([int(active[p]) for p in picks])
        elif family == "distance":
            picks = rng.integers(0, len(active), size=(size, 2))
            batches.append(
                [(int(active[a]), int(active[b])) for a, b in picks]
            )
        elif family == "tiv_alert":
            picks = rng.integers(0, len(context.observed_edges), size=size)
            batches.append([context.observed_edges[p] for p in picks])
        else:  # meridian_closest
            # The whole batch enters the overlay at one front-end node, as
            # a real deployment's ingress would — which is also what lets
            # the batch query actually share its ring gathers.
            t_picks = rng.integers(0, len(context.meridian_targets), size=size)
            start = int(context.meridian_ids[rng.integers(0, len(context.meridian_ids))])
            batches.append(
                [(int(context.meridian_targets[t]), start) for t in t_picks]
            )
    return batches
