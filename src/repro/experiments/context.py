"""The experiment context: a thin view over artifact-graph resolution.

Several figures need the same expensive intermediates — the DS²-like delay
matrix, its TIV severities, the all-pairs shortest-path matrix, a converged
Vivaldi embedding, the TIV alert and the strawman embeddings.  What each of
them *is* (dependencies, cache address, compute/restore functions) is
declared once in :mod:`repro.artifacts.nodes`; :class:`ExperimentContext`
only executes those declarations: :meth:`materialize` resolves one
:class:`~repro.artifacts.nodes.ArtifactKey` through the in-memory memo, the
optional on-disk :class:`~repro.experiments.cache.ArtifactCache`, and
finally the node's compute function (which pulls its dependencies back
through the context, recursively).

Every materialisation is recorded as an :class:`ArtifactEvent` (self
wall-clock seconds, computed vs restored, cache address) — the engine
drains these into the per-artifact section of ``BENCH_experiments.json``.

The configuration's ``scenario`` field is a first-class dimension here:
when set, every dataset load routes through the scenario generator layer
(:mod:`repro.scenarios.generators`) and the scenario's knobs join the
cache address, so different scenarios never collide while the no-op
baseline scenario shares artifacts with plain runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.artifacts.nodes import ArtifactKey, get_node
from repro.experiments.cache import ArtifactCache, stable_key
from repro.experiments.config import ExperimentConfig


@dataclass(frozen=True)
class ArtifactEvent:
    """One artifact materialisation (restored or computed)."""

    artifact: str
    node: str
    kind: str
    address: str
    wall_seconds: float
    outcome: str  # "computed" | "restored"

    def as_dict(self) -> dict[str, Any]:
        return {
            "artifact": self.artifact,
            "node": self.node,
            "kind": self.kind,
            "address": self.address,
            "wall_seconds": round(self.wall_seconds, 6),
            "outcome": self.outcome,
        }


class ExperimentContext:
    """Shared, lazily materialised artifacts for one :class:`ExperimentConfig`.

    Parameters
    ----------
    config:
        The experiment configuration; defaults to the scaled-down defaults.
    cache:
        Optional on-disk artifact cache.  When given, every artifact is
        loaded from / stored to the cache in addition to the in-memory
        memoisation, making repeated and multi-process runs incremental.
    """

    @classmethod
    def resolve(
        cls,
        config: ExperimentConfig | None = None,
        context: "ExperimentContext | None" = None,
    ) -> "ExperimentContext":
        """The shared ``context`` when one is given, else a fresh one for ``config``.

        Every figure runner accepts ``(config, *, context)``; this is the
        single place that implements the precedence (an explicit context
        carries its own configuration and wins).
        """
        if context is not None:
            return context
        return cls(config)

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        cache: ArtifactCache | None = None,
    ):
        self.config = config if config is not None else ExperimentConfig()
        self.cache = cache
        # Resolve the scenario dimension eagerly so an unknown name fails at
        # construction, not mid-sweep inside a worker process.
        if self.config.scenario is not None:
            from repro.scenarios.library import get_scenario

            self.scenario = get_scenario(self.config.scenario)
        else:
            self.scenario = None
        self._values: dict[ArtifactKey, Any] = {}
        self._events: list[ArtifactEvent] = []
        # Per-frame accumulator of time spent materialising nested
        # dependencies, so each event reports *self* seconds, not the whole
        # subtree (the scheduler already accounts dependencies separately).
        self._child_seconds: list[float] = []

    # -- graph resolution ------------------------------------------------------

    def _main_instance(self) -> tuple:
        from repro.artifacts.nodes import _main_instance

        return _main_instance(self)

    def artifact_params(self, key: ArtifactKey) -> dict:
        """The cache-address parameters of ``key`` under this context."""
        node = get_node(key.node)
        return node.params(self, key.instance)

    def materialize(self, key: ArtifactKey) -> Any:
        """Resolve one artifact: memo → cache restore → compute (and store)."""
        if key in self._values:
            return self._values[key]
        started = time.perf_counter()
        self._child_seconds.append(0.0)
        try:
            value, outcome, address, kind = self._materialize_uncached(key)
        finally:
            child_seconds = self._child_seconds.pop()
        elapsed = time.perf_counter() - started
        if self._child_seconds:
            self._child_seconds[-1] += elapsed
        self._values[key] = value
        self._events.append(
            ArtifactEvent(
                artifact=key.label,
                node=key.node,
                kind=kind,
                address=address,
                wall_seconds=max(0.0, elapsed - child_seconds),
                outcome=outcome,
            )
        )
        return value

    def _materialize_uncached(self, key: ArtifactKey) -> tuple[Any, str, str, str]:
        node = get_node(key.node)
        params = node.params(self, key.instance)
        address = stable_key(node.kind, params)
        restored = self._restore_cached(node, key, params)
        if restored is not None:
            return restored, "restored", address, node.kind
        value = node.compute(self, key.instance)
        if self.cache is not None:
            arrays, meta = node.payload(value)
            self.cache.store(node.kind, params, arrays, meta=meta)
        return value, "computed", address, node.kind

    def _restore_cached(self, node, key: ArtifactKey, params: dict):
        """Rebuild the artifact from the disk cache, self-healing on failure.

        Returns the restored value, or ``None`` for a miss.

        An entry whose stored arrays/metadata do not match what the node's
        restore function expects (e.g. written by an incompatible version
        into a persistent cache dir) is evicted and reclassified as a miss
        so the caller recomputes, keeping the cache's documented
        corrupted-entries-are-recomputed contract.
        """
        if self.cache is None:
            return None
        entry = self.cache.load(node.kind, params)
        if entry is None:
            return None
        try:
            return node.restore(self, key.instance, entry)
        except Exception:
            self.cache.evict(node.kind, params)
            self.cache.stats.hits -= 1
            self.cache.stats.misses += 1
            return None

    def drain_events(self) -> list[ArtifactEvent]:
        """Return (and clear) the materialisation events recorded so far."""
        events, self._events = self._events, []
        return events

    # -- substrate -------------------------------------------------------------

    def dataset_matrix(self, preset: str, n_nodes: int | None = None):
        """The synthetic delay matrix for ``preset`` at ``n_nodes`` (cached).

        Runners that sweep several data sets (Figs. 2, 4–7, 9, 14) route
        their matrix loads through this method so the matrices are shared
        in-memory and, when a cache is attached, on disk.
        """
        count = int(n_nodes) if n_nodes is not None else int(self.config.n_nodes)
        return self.materialize(ArtifactKey("dataset", (preset, count)))[0]

    def dataset_severity(self, preset: str, n_nodes: int | None = None):
        """TIV severities of ``dataset_matrix(preset, n_nodes)`` (cached)."""
        count = int(n_nodes) if n_nodes is not None else int(self.config.n_nodes)
        return self.materialize(ArtifactKey("severity", (preset, count)))

    @property
    def matrix(self):
        """The synthetic delay matrix for ``config.dataset``."""
        return self.materialize(ArtifactKey("dataset", self._main_instance()))[0]

    @property
    def ground_truth_clusters(self) -> np.ndarray:
        """Ground-truth cluster labels of the synthetic matrix."""
        return self.materialize(ArtifactKey("dataset", self._main_instance()))[1]

    @property
    def cluster_assignment(self):
        """Clusters recovered by the paper's clustering procedure."""
        return self.materialize(ArtifactKey("clusters"))

    # -- analysis --------------------------------------------------------------

    @property
    def severity(self):
        """TIV severities of the matrix."""
        return self.materialize(ArtifactKey("severity", self._main_instance()))

    @property
    def shortest_paths(self) -> np.ndarray:
        """All-pairs shortest-path delay matrix of :attr:`matrix` (Fig. 8)."""
        return self.materialize(ArtifactKey("shortest"))

    @property
    def vivaldi(self):
        """A Vivaldi embedding converged for ``config.vivaldi_seconds``."""
        return self.materialize(ArtifactKey("vivaldi"))

    @property
    def alert(self):
        """The TIV alert built from the converged Vivaldi embedding."""
        return self.materialize(ArtifactKey("alert"))

    @property
    def ides(self):
        """The Fig. 15 IDES strawman embedding (landmark count scales with n)."""
        return self.materialize(ArtifactKey("ides"))

    @property
    def lat(self):
        """The Fig. 16 Vivaldi+LAT strawman embedding."""
        return self.materialize(ArtifactKey("lat"))

    # -- harness helpers -------------------------------------------------------

    def selection_experiment(self):
        """A §4.1 coordinate-selection experiment bound to this context."""
        from repro.neighbor.selection import CoordinateSelectionExperiment

        return CoordinateSelectionExperiment(
            self.matrix,
            n_candidates=self.config.n_candidates,
            n_runs=self.config.selection_runs,
            rng=self.config.seed + 2,
        )
