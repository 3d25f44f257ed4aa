"""Resolution of figure requirements into a schedulable artifact DAG.

:func:`resolve_plan` takes an experiment configuration plus a set of
registered figure ids and produces an :class:`ExecutionPlan`: the closed
set of :class:`ResolvedArtifact` nodes (each carrying its cache kind,
content-addressing parameters, cache address and dependency edges) plus the
per-figure artifact closures the scheduler gates figure tasks on.

The graph is small (tens of nodes), so resolution is cheap enough to run
per engine invocation; the repository benchmark's traced pass reports its
cost (``graph.resolve_s``), so a regression in it is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.errors import ExperimentError

from repro.artifacts.nodes import ArtifactKey, get_node, requirement_keys

if TYPE_CHECKING:
    from repro.experiments.config import ExperimentConfig


@dataclass(frozen=True)
class ResolvedArtifact:
    """One artifact of a resolved plan, ready to schedule and address."""

    key: ArtifactKey
    kind: str
    params: dict
    address: str
    deps: tuple[ArtifactKey, ...]

    @property
    def label(self) -> str:
        return self.key.label


class ArtifactGraph:
    """An immutable DAG of resolved artifacts, iterable in topological order."""

    def __init__(self, artifacts: Mapping[ArtifactKey, ResolvedArtifact]):
        self._artifacts = dict(artifacts)
        self._order = _topological_order(self._artifacts)

    def __len__(self) -> int:
        return len(self._artifacts)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self._artifacts

    def __getitem__(self, key: ArtifactKey) -> ResolvedArtifact:
        return self._artifacts[key]

    def __iter__(self) -> Iterator[ResolvedArtifact]:
        """Iterate artifacts in (deterministic) topological order."""
        return iter(self._artifacts[key] for key in self._order)

    def topological_order(self) -> tuple[ArtifactKey, ...]:
        """All keys, dependencies strictly before dependents."""
        return self._order

    def waves(self) -> tuple[tuple[ArtifactKey, ...], ...]:
        """Topological waves: wave *i* only depends on waves ``< i``.

        Artifacts within one wave are mutually independent, so a parallel
        scheduler may materialise a whole wave concurrently.  (The engine's
        frontier scheduler is finer-grained — it releases each artifact the
        moment its own dependencies finish — but waves are the stable,
        human-readable view ``repro graph`` prints.)
        """
        depth: dict[ArtifactKey, int] = {}
        for key in self._order:
            deps = self._artifacts[key].deps
            depth[key] = 1 + max((depth[d] for d in deps), default=-1)
        grouped: dict[int, list[ArtifactKey]] = {}
        for key in self._order:
            grouped.setdefault(depth[key], []).append(key)
        return tuple(tuple(grouped[level]) for level in sorted(grouped))

    def closure(self, keys: Iterable[ArtifactKey]) -> frozenset[ArtifactKey]:
        """``keys`` plus every artifact they transitively depend on."""
        seen: set[ArtifactKey] = set()
        stack = list(keys)
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self._artifacts[key].deps)
        return frozenset(seen)


def _topological_order(
    artifacts: Mapping[ArtifactKey, ResolvedArtifact]
) -> tuple[ArtifactKey, ...]:
    """Kahn's algorithm with sorted tie-breaking (deterministic output)."""
    remaining_deps = {
        key: {dep for dep in artifact.deps} for key, artifact in artifacts.items()
    }
    for key, deps in remaining_deps.items():
        unknown = deps - set(artifacts)
        if unknown:
            labels = ", ".join(sorted(k.label for k in unknown))
            raise ExperimentError(
                f"artifact {key.label} depends on unresolved artifact(s): {labels}"
            )
    order: list[ArtifactKey] = []
    ready = sorted(key for key, deps in remaining_deps.items() if not deps)
    while ready:
        key = ready.pop(0)
        order.append(key)
        newly_ready = []
        for other, deps in remaining_deps.items():
            if key in deps:
                deps.discard(key)
                if not deps:
                    newly_ready.append(other)
        if newly_ready:
            ready = sorted(ready + newly_ready)
    if len(order) != len(artifacts):
        cyclic = sorted(k.label for k in set(artifacts) - set(order))
        raise ExperimentError(
            f"artifact dependency cycle involving: {', '.join(cyclic)}"
        )
    return tuple(order)


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved artifact graph plus the per-figure closures over it."""

    graph: ArtifactGraph
    figure_needs: dict[str, frozenset[ArtifactKey]]


def _probe_context(config: "ExperimentConfig | None"):
    # Imported lazily: the context materialises artifacts through the node
    # registry, so importing it at module scope would be circular.
    from repro.experiments.context import ExperimentContext

    return ExperimentContext(config)


def resolve_artifact(ctx, key: ArtifactKey) -> ResolvedArtifact:
    """Resolve one artifact key against a context: params, address, deps."""
    # Imported lazily: repro.experiments imports this module back at
    # package-init time, so a module-scope import would be circular.
    from repro.experiments.cache import stable_key

    node = get_node(key.node)
    params = node.params(ctx, key.instance)
    return ResolvedArtifact(
        key=key,
        kind=node.kind,
        params=params,
        address=stable_key(node.kind, params),
        deps=node.deps(ctx, key.instance),
    )


def resolve_plan(
    config: "ExperimentConfig | None" = None,
    experiment_ids: Iterable[str] | None = None,
    *,
    context=None,
) -> ExecutionPlan:
    """Resolve the artifact DAG the given figures need.

    ``experiment_ids`` defaults to every registered figure.  Each figure's
    declared requirement tokens (see
    :func:`repro.experiments.registry.experiment_needs`) expand into
    concrete artifact keys, the keys close over the node-declared
    dependencies, and every artifact is content-addressed exactly as the
    experiment context would address it.  Pass ``context`` to resolve
    against an existing context instead of constructing a probe.
    """
    from repro.experiments.registry import experiment_needs, list_experiments

    ctx = context if context is not None else _probe_context(config)
    wanted = list(experiment_ids) if experiment_ids is not None else list(list_experiments())

    artifacts: dict[ArtifactKey, ResolvedArtifact] = {}

    def _close_over(key: ArtifactKey) -> None:
        if key in artifacts:
            return
        artifact = resolve_artifact(ctx, key)
        artifacts[key] = artifact
        for dep in artifact.deps:
            _close_over(dep)

    roots: dict[str, list[ArtifactKey]] = {}
    for experiment_id in wanted:
        roots[experiment_id] = [
            key
            for token in sorted(experiment_needs(experiment_id))
            for key in requirement_keys(ctx, token)
        ]
        for key in roots[experiment_id]:
            _close_over(key)

    graph = ArtifactGraph(artifacts)
    figure_needs = {
        experiment_id: graph.closure(keys) for experiment_id, keys in roots.items()
    }
    return ExecutionPlan(graph=graph, figure_needs=figure_needs)


def graph_status(
    graph: ArtifactGraph, cache=None
) -> list[dict[str, Any]]:
    """Serializable per-artifact rows (wave, deps, cache status) for the CLI.

    ``cache`` is an optional :class:`~repro.experiments.cache.ArtifactCache`;
    with one, each row reports whether the artifact's address is currently
    materialised (``"hit"``/``"miss"``); without, ``"unknown"``.
    """
    rows: list[dict[str, Any]] = []
    for wave_index, wave in enumerate(graph.waves()):
        for key in wave:
            artifact = graph[key]
            if cache is None:
                status = "unknown"
            else:
                status = "hit" if cache.contains(artifact.kind, artifact.params) else "miss"
            rows.append(
                {
                    "artifact": artifact.label,
                    "node": key.node,
                    "kind": artifact.kind,
                    "wave": wave_index,
                    "address": artifact.address,
                    "cache": status,
                    "deps": [dep.label for dep in artifact.deps],
                }
            )
    return rows
