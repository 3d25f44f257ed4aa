"""Declarative artifact-graph execution core.

The subsystem has three layers:

* :mod:`repro.artifacts.nodes` — the registry of artifact declarations
  (dependencies, cache addressing, compute/restore/persist functions);
* :mod:`repro.artifacts.graph` — resolution of figure requirements into a
  schedulable :class:`~repro.artifacts.graph.ArtifactGraph` /
  :class:`~repro.artifacts.graph.ExecutionPlan`;
* :mod:`repro.artifacts.prune` — cache maintenance against the registry.

The experiment context materialises artifacts through the node registry;
the engine and the scenario-matrix runner schedule whole plans across a
worker pool at artifact granularity.
"""

from repro.artifacts.graph import (
    ArtifactGraph,
    ExecutionPlan,
    ResolvedArtifact,
    graph_status,
    resolve_artifact,
    resolve_graph,
    resolve_plan,
)
from repro.artifacts.nodes import (
    REQUIREMENTS,
    ArtifactKey,
    ArtifactNode,
    get_node,
    list_nodes,
    node_kinds,
    register_node,
    requirement_keys,
)
from repro.artifacts.prune import PruneReport, prune_cache

__all__ = [
    "REQUIREMENTS",
    "ArtifactGraph",
    "ArtifactKey",
    "ArtifactNode",
    "ExecutionPlan",
    "PruneReport",
    "ResolvedArtifact",
    "get_node",
    "graph_status",
    "list_nodes",
    "node_kinds",
    "prune_cache",
    "register_node",
    "requirement_keys",
    "resolve_artifact",
    "resolve_graph",
    "resolve_plan",
]
