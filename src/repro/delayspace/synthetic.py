"""Synthetic Internet-like delay-space generators.

The paper evaluates everything on four measured delay matrices that are not
available offline.  This module provides the substitution documented in
DESIGN.md: a clustered delay-space model in the spirit of the DS² synthesis
work (Zhang et al., IMC 2006), with triangle inequality violations injected
through an explicit routing-inefficiency model.

Two generators are provided:

* :func:`euclidean_delay_space` — delays are exact Euclidean distances, so
  the triangle inequality holds everywhere.  This reproduces the "artificial
  Euclidean matrix" used as the TIV-free baseline in Fig. 14.
* :func:`clustered_delay_space` — nodes live in a small number of major
  geographic clusters; base delays come from cluster geometry plus per-node
  access delays; a configurable fraction of edges (biased towards long,
  inter-cluster edges) is then *inflated* by a heavy-tailed detour factor.
  Inflated edges are exactly the edges for which shorter two-hop detours
  exist, which is the routing-policy mechanism the paper attributes TIV to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.errors import ConfigError
from repro.stats.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class ClusterSpec:
    """Description of one major cluster of the synthetic delay space.

    Attributes
    ----------
    name:
        Human-readable cluster name (e.g. ``"north-america"``).
    fraction:
        Fraction of all nodes placed in this cluster.
    center:
        Coordinates of the cluster centre in the 2-D "geographic" plane,
        in milliseconds (i.e. positions are expressed directly in delay
        units so distances read as one-way propagation delays).
    radius:
        Scale of the node scatter around the centre (ms).
    """

    name: str
    fraction: float
    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ConfigError(f"cluster fraction must be in (0, 1], got {self.fraction}")
        if self.radius <= 0:
            raise ConfigError(f"cluster radius must be positive, got {self.radius}")


DEFAULT_CLUSTERS: tuple[ClusterSpec, ...] = (
    ClusterSpec("north-america", 0.45, (0.0, 0.0), 22.0),
    ClusterSpec("europe", 0.35, (90.0, 15.0), 18.0),
    ClusterSpec("asia", 0.15, (170.0, 70.0), 25.0),
)


@dataclass(frozen=True)
class SyntheticSpaceConfig:
    """Configuration of the clustered synthetic delay space.

    Attributes
    ----------
    n_nodes:
        Total number of nodes (clusters + noise nodes).
    clusters:
        Major cluster specifications.  Fractions may sum to less than one;
        the remainder become "noise" nodes scattered uniformly over a wide
        area, matching the noise cluster of the paper's clustering analysis.
    access_delay_mean:
        Mean of the per-node access ("last mile") delay added to both
        endpoints of every path (ms).
    access_delay_distribution:
        Distribution of the per-node access delay: ``"exponential"`` (the
        default, light tail) or ``"pareto"`` (heavy tail, modelling a
        minority of badly connected access links).  Both are parameterised
        to have mean ``access_delay_mean``.
    access_delay_shape:
        Shape parameter of the Pareto access-delay tail (only used when
        ``access_delay_distribution="pareto"``); must be > 1 so the mean is
        finite.  Smaller values give heavier tails.
    min_delay:
        Lower bound applied to every generated delay (ms).
    tiv_edge_fraction:
        Target fraction of edges whose delay is inflated by a routing
        detour.  The selection is biased towards inter-cluster edges.
    intra_cluster_tiv_weight:
        Relative likelihood that an intra-cluster edge is inflated compared
        to an inter-cluster edge (the paper finds inter-cluster edges cause
        most severe TIVs, so this defaults well below 1).
    inflation_shape:
        Shape parameter of the Pareto-distributed detour factor.  Smaller
        values produce a heavier tail (more severe TIVs).
    inflation_scale:
        Multiplier applied to the Pareto sample; the inflated delay is
        ``delay * (1 + inflation_scale * pareto(shape))``.
    max_inflation:
        Hard cap on the inflation factor so delays stay physically plausible.
    jitter_fraction:
        Multiplicative measurement noise applied to every edge
        (``delay *= 1 + Normal(0, jitter_fraction)``), truncated at ±3σ.
    """

    n_nodes: int = 400
    clusters: tuple[ClusterSpec, ...] = DEFAULT_CLUSTERS
    access_delay_mean: float = 6.0
    access_delay_distribution: str = "exponential"
    access_delay_shape: float = 2.5
    min_delay: float = 0.5
    tiv_edge_fraction: float = 0.18
    intra_cluster_tiv_weight: float = 0.55
    inflation_shape: float = 2.2
    inflation_scale: float = 0.9
    max_inflation: float = 6.0
    jitter_fraction: float = 0.03

    def __post_init__(self) -> None:
        if self.n_nodes < 4:
            raise ConfigError("synthetic delay space needs at least 4 nodes")
        total_fraction = sum(c.fraction for c in self.clusters)
        if total_fraction > 1.0 + 1e-9:
            raise ConfigError(
                f"cluster fractions sum to {total_fraction:.3f} > 1"
            )
        if not 0 <= self.tiv_edge_fraction < 1:
            raise ConfigError("tiv_edge_fraction must be in [0, 1)")
        if self.inflation_shape <= 1.0:
            raise ConfigError("inflation_shape must be > 1 for a finite-mean tail")
        if self.max_inflation < 1.0:
            raise ConfigError("max_inflation must be >= 1")
        if self.access_delay_distribution not in ("exponential", "pareto"):
            raise ConfigError(
                "access_delay_distribution must be 'exponential' or 'pareto', "
                f"got {self.access_delay_distribution!r}"
            )
        if self.access_delay_shape <= 1.0:
            raise ConfigError("access_delay_shape must be > 1 for a finite-mean tail")


def euclidean_delay_space(
    n_nodes: int,
    *,
    dimension: int = 5,
    scale: float = 150.0,
    min_delay: float = 0.5,
    rng: RngLike = None,
    labels: Optional[Sequence[str]] = None,
) -> DelayMatrix:
    """Generate a TIV-free delay matrix from random Euclidean positions.

    Every delay is the Euclidean distance between two uniformly random
    points in a ``dimension``-dimensional hypercube of side ``scale`` ms, so
    the triangle inequality holds exactly (up to the ``min_delay`` floor).

    Parameters
    ----------
    n_nodes:
        Number of nodes.
    dimension:
        Dimensionality of the underlying space (the paper's Vivaldi runs use
        5-D, so 5 is a natural default).
    scale:
        Side length of the hypercube in milliseconds.
    min_delay:
        Minimum delay between distinct nodes.
    rng:
        Seed or generator for reproducibility.
    labels:
        Optional node labels.
    """
    if n_nodes < 2:
        raise ConfigError("euclidean_delay_space needs at least 2 nodes")
    if scale <= 0:
        raise ConfigError("scale must be positive")
    gen = ensure_rng(rng)
    points = gen.uniform(0.0, scale, size=(n_nodes, dimension))
    diffs = points[:, None, :] - points[None, :, :]
    delays = np.sqrt(np.sum(diffs * diffs, axis=-1))
    np.fill_diagonal(delays, 0.0)
    off_diag = ~np.eye(n_nodes, dtype=bool)
    delays[off_diag] = np.maximum(delays[off_diag], min_delay)
    return DelayMatrix(delays, labels=labels, symmetrize=False)


def _assign_clusters(config: SyntheticSpaceConfig, gen: np.random.Generator) -> np.ndarray:
    """Return the cluster index of each node; ``len(clusters)`` marks noise."""
    n = config.n_nodes
    counts = [int(round(c.fraction * n)) for c in config.clusters]
    while sum(counts) > n:
        counts[int(np.argmax(counts))] -= 1
    noise_count = n - sum(counts)
    assignment = np.concatenate(
        [np.full(c, i, dtype=int) for i, c in enumerate(counts)]
        + [np.full(noise_count, len(config.clusters), dtype=int)]
    )
    gen.shuffle(assignment)
    return assignment


def _node_positions(
    config: SyntheticSpaceConfig, assignment: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Place each node in the 2-D geographic plane according to its cluster."""
    n = config.n_nodes
    positions = np.empty((n, 2), dtype=float)
    centers = np.array([c.center for c in config.clusters], dtype=float)
    if centers.size:
        span_lo = centers.min(axis=0) - 40.0
        span_hi = centers.max(axis=0) + 40.0
    else:
        span_lo, span_hi = np.array([0.0, 0.0]), np.array([150.0, 150.0])
    for i in range(n):
        cluster_idx = assignment[i]
        if cluster_idx < len(config.clusters):
            spec = config.clusters[cluster_idx]
            positions[i] = np.asarray(spec.center) + gen.normal(0.0, spec.radius, size=2)
        else:
            positions[i] = gen.uniform(span_lo, span_hi)
    return positions


def _access_delays(config: SyntheticSpaceConfig, gen: np.random.Generator) -> np.ndarray:
    """Per-node access delays with mean ``access_delay_mean``.

    The Pareto variant keeps the same mean as the exponential one (scale
    ``mean * (shape - 1) / shape``) so switching the distribution changes
    the tail, not the typical delay level.
    """
    if config.access_delay_distribution == "pareto":
        shape = config.access_delay_shape
        scale = config.access_delay_mean * (shape - 1.0) / shape
        return scale * (1.0 + gen.pareto(shape, size=config.n_nodes))
    return gen.exponential(config.access_delay_mean, size=config.n_nodes)


def _base_delays(
    config: SyntheticSpaceConfig, positions: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Geometric propagation delays plus per-node access delays."""
    diffs = positions[:, None, :] - positions[None, :, :]
    geo = np.sqrt(np.sum(diffs * diffs, axis=-1))
    access = _access_delays(config, gen)
    delays = geo + access[:, None] + access[None, :]
    np.fill_diagonal(delays, 0.0)
    return delays


def _inflate_edges(
    config: SyntheticSpaceConfig,
    delays: np.ndarray,
    assignment: np.ndarray,
    gen: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the routing-inefficiency model that injects TIVs.

    A fraction of edges is selected with probability proportional to a
    weight that favours inter-cluster edges; each selected edge is inflated
    by ``1 + inflation_scale * Pareto(inflation_shape)``, capped at
    ``max_inflation``.  Because only the direct edge is inflated and not the
    detours through third nodes, every sufficiently inflated edge becomes a
    triangle inequality violation.

    Returns the delays plus the symmetric boolean mask of inflated edges
    (the generator's ground truth, used by the scenario property tests to
    pin the requested TIV fraction).
    """
    n = config.n_nodes
    inflated = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    n_edges = iu[0].size
    if config.tiv_edge_fraction <= 0 or n_edges == 0:
        return delays, inflated

    same_cluster = assignment[iu[0]] == assignment[iu[1]]
    weights = np.where(same_cluster, config.intra_cluster_tiv_weight, 1.0)
    # Longer edges are more likely to traverse policy-constrained
    # inter-domain routes, matching the paper's observation that severe TIVs
    # concentrate on long edges — but short edges still get hit (Figs. 4-7
    # show nonzero severity at every delay), hence the additive floor.
    edge_delays = delays[iu]
    if edge_delays.max() > 0:
        weights = weights * (0.5 + 0.5 * edge_delays / edge_delays.max())
    weights = weights / weights.sum()

    n_inflate = int(round(config.tiv_edge_fraction * n_edges))
    n_inflate = min(max(n_inflate, 0), n_edges)
    if n_inflate == 0:
        return delays, inflated
    chosen = gen.choice(n_edges, size=n_inflate, replace=False, p=weights)

    pareto = gen.pareto(config.inflation_shape, size=n_inflate)
    factors = 1.0 + config.inflation_scale * pareto
    factors = np.minimum(factors, config.max_inflation)

    rows, cols = iu[0][chosen], iu[1][chosen]
    delays[rows, cols] *= factors
    delays[cols, rows] = delays[rows, cols]
    inflated[rows, cols] = True
    inflated[cols, rows] = True
    return delays, inflated


def _apply_jitter(
    config: SyntheticSpaceConfig, delays: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    n = config.n_nodes
    iu = np.triu_indices(n, k=1)
    if config.jitter_fraction > 0:
        noise = gen.normal(0.0, config.jitter_fraction, size=iu[0].size)
        noise = np.clip(noise, -3 * config.jitter_fraction, 3 * config.jitter_fraction)
        delays[iu] *= 1.0 + noise
        delays[(iu[1], iu[0])] = delays[iu]
    delays[iu] = np.maximum(delays[iu], config.min_delay)
    delays[(iu[1], iu[0])] = delays[iu]
    return delays


def clustered_delay_space(
    config: SyntheticSpaceConfig | None = None,
    *,
    rng: RngLike = None,
    return_clusters: bool = False,
    return_tiv_edges: bool = False,
) -> DelayMatrix | tuple:
    """Generate a clustered Internet-like delay matrix with injected TIVs.

    Parameters
    ----------
    config:
        Generator configuration; defaults to :class:`SyntheticSpaceConfig`'s
        defaults (400 nodes, three major clusters plus noise).
    rng:
        Seed or generator for reproducibility.
    return_clusters:
        If True, also return the ground-truth cluster assignment array
        (values ``0..len(clusters)-1`` for major clusters, ``len(clusters)``
        for noise nodes).
    return_tiv_edges:
        If True, also return the symmetric boolean mask of the edges the
        routing-inefficiency model inflated — the generator's ground truth
        for "which edges were made TIV-causing".  Appended after the
        cluster assignment when both flags are set.

    Returns
    -------
    DelayMatrix, optionally followed by the cluster assignment and/or the
    inflated-edge mask (in that order).
    """
    cfg = config if config is not None else SyntheticSpaceConfig()
    gen = ensure_rng(rng)
    assignment = _assign_clusters(cfg, gen)
    positions = _node_positions(cfg, assignment, gen)
    delays = _base_delays(cfg, positions, gen)
    delays, inflated = _inflate_edges(cfg, delays, assignment, gen)
    delays = _apply_jitter(cfg, delays, gen)
    np.fill_diagonal(delays, 0.0)
    matrix = DelayMatrix(delays, symmetrize=False)
    extras: list = []
    if return_clusters:
        extras.append(assignment)
    if return_tiv_edges:
        extras.append(inflated)
    if extras:
        return (matrix, *extras)
    return matrix
