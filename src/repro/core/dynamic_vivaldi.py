"""Dynamic-neighbour Vivaldi (§5.2 of the paper).

Vivaldi itself computes the prediction ratio of every edge it probes, so the
TIV alert costs nothing extra.  Dynamic-neighbour Vivaldi uses it to refine
each node's probing-neighbour set:

1. start Vivaldi normally with ``n_neighbors`` (32) random neighbours and
   run it for a period ``T`` (100 simulated seconds) so coordinates
   converge;
2. each node samples another ``n_neighbors`` random candidates, giving a
   pool of ``2 * n_neighbors`` (64);
3. the pool is ranked by prediction ratio under the *current* coordinates
   and the half with the **smallest** ratios — the edges most likely to
   cause severe TIVs — is dropped;
4. the surviving half becomes the neighbour set for the next period, and
   the procedure repeats.

The effect (Figs. 22–23): the TIV severity of the neighbour edges shrinks
iteration over iteration, and neighbour-selection penalty improves, without
the global knowledge the §4.3 strawman needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.delayspace.matrix import DelayMatrix
from repro.errors import EmbeddingError
from repro.neighbor.filters import neighbor_edge_severities, random_neighbor_lists
from repro.stats.rng import RngLike, ensure_rng
from repro.tiv.severity import TIVSeverityResult


@dataclass(frozen=True)
class DynamicVivaldiConfig:
    """Parameters of dynamic-neighbour Vivaldi.

    Attributes
    ----------
    vivaldi:
        The underlying Vivaldi configuration (dimension, constants,
        neighbour count).
    period:
        Simulated seconds per iteration (paper: 100 s, enough for the
        coordinates to re-converge after a neighbour change).
    candidate_multiplier:
        Size of the candidate pool relative to the neighbour count
        (paper: 2 — 32 existing plus 32 freshly sampled).
    """

    vivaldi: VivaldiConfig = field(default_factory=VivaldiConfig)
    period: int = 100
    candidate_multiplier: int = 2

    def __post_init__(self) -> None:
        if self.period < 1:
            raise EmbeddingError("period must be >= 1 second")
        if self.candidate_multiplier < 2:
            raise EmbeddingError("candidate_multiplier must be >= 2")


@dataclass(frozen=True)
class DynamicVivaldiIteration:
    """Snapshot of one dynamic-neighbour iteration.

    Attributes
    ----------
    iteration:
        0 for the initial random-neighbour period, 1.. for refinements.
    neighbor_lists:
        The probing-neighbour lists in effect during this iteration.
    coordinates:
        Node coordinates at the end of the iteration.
    predicted:
        Predicted-delay matrix at the end of the iteration.
    """

    iteration: int
    neighbor_lists: list[list[int]]
    coordinates: np.ndarray = field(repr=False)
    predicted: np.ndarray = field(repr=False)

    def neighbor_edge_severities(self, severity: TIVSeverityResult) -> np.ndarray:
        """TIV severity of every neighbour edge of this iteration (Fig. 22)."""
        return neighbor_edge_severities(self.neighbor_lists, severity)


class DynamicNeighborVivaldi:
    """Run the §5.2 dynamic-neighbour Vivaldi procedure.

    Parameters
    ----------
    matrix:
        The delay matrix to embed.
    config:
        Dynamic-neighbour parameters.
    rng:
        Seed or generator (controls initial neighbours, candidate sampling
        and the Vivaldi dynamics).
    """

    def __init__(
        self,
        matrix: DelayMatrix,
        config: DynamicVivaldiConfig | None = None,
        *,
        rng: RngLike = None,
    ):
        self._matrix = matrix
        self._config = config if config is not None else DynamicVivaldiConfig()
        self._rng = ensure_rng(rng)
        initial = random_neighbor_lists(
            matrix, n_neighbors=self._config.vivaldi.n_neighbors, rng=self._rng
        )
        self._system = VivaldiSystem(
            matrix, self._config.vivaldi, rng=self._rng, neighbors=initial
        )
        self._iterations: list[DynamicVivaldiIteration] = []

    @property
    def system(self) -> VivaldiSystem:
        """The underlying Vivaldi system (reflects the latest iteration).

        Read it, but advance it only through :meth:`run`: a refinement
        ranks candidates under the last snapshot's predictions.
        """
        return self._system

    @property
    def iterations(self) -> list[DynamicVivaldiIteration]:
        """Snapshots recorded so far (index 0 is the initial random period)."""
        return list(self._iterations)

    def _snapshot(self, iteration: int) -> DynamicVivaldiIteration:
        return DynamicVivaldiIteration(
            iteration=iteration,
            neighbor_lists=self._system.neighbors,
            coordinates=self._system.coordinates,
            predicted=self._system.predicted_matrix(),
        )

    def _refine_neighbors(self) -> list[list[int]]:
        """Build the next neighbour lists by dropping the smallest-ratio edges.

        The candidates are ranked under the last snapshot's predicted
        matrix: :meth:`run` refines right after taking a snapshot, so that
        matrix belongs to the current coordinates.

        The whole refinement is array-shaped: one RNG call draws the random
        extra candidates of every node, the predicted-vs-measured ratios of
        every (node, candidate) pair come from whole-matrix division, and
        the per-node ranking is a row-wise stable argsort.  Ties rank the
        current neighbours ahead of the fresh candidates (in list order),
        which keeps the refinement deterministic per seed.

        The current lists hold ``k`` distinct ids per node, as the initial
        random lists and every refinement do; any other lists (set from
        outside through :meth:`VivaldiSystem.set_neighbors`) are refused.
        """
        n = self._matrix.n_nodes
        k = min(self._config.vivaldi.n_neighbors, n - 1)
        pool_size = min(self._config.candidate_multiplier * k, n - 1)
        current = self._system.neighbors
        for i, nbrs in enumerate(current):
            if len(nbrs) != k or len(set(nbrs)) != k:
                raise EmbeddingError(
                    f"node {i}'s neighbour list {nbrs} does not hold {k} distinct ids"
                )
        members = np.asarray(current, dtype=np.int64)
        measured = self._matrix.values
        predicted = self._iterations[-1].predicted

        # Unmeasurable edges get an infinite ratio so they are never flagged
        # as TIV-suspect (the paper's alert only fires on shrunken edges).
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                np.isfinite(measured) & (measured > 0), predicted / measured, np.inf
            )

        # A random priority per (node, candidate) pair; current neighbours
        # and the node itself are pushed to the back so the front of each
        # row's ordering is a uniform sample of the fresh candidates.
        priorities = self._rng.random((n, n))
        priorities[np.arange(n), np.arange(n)] = np.inf
        priorities[np.arange(n)[:, None], members] = np.inf

        n_extras = pool_size - k
        if n_extras > 0:
            # Only the n_extras smallest priorities per row matter (their
            # relative order is irrelevant: ties in the ratio ranking below
            # resolve by pool position, which is deterministic either way),
            # so partition instead of a full-row sort.  n_extras <= n-1-k,
            # so the selection can never reach the infinite-priority slots.
            extras = np.argpartition(priorities, n_extras - 1, axis=1)[:, :n_extras]
        else:
            extras = np.empty((n, 0), dtype=np.int64)
        pool = np.concatenate([members, extras], axis=1)
        pool_ratios = np.take_along_axis(ratio, pool, axis=1)
        order = np.argsort(-pool_ratios, axis=1, kind="stable")[:, :k]
        return np.take_along_axis(pool, order, axis=1).tolist()

    def run(self, iterations: int) -> list[DynamicVivaldiIteration]:
        """Run the initial period plus ``iterations`` refinement periods.

        Returns the recorded snapshots (``iterations + 1`` of them, counting
        the initial random-neighbour period as iteration 0).  Calling
        :meth:`run` again continues from the current state and appends
        further iterations.
        """
        if iterations < 0:
            raise EmbeddingError("iterations must be non-negative")
        if not self._iterations:
            self._system.run(self._config.period)
            self._iterations.append(self._snapshot(0))
        start = len(self._iterations) - 1
        for step in range(start, start + iterations):
            new_lists = self._refine_neighbors()
            self._system.set_neighbors(new_lists)
            self._system.run(self._config.period)
            self._iterations.append(self._snapshot(step + 1))
        return self.iterations

    def iteration(self, index: int) -> DynamicVivaldiIteration:
        """Return the snapshot recorded for iteration ``index``."""
        for snap in self._iterations:
            if snap.iteration == index:
                return snap
        raise EmbeddingError(f"iteration {index} has not been run yet")
