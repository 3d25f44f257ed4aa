"""The Vivaldi network coordinate system (Dabek et al., SIGCOMM 2004).

Vivaldi assigns every node a coordinate in a low-dimensional Euclidean space
and predicts the delay between two nodes as the distance between their
coordinates.  Coordinates are computed by simulating a spring system: every
measured node pair is a spring whose rest length is the measured delay, and
each probe moves the probing node along the spring force direction with an
adaptive step size weighted by the relative confidence of the two nodes.

The paper runs Vivaldi with 32 random neighbours per node in a 5-D Euclidean
space; those are the defaults of :class:`VivaldiConfig`.

Two step kernels are available (see the ``kernel`` argument of
:class:`VivaldiSystem`):

``"batched"`` (default)
    One simulated second is computed as whole-array numpy operations: all N
    probe targets are drawn in a single RNG call and every node's error and
    coordinate update is evaluated against a snapshot of the state taken at
    the start of the probe round (a Jacobi-style sweep).  This is faithful
    to the protocol the Vivaldi paper describes — nodes probe
    *asynchronously* and act on remote state that is always slightly stale
    — and is an order of magnitude faster than the scalar loop.
``"reference"``
    The original scalar loop: nodes probe one after another within a round
    and immediately publish their updates (a Gauss-Seidel sweep).  Kept as
    the behavioural reference for equivalence testing and benchmarking.

Both kernels converge to statistically indistinguishable embeddings; they
differ only in within-round update ordering, so per-seed streams (and the
committed golden snapshots) are kernel-specific.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.coords.base import DelayPredictor, squared_distance
from repro.delayspace.matrix import DelayMatrix
from repro.errors import EmbeddingError
from repro.stats.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class VivaldiConfig:
    """Parameters of the Vivaldi embedding.

    Attributes
    ----------
    dimension:
        Dimensionality of the Euclidean coordinate space (paper: 5).
    n_neighbors:
        Number of random probing neighbours per node (paper: 32).
    cc:
        The adaptive-timestep constant scaling coordinate movement
        (``delta = cc * w`` in the Vivaldi paper, recommended 0.25).
    ce:
        The constant scaling the update of the local error estimate
        (recommended 0.25).
    initial_error:
        Initial value of each node's relative error estimate.
    min_error:
        Floor applied to error estimates to keep the confidence weight
        defined.
    probes_per_node_per_second:
        How many neighbour probes each node performs per simulated second.
    """

    dimension: int = 5
    n_neighbors: int = 32
    cc: float = 0.25
    ce: float = 0.25
    initial_error: float = 1.0
    min_error: float = 1e-3
    probes_per_node_per_second: int = 1

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise EmbeddingError("dimension must be >= 1")
        if self.n_neighbors < 1:
            raise EmbeddingError("n_neighbors must be >= 1")
        if not 0 < self.cc <= 1 or not 0 < self.ce <= 1:
            raise EmbeddingError("cc and ce must lie in (0, 1]")
        if self.probes_per_node_per_second < 1:
            raise EmbeddingError("probes_per_node_per_second must be >= 1")


class VivaldiSystem(DelayPredictor):
    """A Vivaldi embedding of one delay matrix.

    Parameters
    ----------
    matrix:
        The measured delay matrix driving the simulation.
    config:
        Vivaldi parameters.
    rng:
        Seed or generator used for the initial coordinates, the neighbour
        sampling and the per-step probe choices.
    neighbors:
        Optional explicit neighbour lists (``neighbors[i]`` is a sequence of
        node indices node ``i`` probes).  Defaults to
        ``config.n_neighbors`` random distinct neighbours per node.  The
        dynamic-neighbour Vivaldi of §5.2 swaps these lists between
        iterations via :meth:`set_neighbors`.
    kernel:
        ``"batched"`` (default) evaluates each probe round as whole-array
        numpy operations against a start-of-round state snapshot;
        ``"reference"`` keeps the scalar per-node probe loop.  See the
        module docstring for the exact semantics.
    """

    KERNELS = ("batched", "reference")

    def __init__(
        self,
        matrix: DelayMatrix,
        config: VivaldiConfig | None = None,
        *,
        rng: RngLike = None,
        neighbors: Optional[Sequence[Sequence[int]]] = None,
        kernel: str = "batched",
    ):
        if kernel not in self.KERNELS:
            raise EmbeddingError(
                f"unknown Vivaldi kernel {kernel!r}; expected one of {self.KERNELS}"
            )
        self._matrix = matrix
        self._config = config if config is not None else VivaldiConfig()
        self._rng = ensure_rng(rng)
        self._kernel = kernel
        n = matrix.n_nodes

        # Small random initial coordinates break the symmetry of starting
        # everyone at the origin.
        self._coords = self._rng.normal(0.0, 1.0, size=(n, self._config.dimension))
        self._errors = np.full(n, self._config.initial_error)
        self._delays = matrix.to_array()
        self._time = 0.0
        self._last_movement = np.zeros(n)

        if neighbors is None:
            self._neighbors = self._sample_neighbors()
            self._rebuild_neighbor_arrays()
        else:
            self.set_neighbors(neighbors)

    # -- configuration and state accessors -----------------------------------

    @property
    def kernel(self) -> str:
        """The step kernel in use (``"batched"`` or ``"reference"``)."""
        return self._kernel

    @property
    def matrix(self) -> DelayMatrix:
        """The measured delay matrix the embedding is fitted to."""
        return self._matrix

    @property
    def config(self) -> VivaldiConfig:
        """The Vivaldi parameters in use."""
        return self._config

    @property
    def n_nodes(self) -> int:
        return self._matrix.n_nodes

    @property
    def coordinates(self) -> np.ndarray:
        """Current node coordinates, shape ``(n_nodes, dimension)`` (copy)."""
        return self._coords.copy()

    @property
    def errors(self) -> np.ndarray:
        """Current per-node relative error estimates (copy)."""
        return self._errors.copy()

    @property
    def simulation_time(self) -> float:
        """Simulated seconds elapsed so far."""
        return self._time

    @property
    def neighbors(self) -> list[list[int]]:
        """Current probing-neighbour lists (copies)."""
        return [list(nbrs) for nbrs in self._neighbors]

    def set_neighbors(self, neighbors: Sequence[Sequence[int]]) -> None:
        """Replace the probing-neighbour lists.

        Each node must have at least one neighbour, all indices must be valid
        and no node may list itself.
        """
        n = self.n_nodes
        if len(neighbors) != n:
            raise EmbeddingError(f"expected {n} neighbour lists, got {len(neighbors)}")
        cleaned: list[list[int]] = []
        for i, nbrs in enumerate(neighbors):
            lst = [int(j) for j in nbrs]
            if not lst:
                raise EmbeddingError(f"node {i} has an empty neighbour list")
            for j in lst:
                if not 0 <= j < n:
                    raise EmbeddingError(f"node {i} has an out-of-range neighbour {j}")
                if j == i:
                    raise EmbeddingError(f"node {i} cannot be its own neighbour")
            cleaned.append(lst)
        self._neighbors = cleaned
        self._rebuild_neighbor_arrays()

    def _rebuild_neighbor_arrays(self) -> None:
        """Mirror the neighbour lists into the padded array form.

        The batched kernel gathers probe targets as
        ``pad[i, rng.integers(0, len[i])]``, which handles ragged lists
        (explicit neighbours may differ in length) without per-node Python
        work.  Pad slots are never indexed, so their value is irrelevant.
        """
        n = self.n_nodes
        lengths = np.fromiter((len(nbrs) for nbrs in self._neighbors), np.int64, count=n)
        pad = np.zeros((n, int(lengths.max())), dtype=np.int64)
        for i, nbrs in enumerate(self._neighbors):
            pad[i, : lengths[i]] = nbrs
        self._nbr_pad = pad
        self._nbr_len = lengths

    def _sample_neighbors(self) -> list[list[int]]:
        n = self.n_nodes
        k = min(self._config.n_neighbors, n - 1)
        # Row i holds 0..n-1 with i removed: values >= i in 0..n-2 shift up
        # by one.  A single rng.permuted call shuffles every row
        # independently, replacing the per-node np.delete + choice loop.
        candidates = np.tile(np.arange(n - 1, dtype=np.int64), (n, 1))
        candidates += candidates >= np.arange(n, dtype=np.int64)[:, None]
        permuted = self._rng.permuted(candidates, axis=1)
        return [[int(j) for j in row[:k]] for row in permuted]

    # -- spring-relaxation dynamics -------------------------------------------

    def _probe_round_batched(self) -> None:
        """One whole-array probe round: every node probes one neighbour.

        All reads (coordinates, errors of both endpoints) come from the
        state as it stood at the start of the round, and all writes land at
        the end — a Jacobi sweep.  Each node appears exactly once as the
        probing side ``i``, so the writes never conflict.
        """
        n = self.n_nodes
        rows = np.arange(n)
        picks = self._rng.integers(0, self._nbr_len)
        targets = self._nbr_pad[rows, picks]

        rtt = self._delays[rows, targets]
        valid = np.isfinite(rtt) & (rtt > 0)

        diff = self._coords - self._coords[targets]
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        positive = dist > 0
        direction = np.zeros_like(diff)
        np.divide(diff, dist[:, None], out=direction, where=positive[:, None])
        coincident = valid & ~positive
        if np.any(coincident):
            # Coincident coordinates: push in a random direction, like the
            # scalar kernel (drawn only for the affected rows, so the RNG
            # stream stays deterministic per seed).
            push = self._rng.normal(size=(int(coincident.sum()), self._config.dimension))
            push /= np.linalg.norm(push, axis=1, keepdims=True)
            direction[coincident] = push

        floored = np.maximum(self._errors, self._config.min_error)
        w = floored / (floored + floored[targets])
        with np.errstate(invalid="ignore", divide="ignore"):
            relative_error = np.abs(dist - rtt) / rtt

        ce_w = self._config.ce * w
        new_errors = relative_error * ce_w + self._errors * (1.0 - ce_w)
        movement = np.where(valid, self._config.cc * w * (rtt - dist), 0.0)

        self._errors = np.where(valid, new_errors, self._errors)
        self._coords = self._coords + movement[:, None] * direction
        self._last_movement += np.abs(movement)

    def _probe(self, i: int, j: int) -> None:
        """Apply one Vivaldi update at node ``i`` after probing node ``j``."""
        rtt = self._delays[i, j]
        if not np.isfinite(rtt) or rtt <= 0:
            return
        diff = self._coords[i] - self._coords[j]
        dist = float(np.linalg.norm(diff))
        if dist > 0:
            direction = diff / dist
        else:
            # Coincident coordinates: pick a random push direction.
            direction = self._rng.normal(size=self._config.dimension)
            direction /= np.linalg.norm(direction)

        e_i = max(self._errors[i], self._config.min_error)
        e_j = max(self._errors[j], self._config.min_error)
        w = e_i / (e_i + e_j)
        relative_error = abs(dist - rtt) / rtt

        ce_w = self._config.ce * w
        self._errors[i] = relative_error * ce_w + self._errors[i] * (1.0 - ce_w)

        delta = self._config.cc * w
        movement = delta * (rtt - dist)
        self._coords[i] = self._coords[i] + movement * direction
        self._last_movement[i] += abs(movement)

    def step(self) -> np.ndarray:
        """Advance the simulation by one second.

        Every node performs ``probes_per_node_per_second`` probes to
        uniformly random members of its neighbour list.  Returns the
        per-node coordinate movement magnitude accumulated during the step
        (the paper's "movement speed per step").
        """
        self._last_movement.fill(0.0)
        if self._kernel == "batched":
            for _ in range(self._config.probes_per_node_per_second):
                self._probe_round_batched()
        else:
            for _ in range(self._config.probes_per_node_per_second):
                for i in range(self.n_nodes):
                    nbrs = self._neighbors[i]
                    j = nbrs[int(self._rng.integers(0, len(nbrs)))]
                    self._probe(i, j)
        self._time += 1.0
        return self._last_movement.copy()

    def run(self, seconds: int) -> None:
        """Run the simulation for ``seconds`` simulated seconds."""
        if seconds < 0:
            raise EmbeddingError("seconds must be non-negative")
        for _ in range(int(seconds)):
            self.step()

    def restore_state(
        self, coordinates: np.ndarray, errors: np.ndarray, simulation_time: float
    ) -> None:
        """Overwrite the embedding state with a previously captured snapshot.

        Used by the experiment artifact cache to rehydrate a converged
        embedding without re-running the spring simulation.  Prediction
        queries on a restored system are identical to the original; note
        that *continuing* the simulation afterwards is not guaranteed to
        replay the original probe sequence (the RNG and neighbour lists are
        not part of the snapshot).
        """
        coordinates = np.asarray(coordinates, dtype=float)
        errors = np.asarray(errors, dtype=float)
        if coordinates.shape != self._coords.shape:
            raise EmbeddingError(
                f"expected coordinates of shape {self._coords.shape}, got {coordinates.shape}"
            )
        if errors.shape != self._errors.shape:
            raise EmbeddingError(
                f"expected errors of shape {self._errors.shape}, got {errors.shape}"
            )
        if simulation_time < 0:
            raise EmbeddingError("simulation_time must be non-negative")
        self._coords = coordinates.copy()
        self._errors = errors.copy()
        self._time = float(simulation_time)
        self._last_movement = np.zeros(self.n_nodes)

    # -- prediction interface -------------------------------------------------

    def predict(self, i: int, j: int) -> float:
        """Predicted delay: Euclidean distance between the two coordinates."""
        if i == j:
            return 0.0
        return float(np.linalg.norm(self._coords[i] - self._coords[j]))

    def predict_edges(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted delays of the edges ``(rows[k], cols[k])`` in one gather.

        Equivalent to ``[predict(i, j) for i, j in zip(rows, cols)]`` but
        computed as a single array operation — trace recording
        (:mod:`repro.coords.simulation`) calls this every step, where the
        per-pair form (or a full ``predicted_matrix``) would dominate the
        step cost.  The squares are summed by :func:`squared_distance`,
        as fig11's oscillation fold sums them.
        """
        return np.sqrt(squared_distance((self._coords[rows] - self._coords[cols]).T))

    def predicted_matrix(self) -> np.ndarray:
        return pairwise_distances(self._coords)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between all rows of ``coords``: an N×N matrix, zero diagonal.

    The squared differences are built one (N, N) plane per axis and added
    in axis order.  Below 8 axes that is the order in which ``np.sum(...,
    axis=-1)`` adds the squares of an (N, N, d) difference tensor, so the
    result equals that form bit for bit without materialising the tensor.
    From 8 axes on (no configuration uses them) numpy sums pairwise, and
    the two forms can differ in the last bits.
    """
    total = None
    for plane in coords.T:
        square = np.subtract.outer(plane, plane)
        square *= square
        if total is None:
            total = square
        else:
            total += square
    np.sqrt(total, out=total)
    np.fill_diagonal(total, 0.0)
    return total


def embed_vivaldi(
    matrix: DelayMatrix,
    *,
    config: VivaldiConfig | None = None,
    seconds: int = 100,
    rng: RngLike = None,
    neighbors: Optional[Sequence[Sequence[int]]] = None,
) -> VivaldiSystem:
    """Convenience helper: build a :class:`VivaldiSystem` and run it.

    Parameters
    ----------
    matrix:
        The delay matrix to embed.
    config:
        Vivaldi parameters (defaults match the paper).
    seconds:
        Simulated seconds to run (the paper converges its runs for 100 s).
    rng:
        Seed or generator.
    neighbors:
        Optional explicit neighbour lists.
    """
    system = VivaldiSystem(matrix, config, rng=rng, neighbors=neighbors)
    system.run(seconds)
    return system
