"""GNP: landmark-based network coordinates (Ng & Zhang, INFOCOM 2002).

GNP is the centralised ancestor of Vivaldi and the first system the paper's
related-work section lists.  A fixed set of landmark nodes measure the
delays among themselves and solve a global optimisation placing the
landmarks in a low-dimensional Euclidean space; every ordinary host then
measures its delay to the landmarks only and solves a small optimisation to
position itself relative to them.

It is included here because the paper notes its findings "can potentially be
applied to other network coordinate systems": GNP plugs straight into the
same :class:`~repro.coords.base.DelayPredictor` interface, so the TIV alert,
the neighbour-selection harness and the experiments all work with it
unchanged.

Two fit kernels are available (see the ``kernel`` argument of
:func:`fit_gnp`):

``"batched"`` (default)
    Minimises the same squared-relative-error objective by weighted-MDS
    majorization (SMACOF with weights ``1/d**2``): the landmark placement is
    one small Guttman-transform iteration and every ordinary host is solved
    simultaneously by a whole-matrix closed-form update, so no per-host
    Python optimiser runs.  An order of magnitude faster than the scalar
    path and typically *more* accurate (majorization descends monotonically
    where Nelder-Mead can stall).
``"reference"``
    The original per-host Nelder-Mead (downhill simplex) loop, kept as the
    behavioural reference for equivalence testing and benchmarking.

Both kernels minimise the same objective and converge to statistically
indistinguishable embeddings; coordinates are not bitwise identical because
the optimisers follow different trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.coords.base import DelayPredictor
from repro.delayspace.matrix import DelayMatrix
from repro.errors import EmbeddingError
from repro.stats.rng import RngLike, ensure_rng

#: Fit kernels accepted by :func:`fit_gnp`.
KERNELS = ("batched", "reference")


@dataclass(frozen=True)
class GNPConfig:
    """Parameters of the GNP embedding.

    Attributes
    ----------
    dimension:
        Dimensionality of the Euclidean coordinate space.
    n_landmarks:
        Number of landmark nodes (the GNP paper suggests a little more than
        ``dimension + 1``; defaults to ``2 * dimension + 5``).
    max_iterations:
        Iteration cap passed to the numerical optimiser (simplex iterations
        for the reference kernel, majorization sweeps for the batched one).
    """

    dimension: int = 5
    n_landmarks: Optional[int] = None
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise EmbeddingError("dimension must be >= 1")
        if self.n_landmarks is not None and self.n_landmarks <= self.dimension:
            raise EmbeddingError("n_landmarks must exceed the dimension")
        if self.max_iterations < 1:
            raise EmbeddingError("max_iterations must be >= 1")


class GNPCoordinates(DelayPredictor):
    """Fitted GNP coordinates.

    Attributes
    ----------
    coordinates:
        ``(n_nodes, dimension)`` Euclidean coordinates.
    landmarks:
        Indices of the landmark nodes.
    """

    def __init__(self, coordinates: np.ndarray, landmarks: Sequence[int]):
        coords = np.asarray(coordinates, dtype=float)
        if coords.ndim != 2:
            raise EmbeddingError("coordinates must be a 2-D array")
        self.coordinates = coords
        self.landmarks = tuple(int(i) for i in landmarks)

    @property
    def n_nodes(self) -> int:
        return int(self.coordinates.shape[0])

    def predict(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(np.linalg.norm(self.coordinates[i] - self.coordinates[j]))

    def predicted_matrix(self) -> np.ndarray:
        diffs = self.coordinates[:, None, :] - self.coordinates[None, :, :]
        distances = np.sqrt(np.sum(diffs * diffs, axis=-1))
        np.fill_diagonal(distances, 0.0)
        return distances


def _relative_error(predicted: np.ndarray, measured: np.ndarray) -> float:
    valid = np.isfinite(measured) & (measured > 0)
    if not valid.any():
        return 0.0
    ratio = (predicted[valid] - measured[valid]) / measured[valid]
    return float(np.sum(ratio * ratio))


def _place_landmarks(
    landmark_delays: np.ndarray, dimension: int, max_iterations: int, gen: np.random.Generator
) -> np.ndarray:
    from scipy.optimize import minimize

    count = landmark_delays.shape[0]
    scale = np.nanmax(landmark_delays[np.isfinite(landmark_delays)]) or 1.0

    def objective(flat: np.ndarray) -> float:
        coords = flat.reshape(count, dimension)
        diffs = coords[:, None, :] - coords[None, :, :]
        predicted = np.sqrt(np.sum(diffs * diffs, axis=-1))
        iu = np.triu_indices(count, k=1)
        return _relative_error(predicted[iu], landmark_delays[iu])

    initial = gen.uniform(0.0, scale, size=count * dimension)
    result = minimize(objective, initial, method="Nelder-Mead",
                      options={"maxiter": max_iterations * count * dimension, "fatol": 1e-6})
    return result.x.reshape(count, dimension)


def _place_host(
    host_delays: np.ndarray,
    landmark_coords: np.ndarray,
    max_iterations: int,
    gen: np.random.Generator,
) -> np.ndarray:
    from scipy.optimize import minimize

    dimension = landmark_coords.shape[1]
    scale = float(np.nanmax(host_delays)) if np.isfinite(host_delays).any() else 1.0

    def objective(position: np.ndarray) -> float:
        predicted = np.linalg.norm(landmark_coords - position[None, :], axis=1)
        return _relative_error(predicted, host_delays)

    initial = landmark_coords.mean(axis=0) + gen.normal(0.0, max(scale, 1.0) * 0.05, size=dimension)
    result = minimize(objective, initial, method="Nelder-Mead",
                      options={"maxiter": max_iterations * dimension, "fatol": 1e-6})
    return result.x


def _place_landmarks_batched(
    landmark_delays: np.ndarray, dimension: int, max_iterations: int, gen: np.random.Generator
) -> np.ndarray:
    """Place the landmarks by weighted-MDS majorization (SMACOF).

    Minimises ``sum_ij w_ij (||x_i - x_j|| - d_ij)**2`` with the GNP
    relative-error weights ``w_ij = 1 / d_ij**2`` — the same objective the
    reference Nelder-Mead solves, summed over both edge directions (the
    matrices here are symmetric, so that only doubles the objective).  Each
    Guttman-transform sweep is a handful of (L, L) array operations and
    monotonically decreases the stress.
    """
    count = landmark_delays.shape[0]
    finite = np.isfinite(landmark_delays)
    scale = np.nanmax(landmark_delays[finite]) or 1.0

    delta = np.where(finite, landmark_delays, 0.0)
    valid = finite & (delta > 0)
    np.fill_diagonal(valid, False)
    # Symmetrise so the Guttman transform is well defined on (rare)
    # one-directional measurements.
    valid = valid | valid.T
    delta = np.where(delta > 0, delta, delta.T)
    weights = np.zeros_like(delta)
    np.divide(1.0, delta * delta, out=weights, where=valid)

    coords = gen.uniform(0.0, scale, size=(count, dimension))
    if not valid.any():
        return coords

    v_matrix = np.diag(weights.sum(axis=1)) - weights
    v_pinv = np.linalg.pinv(v_matrix)

    previous_stress = np.inf
    for _ in range(max_iterations):
        diffs = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt(np.sum(diffs * diffs, axis=-1))
        positive = dist > 0
        ratio = np.zeros_like(dist)
        np.divide(delta, dist, out=ratio, where=valid & positive)
        b_matrix = -weights * ratio
        np.fill_diagonal(b_matrix, 0.0)
        np.fill_diagonal(b_matrix, -b_matrix.sum(axis=1))
        coords = v_pinv @ (b_matrix @ coords)

        stress = float(np.sum(weights * np.square(np.where(valid, dist - delta, 0.0))))
        if previous_stress - stress <= 1e-9 * max(stress, 1.0):
            break
        previous_stress = stress
    return coords


def _place_hosts_batched(
    host_delays: np.ndarray,
    landmark_coords: np.ndarray,
    max_iterations: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Solve every ordinary host's placement simultaneously.

    Each host minimises ``sum_l ((||x - c_l|| - d_l) / d_l)**2`` against the
    fixed landmark coordinates; with the landmarks held constant the SMACOF
    majorization update for a single free point is closed form::

        x+ = sum_l w_l * (c_l + d_l * (x - c_l) / ||x - c_l||) / sum_l w_l

    and vectorises over all hosts as ``(H, L, D)`` array operations — no
    per-host optimiser, no Python loop over hosts.

    Hosts start from the landmark centroid plus the same small random
    perturbation the reference kernel uses (one RNG draw for all hosts);
    hosts with no usable landmark measurement stay at their start position,
    like the reference kernel's zero objective leaves Nelder-Mead idle.
    """
    n_hosts, dimension = host_delays.shape[0], landmark_coords.shape[1]
    valid = np.isfinite(host_delays) & (host_delays > 0)
    delta = np.where(valid, host_delays, 1.0)
    weights = np.where(valid, 1.0 / (delta * delta), 0.0)
    weight_sums = weights.sum(axis=1)
    solvable = weight_sums > 0

    finite = np.isfinite(host_delays)
    finite_any = finite.any(axis=1)
    # -inf fill keeps the row max warning-free for all-missing hosts (an
    # all-NaN nanmax would emit a RuntimeWarning the scalar kernel avoids).
    scales = np.where(finite_any, np.where(finite, host_delays, -np.inf).max(axis=1), 1.0)
    coords = landmark_coords.mean(axis=0)[None, :] + gen.normal(
        0.0, 1.0, size=(n_hosts, dimension)
    ) * (np.maximum(scales, 1.0) * 0.05)[:, None]
    if not solvable.any():
        return coords

    previous_stress = np.full(n_hosts, np.inf)
    active = solvable.copy()
    for _ in range(max_iterations):
        diffs = coords[:, None, :] - landmark_coords[None, :, :]  # (H, L, D)
        dist = np.sqrt(np.einsum("hld,hld->hl", diffs, diffs))
        positive = dist > 0
        ratio = np.zeros_like(dist)
        np.divide(delta, dist, out=ratio, where=valid & positive)
        targets = landmark_coords[None, :, :] + ratio[:, :, None] * diffs
        updated = np.einsum("hl,hld->hd", weights, targets) / np.where(
            solvable, weight_sums, 1.0
        )[:, None]
        coords = np.where(active[:, None], updated, coords)

        residual = np.where(valid, dist - delta, 0.0)
        stress = np.einsum("hl,hl->h", weights, residual * residual)
        converged = previous_stress - stress <= 1e-9 * np.maximum(stress, 1.0)
        active = active & ~converged
        if not active.any():
            break
        previous_stress = stress
    return coords


def fit_gnp(
    matrix: DelayMatrix,
    config: GNPConfig | None = None,
    *,
    rng: RngLike = None,
    landmarks: Optional[Sequence[int]] = None,
    kernel: str = "batched",
) -> GNPCoordinates:
    """Fit GNP coordinates to a delay matrix.

    Parameters
    ----------
    matrix:
        Measured delays.
    config:
        GNP parameters.
    rng:
        Seed or generator (landmark choice and optimiser initialisation).
    landmarks:
        Explicit landmark indices; drawn uniformly at random when omitted.
    kernel:
        ``"batched"`` (default) solves the landmark placement and all host
        placements by vectorised majorization; ``"reference"`` keeps the
        per-host Nelder-Mead loop.  See the module docstring.
    """
    if kernel not in KERNELS:
        raise EmbeddingError(f"unknown GNP kernel {kernel!r}; expected one of {KERNELS}")
    cfg = config if config is not None else GNPConfig()
    gen = ensure_rng(rng)
    n = matrix.n_nodes
    delays = matrix.values

    if landmarks is not None:
        landmark_idx = np.asarray([int(i) for i in landmarks], dtype=int)
        if np.unique(landmark_idx).size != landmark_idx.size:
            raise EmbeddingError("landmark list contains duplicates")
        if landmark_idx.size <= cfg.dimension:
            raise EmbeddingError("need more landmarks than dimensions")
        if landmark_idx.min() < 0 or landmark_idx.max() >= n:
            raise EmbeddingError("landmark index out of range")
    else:
        count = cfg.n_landmarks if cfg.n_landmarks is not None else 2 * cfg.dimension + 5
        count = min(count, n)
        if count <= cfg.dimension:
            raise EmbeddingError(
                f"matrix has too few nodes ({n}) for a {cfg.dimension}-D GNP embedding"
            )
        landmark_idx = np.sort(gen.choice(n, size=count, replace=False))

    landmark_delays = delays[np.ix_(landmark_idx, landmark_idx)]
    is_landmark = np.zeros(n, dtype=bool)
    is_landmark[landmark_idx] = True
    host_idx = np.flatnonzero(~is_landmark)

    coordinates = np.zeros((n, cfg.dimension))
    if kernel == "batched":
        landmark_coords = _place_landmarks_batched(
            landmark_delays, cfg.dimension, cfg.max_iterations, gen
        )
        coordinates[landmark_idx] = landmark_coords
        if host_idx.size:
            coordinates[host_idx] = _place_hosts_batched(
                delays[np.ix_(host_idx, landmark_idx)],
                landmark_coords,
                cfg.max_iterations,
                gen,
            )
    else:
        landmark_coords = _place_landmarks(
            landmark_delays, cfg.dimension, cfg.max_iterations, gen
        )
        coordinates[landmark_idx] = landmark_coords
        for host in host_idx:
            coordinates[host] = _place_host(
                delays[host, landmark_idx], landmark_coords, cfg.max_iterations, gen
            )
    return GNPCoordinates(coordinates, landmarks=landmark_idx.tolist())
