"""Closest-neighbour selection experiment harness (§4.1 of the paper).

The paper evaluates every mechanism with the same protocol:

* **Coordinate-driven selection** (Vivaldi, IDES, LAT, dynamic-neighbour
  Vivaldi): a random subset of nodes are *candidates*, the rest are
  *clients*; each client picks the candidate with the smallest *predicted*
  delay; the quality of the pick is its *percentage penalty* relative to the
  candidate with the smallest *measured* delay.  The experiment is repeated
  (paper: 5 times) with fresh candidate subsets and the penalties pooled.

* **Meridian-driven selection**: a random subset of nodes form the Meridian
  overlay, the rest are clients; each client issues one recursive query from
  a random Meridian node; the penalty compares the returned node against the
  true closest Meridian node.  Probe counts are accumulated so the probing
  overhead of variants can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.coords.base import DelayPredictor
from repro.delayspace.matrix import DelayMatrix
from repro.errors import NeighborSelectionError
from repro.meridian.overlay import MeridianOverlay, RestartPolicy
from repro.meridian.rings import MeridianConfig
from repro.stats.cdf import ECDF
from repro.stats.rng import RngLike, ensure_rng, spawn_rngs


def percentage_penalty(selected_delay: float, optimal_delay: float) -> float:
    """Percentage penalty of a neighbour choice (§4.1).

    ``(delay_to_selected - delay_to_optimal) * 100 / delay_to_optimal``.
    A perfect choice scores 0.  When the optimal delay is zero the penalty
    is 0 for a perfect choice and ``inf`` otherwise.
    """
    if optimal_delay < 0 or selected_delay < 0:
        raise NeighborSelectionError("delays must be non-negative")
    if optimal_delay == 0:
        return 0.0 if selected_delay == 0 else float("inf")
    return (selected_delay - optimal_delay) * 100.0 / optimal_delay


@dataclass(frozen=True)
class NeighborSelectionResult:
    """Pooled outcome of one or more neighbour-selection runs.

    Attributes
    ----------
    penalties:
        Percentage penalty of every individual selection test.
    probes:
        Total number of on-demand probes issued (Meridian experiments only;
        zero for coordinate-driven selection).
    n_runs:
        Number of independent runs pooled into this result.
    exact_fraction:
        Fraction of tests that found the true closest neighbour
        (penalty == 0).
    """

    penalties: np.ndarray = field(repr=False)
    probes: int = 0
    n_runs: int = 1

    @property
    def exact_fraction(self) -> float:
        return float(np.count_nonzero(self.penalties <= 0.0) / self.penalties.size)

    def cdf(self) -> ECDF:
        """ECDF of the percentage penalties (the paper's standard plot).

        Infinite penalties (optimal delay of zero with an imperfect pick)
        are clamped to the largest finite penalty so the CDF stays defined.
        """
        values = np.array(self.penalties, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            replacement = values[finite].max() if finite.any() else 0.0
            values[~finite] = replacement
        return ECDF(values)

    def median_penalty(self) -> float:
        """Median percentage penalty."""
        return float(np.median(self.penalties[np.isfinite(self.penalties)]))

    def summary(self) -> dict[str, float]:
        """Scalar summary: what the figure runners report and the claims in DESIGN.md compare."""
        finite = self.penalties[np.isfinite(self.penalties)]
        return {
            "tests": float(self.penalties.size),
            "exact_fraction": self.exact_fraction,
            "median_penalty": float(np.median(finite)),
            "p90_penalty": float(np.quantile(finite, 0.90)),
            "mean_penalty": float(np.mean(finite)),
            "probes": float(self.probes),
        }

    @staticmethod
    def pooled(results: Sequence["NeighborSelectionResult"]) -> "NeighborSelectionResult":
        """Pool several runs into one result (concatenating penalties)."""
        if not results:
            raise NeighborSelectionError("cannot pool an empty result list")
        penalties = np.concatenate([r.penalties for r in results])
        probes = int(sum(r.probes for r in results))
        runs = int(sum(r.n_runs for r in results))
        return NeighborSelectionResult(penalties=penalties, probes=probes, n_runs=runs)


def select_by_predictor(
    matrix: DelayMatrix,
    predictor: DelayPredictor,
    candidates: Sequence[int],
    clients: Sequence[int],
) -> NeighborSelectionResult:
    """Run one coordinate-driven selection test per client.

    Each client chooses the candidate with the smallest delay *predicted* by
    ``predictor``; the penalty is computed against the candidate with the
    smallest *measured* delay.  A client never picks itself, and only
    candidates with a measured delay count; clients with none are skipped.
    Ties go to the first such candidate in ``candidates`` order, and a
    ``nan`` prediction wins over every number, as :func:`numpy.argmin` rules.

    All clients are scored at once over their (clients × candidates) block
    of the measured and predicted matrices.
    """
    return _select(matrix.values, predictor.predicted_matrix(), candidates, clients)


def _select(
    measured: np.ndarray,
    predicted: np.ndarray,
    candidates: Sequence[int],
    clients: Sequence[int],
) -> NeighborSelectionResult:
    """:func:`select_by_predictor` over an already computed predicted matrix."""
    if predicted.shape != measured.shape:
        raise NeighborSelectionError(
            "predictor and matrix cover a different number of nodes"
        )
    cand = np.asarray(list(candidates), dtype=int)
    if cand.size < 1:
        raise NeighborSelectionError("need at least one candidate")
    clients = np.asarray(list(clients), dtype=int)
    block = np.ix_(clients, cand)
    delays = measured[block]
    valid = np.isfinite(delays) & (cand[None, :] != clients[:, None])
    tested = valid.any(axis=1)
    if not tested.any():
        raise NeighborSelectionError("no client produced a valid selection test")
    delays, valid, guess = delays[tested], valid[tested], predicted[block][tested]

    # Pick the first valid column holding the row's smallest valid
    # prediction.  A nan makes that minimum nan and only nan columns match
    # it, so the first nan wins, as with argmin; matching the minimum rather
    # than argmin over an inf-masked row keeps a masked column from winning
    # when every valid prediction is +inf.
    best = np.where(valid, guess, np.inf).min(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        chosen = valid & ((guess == best) | np.isnan(guess))
    selected = delays[np.arange(delays.shape[0]), chosen.argmax(axis=1)]
    optimal = np.where(valid, delays, np.inf).min(axis=1)

    # percentage_penalty, element-wise: 0 or inf at a zero optimum.
    with np.errstate(divide="ignore", invalid="ignore"):
        penalties = (selected - optimal) * 100.0 / optimal
    zero = optimal == 0
    penalties[zero] = np.where(selected[zero] == 0, 0.0, np.inf)
    return NeighborSelectionResult(penalties=penalties, probes=0, n_runs=1)


class CoordinateSelectionExperiment:
    """The §4.1 coordinate-driven experiment (candidates vs clients, N runs).

    Parameters
    ----------
    matrix:
        The delay matrix.
    n_candidates:
        Size of each random candidate subset (paper: 200 out of 4000).
    n_runs:
        Number of candidate subsets to evaluate (paper: 5); penalties are
        pooled over runs.
    rng:
        Seed or generator controlling the candidate splits.  The splits are
        drawn once, here, so every predictor scored on this experiment sees
        the same ones.
    """

    def __init__(
        self,
        matrix: DelayMatrix,
        *,
        n_candidates: int = 200,
        n_runs: int = 5,
        rng: RngLike = 0,
    ):
        if n_candidates < 1 or n_candidates >= matrix.n_nodes:
            raise NeighborSelectionError(
                "n_candidates must be in [1, n_nodes)"
            )
        if n_runs < 1:
            raise NeighborSelectionError("n_runs must be >= 1")
        self._matrix = matrix
        self._splits = []
        for run_rng in spawn_rngs(rng, n_runs):
            permutation = run_rng.permutation(matrix.n_nodes)
            self._splits.append((permutation[:n_candidates], permutation[n_candidates:]))

    def splits(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return the (candidates, clients) split of each run."""
        return list(self._splits)

    def run(self, predictor: DelayPredictor) -> NeighborSelectionResult:
        """Evaluate ``predictor`` over all candidate/client splits."""
        predicted = predictor.predicted_matrix()
        results = [
            _select(self._matrix.values, predicted, candidates, clients)
            for candidates, clients in self.splits()
        ]
        return NeighborSelectionResult.pooled(results)


class MeridianSelectionExperiment:
    """The §4.1 Meridian-driven experiment.

    Parameters
    ----------
    matrix:
        The delay matrix.
    n_meridian:
        Number of nodes acting as Meridian nodes per run (paper: 2000 of
        4000 in the normal setting, 200 in the small idealised setting).
    config:
        Meridian parameters.
    n_runs:
        Number of independent Meridian-node subsets (paper: 5).
    max_clients:
        Optional cap (>= 1) on the number of clients evaluated per run
        (keeps the scaled-down experiments fast); ``None`` evaluates every
        client.
    rng:
        Seed or generator.
    overlay_kwargs:
        Extra keyword arguments forwarded to :class:`MeridianOverlay`
        (``full_membership``, ``excluded_edges``, ``membership_adjuster`` ...).
    restart_policy:
        Optional §5.3 restart policy applied to every query.
    """

    def __init__(
        self,
        matrix: DelayMatrix,
        *,
        n_meridian: int,
        config: MeridianConfig | None = None,
        n_runs: int = 5,
        max_clients: Optional[int] = None,
        rng: RngLike = 0,
        overlay_kwargs: Optional[dict] = None,
        restart_policy: RestartPolicy | None = None,
    ):
        if n_meridian < 2 or n_meridian >= matrix.n_nodes:
            raise NeighborSelectionError("n_meridian must be in [2, n_nodes)")
        if max_clients is not None and max_clients < 1:
            raise NeighborSelectionError("max_clients must be >= 1 (or None for every client)")
        self._matrix = matrix
        self._n_meridian = n_meridian
        self._config = config if config is not None else MeridianConfig()
        self._n_runs = n_runs
        self._max_clients = max_clients
        self._rng = ensure_rng(rng)
        self._overlay_kwargs = dict(overlay_kwargs or {})
        self._restart_policy = restart_policy

    def run(self) -> NeighborSelectionResult:
        """Run all Meridian selection rounds and pool the penalties."""
        n = self._matrix.n_nodes
        results = []
        for run_rng in spawn_rngs(self._rng, self._n_runs):
            permutation = run_rng.permutation(n)
            meridian_nodes = permutation[: self._n_meridian]
            clients = permutation[self._n_meridian:]
            if self._max_clients is not None and clients.size > self._max_clients:
                clients = clients[: self._max_clients]
            overlay = MeridianOverlay(
                self._matrix,
                meridian_nodes,
                self._config,
                rng=run_rng,
                **self._overlay_kwargs,
            )
            outcomes = overlay.closest_neighbor_query_batch(
                clients.tolist(), restart_policy=self._restart_policy
            )
            results.append(
                NeighborSelectionResult(
                    penalties=np.asarray([o.percentage_penalty for o in outcomes]),
                    probes=sum(o.probes for o in outcomes),
                    n_runs=1,
                )
            )
        return NeighborSelectionResult.pooled(results)
