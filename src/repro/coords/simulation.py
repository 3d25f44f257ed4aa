"""Round-based Vivaldi simulation with trace recording.

Section 3.2.1 of the paper characterises the behaviour of Vivaldi under TIV
with three kinds of traces:

* the per-edge prediction-error trace over time (Fig. 10, the 3-node
  example);
* the *oscillation range* of every edge — the spread between the maximum
  and minimum predicted distance observed during a simulation window
  (Fig. 11);
* node movement speed (in-text: median 1.61 ms/step, 90th percentile
  6.18 ms/step on DS²).

:class:`VivaldiSimulation` wraps a :class:`~repro.coords.vivaldi.VivaldiSystem`
and records all three while stepping it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.coords.base import squared_distance
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.delayspace.matrix import DelayMatrix
from repro.errors import EmbeddingError
from repro.stats.binning import BinnedStats, bin_by_value
from repro.stats.rng import RngLike

#: Steps of coordinates the oscillation tracker buffers before folding
#: them into the running extrema (bounds the buffer at d × 64 × N floats).
_FOLD_STEPS = 64


@dataclass(frozen=True)
class EmbeddingTrace:
    """Recorded traces of one Vivaldi simulation window.

    Attributes
    ----------
    times:
        Simulated time stamp of each recorded step (seconds).
    edge_errors:
        Mapping of tracked edge ``(i, j)`` to the per-step signed error
        ``predicted - measured`` (ms).
    oscillation_range:
        Per-edge ``max(predicted) - min(predicted)`` over the window, for
        every measured undirected edge (upper-triangle order), or ``None``
        when oscillation tracking was disabled.
    edge_delays:
        Measured delays of the same edges (upper-triangle order).
    movement_speeds:
        Per-step, per-node coordinate displacement magnitudes,
        shape ``(steps, n_nodes)``.
    """

    times: np.ndarray
    edge_errors: dict[tuple[int, int], np.ndarray] = field(repr=False)
    oscillation_range: Optional[np.ndarray] = field(repr=False, default=None)
    edge_delays: Optional[np.ndarray] = field(repr=False, default=None)
    movement_speeds: Optional[np.ndarray] = field(repr=False, default=None)

    def oscillation_vs_delay(self, *, bin_width: float = 10.0) -> BinnedStats:
        """Binned oscillation range per edge-delay bin (Fig. 11)."""
        if self.oscillation_range is None or self.edge_delays is None:
            raise EmbeddingError("oscillation tracking was not enabled for this trace")
        return bin_by_value(self.edge_delays, self.oscillation_range, bin_width=bin_width)

    def movement_speed_summary(self) -> dict[str, float]:
        """Median and 90th-percentile per-step node movement (ms/step)."""
        if self.movement_speeds is None:
            raise EmbeddingError("movement tracking was not enabled for this trace")
        flat = self.movement_speeds.ravel()
        return {
            "median": float(np.median(flat)),
            "p90": float(np.quantile(flat, 0.90)),
            "mean": float(np.mean(flat)),
        }


class VivaldiSimulation:
    """Step a Vivaldi system while recording error and oscillation traces.

    Parameters
    ----------
    matrix:
        Delay matrix to embed.
    config:
        Vivaldi parameters.
    rng:
        Seed or generator.
    neighbors:
        Optional explicit neighbour lists passed through to
        :class:`VivaldiSystem`.
    """

    def __init__(
        self,
        matrix: DelayMatrix,
        config: VivaldiConfig | None = None,
        *,
        rng: RngLike = None,
        neighbors: Optional[Sequence[Sequence[int]]] = None,
    ):
        self._system = VivaldiSystem(matrix, config, rng=rng, neighbors=neighbors)
        self._matrix = matrix

    @property
    def system(self) -> VivaldiSystem:
        """The underlying Vivaldi system (advances as the simulation runs)."""
        return self._system

    def run(
        self,
        seconds: int,
        *,
        track_edges: Sequence[tuple[int, int]] = (),
        track_oscillation: bool = False,
        track_movement: bool = False,
    ) -> EmbeddingTrace:
        """Run for ``seconds`` steps, recording the requested traces.

        Parameters
        ----------
        seconds:
            Number of one-second simulation steps.
        track_edges:
            Edges whose signed prediction error is recorded every step
            (Fig. 10 uses the three edges of the TIV triangle).
        track_oscillation:
            Record the running min/max predicted distance of every measured
            edge so the oscillation range can be reported (Fig. 11).  Each
            step's coordinates go into a buffer of up to 64 steps, one
            plane per axis; a full (or final) buffer is folded source row
            by source row into the N×N extrema of the squared distances,
            and the square roots are taken once, after the last step.  The
            squares are summed by
            :func:`~repro.coords.base.squared_distance`, as every predicted
            distance sums them, so the range equals the extrema of
            per-step ``predict_edges`` calls, and of ``predicted_matrix``
            entries, bit for bit.  Still the most expensive option.
        track_movement:
            Record per-node movement magnitudes each step.
        """
        if seconds < 1:
            raise EmbeddingError("seconds must be >= 1")
        tracked = [(int(i), int(j)) for i, j in track_edges]
        for i, j in tracked:
            if i == j:
                raise EmbeddingError("tracked edges need two distinct endpoints")

        times = np.zeros(seconds)
        measured = self._matrix.values

        # Tracked edges are recorded as one (steps, n_tracked) array filled
        # by one predict_edges gather per step.
        tracked_rows = np.asarray([i for i, _ in tracked], dtype=np.int64)
        tracked_cols = np.asarray([j for _, j in tracked], dtype=np.int64)
        tracked_errors = np.zeros((seconds, len(tracked)))
        tracked_measured = (
            measured[tracked_rows, tracked_cols].astype(float) if tracked else None
        )

        history = running_min = running_max = None
        filled = 0
        if track_oscillation:
            # Squared-distance extrema; sqrt is monotone, so it waits for
            # the end.
            n = self._system.n_nodes
            dimension = self._system.config.dimension
            history = np.empty((dimension, min(seconds, _FOLD_STEPS), n))
            running_min = np.full((n, n), np.inf)
            running_max = np.full((n, n), -np.inf)

        movements = np.zeros((seconds, self._system.n_nodes)) if track_movement else None

        for step in range(seconds):
            movement = self._system.step()
            times[step] = self._system.simulation_time
            if track_movement:
                movements[step] = movement
            if tracked:
                predicted = self._system.predict_edges(tracked_rows, tracked_cols)
                tracked_errors[step] = predicted - tracked_measured
            if track_oscillation:
                history[:, filled] = self._system.coordinates.T
                filled += 1
                if filled == history.shape[1] or step == seconds - 1:
                    _fold_squared_extrema(history[:, :filled], running_min, running_max)
                    filled = 0

        oscillation = None
        edge_delays = None
        if track_oscillation:
            rows, cols = self._matrix.edge_index_pairs()
            oscillation = np.sqrt(running_max[rows, cols]) - np.sqrt(running_min[rows, cols])
            edge_delays = measured[rows, cols].astype(float)

        return EmbeddingTrace(
            times=times,
            edge_errors={
                edge: tracked_errors[:, column] for column, edge in enumerate(tracked)
            },
            oscillation_range=oscillation,
            edge_delays=edge_delays,
            movement_speeds=movements,
        )


def _fold_squared_extrema(
    history: np.ndarray, running_min: np.ndarray, running_max: np.ndarray
) -> None:
    """Fold a ``(d, steps, N)`` block of per-axis coordinates into pair extrema.

    Updates the upper triangle of the N×N running minimum and maximum of
    the squared distance between every node pair, one source row at a
    time, in place.
    """
    for i in range(history.shape[2] - 1):
        squared = squared_distance(
            np.subtract(plane[:, i, None], plane[:, i + 1 :]) for plane in history
        )
        low = running_min[i, i + 1 :]
        high = running_max[i, i + 1 :]
        np.minimum(low, squared.min(axis=0), out=low)
        np.maximum(high, squared.max(axis=0), out=high)


def three_node_tiv_matrix(
    d_ab: float = 5.0, d_bc: float = 5.0, d_ca: float = 100.0
) -> DelayMatrix:
    """The 3-node TIV scenario of §3.2.1 (Fig. 10).

    By default ``d(A,B) = d(B,C) = 5`` ms and ``d(C,A) = 100`` ms, a blatant
    violation caused by inefficient routing on the CA path.
    """
    delays = np.array(
        [
            [0.0, d_ab, d_ca],
            [d_ab, 0.0, d_bc],
            [d_ca, d_bc, 0.0],
        ]
    )
    return DelayMatrix(delays, labels=("A", "B", "C"), symmetrize=False)
