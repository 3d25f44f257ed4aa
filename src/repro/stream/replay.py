"""Trace replay: drive a service from a trace, score it window by window.

Replay is the streaming analogue of the batch figure runners: it feeds a
:class:`~repro.stream.events.Trace` through a
:class:`~repro.stream.service.StreamCoordinateService` and, at every
window boundary, scores the live embedding against the trace's
ground-truth matrix over a fixed, deterministically sampled edge set —
producing the accuracy/staleness *trajectory* (does the embedding
converge? how fast does it recover from churn?) instead of a single
converged number.  The resulting :class:`StreamReport` is what
``repro stream`` prints, what the golden harness snapshots and what the
CI smoke job asserts improvement on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.errors import StreamError
from repro.stream.events import MeasurementEvent, NodeJoin, Trace
from repro.stream.service import StreamCoordinateService, StreamServiceConfig
from repro.utils.io import write_json_report

#: Schema tag of the stream report payload.
STREAM_REPORT_SCHEMA = "stream-report/v1"

#: Closest-node answers (the lowest-id active nodes) and TIV-alert answers
#: (the worst rolling-severity edges) a report carries from the final state.
_REPORT_QUERIES = 8


@dataclass(frozen=True)
class StreamWindow:
    """Metrics of one replay window ``[t_start, t_end)``."""

    index: int
    t_start: float
    t_end: float
    events: int
    measurements: int
    joins: int
    leaves: int
    active_nodes: int
    evaluated_edges: int
    median_relative_error: float
    mean_relative_error: float
    mean_staleness: float
    max_staleness: float
    alert_fraction: float

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "events": self.events,
            "measurements": self.measurements,
            "joins": self.joins,
            "leaves": self.leaves,
            "active_nodes": self.active_nodes,
            "evaluated_edges": self.evaluated_edges,
            "median_relative_error": self.median_relative_error,
            "mean_relative_error": self.mean_relative_error,
            "mean_staleness": self.mean_staleness,
            "max_staleness": self.max_staleness,
            "alert_fraction": self.alert_fraction,
        }


@dataclass(frozen=True)
class StreamReport:
    """The full replay outcome: trajectory, totals and live-query answers."""

    trace_meta: dict
    window_seconds: float
    windows: tuple[StreamWindow, ...]
    totals: dict
    queries: dict = field(default_factory=dict)
    defense: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema": STREAM_REPORT_SCHEMA,
            "trace": dict(self.trace_meta),
            "window_seconds": self.window_seconds,
            "windows": [window.as_dict() for window in self.windows],
            "totals": dict(self.totals),
            "queries": dict(self.queries),
            "defense": dict(self.defense),
        }

    def write(self, path) -> None:
        """Write the report as diff-friendly JSON."""
        write_json_report(path, self.as_dict())


def _evaluation_edges(truth: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic sample of measured ground-truth edges to score on."""
    iu = np.triu_indices(truth.shape[0], k=1)
    values = truth[iu]
    keep = np.isfinite(values) & (values > 0)
    rows, cols = iu[0][keep], iu[1][keep]
    if rows.size > limit:
        rng = np.random.default_rng([rows.size & 0xFFFFFFFF, 0xEA1])
        chosen = np.sort(rng.choice(rows.size, size=int(limit), replace=False))
        rows, cols = rows[chosen], cols[chosen]
    return rows, cols


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-D array, bit for bit, without ``numpy.ma``.

    ``np.median`` imports ``numpy.ma`` on its first call to test for NaNs,
    which made the first scored window of a replay its slowest batch.  This
    runs the same steps: one partition at the middle order statistics and
    the last position (where any NaN sorts), the NaN found there if there
    is one, else the mean of the middle one or two values.
    """
    half = values.size // 2
    middle = [half] if values.size % 2 else [half - 1, half]
    part = np.partition(values, middle + [-1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[middle[0] : half + 1]))


def _window_metrics(
    index: int,
    t_start: float,
    t_end: float,
    counts: dict,
    service: StreamCoordinateService,
    truth: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    *,
    scored: bool = True,
) -> StreamWindow:
    if not scored:
        # A resumed replay cannot re-score windows that closed before the
        # recovery point: event counts come from the trace, live-state
        # metrics are honestly absent.
        return StreamWindow(
            index=index,
            t_start=float(t_start),
            t_end=float(t_end),
            events=int(counts["events"]),
            measurements=int(counts["measurements"]),
            joins=int(counts["joins"]),
            leaves=int(counts["leaves"]),
            active_nodes=service.n_active,
            evaluated_edges=0,
            median_relative_error=float("nan"),
            mean_relative_error=float("nan"),
            mean_staleness=float("nan"),
            max_staleness=float("nan"),
            alert_fraction=float("nan"),
        )
    # One batched prediction and one RTT gather score every sample edge
    # whose endpoints are both live; element by element they are the
    # scalar distance() and tiv_alert() answers, so every metric is too.
    is_active = service.embedding.is_active
    live = np.fromiter(
        (is_active(a) and is_active(b) for a, b in zip(rows.tolist(), cols.tolist())),
        dtype=bool,
        count=rows.size,
    )
    live_rows, live_cols = rows[live], cols[live]
    pairs = list(zip(live_rows.tolist(), live_cols.tolist()))
    predicted = service.distance_batch(pairs)
    actual = truth[live_rows, live_cols]
    errors_arr = np.abs(predicted - actual) / actual
    # An alert query needs an observed RTT for the edge; sample edges
    # without one are skipped rather than counted.
    observed = service.observed_rtt_batch(pairs)
    seen = ~np.isnan(observed)
    evaluated_alerts = int(np.count_nonzero(seen))
    alerts = int(
        np.count_nonzero(
            predicted[seen] / observed[seen] < service.config.alert_threshold
        )
    )
    staleness = service.staleness()
    return StreamWindow(
        index=index,
        t_start=float(t_start),
        t_end=float(t_end),
        events=int(counts["events"]),
        measurements=int(counts["measurements"]),
        joins=int(counts["joins"]),
        leaves=int(counts["leaves"]),
        active_nodes=service.n_active,
        evaluated_edges=int(errors_arr.size),
        median_relative_error=_median(errors_arr) if errors_arr.size else float("nan"),
        mean_relative_error=float(errors_arr.mean()) if errors_arr.size else float("nan"),
        mean_staleness=float(staleness["mean"]),
        max_staleness=float(staleness["max"]),
        alert_fraction=float(alerts / evaluated_alerts) if evaluated_alerts else float("nan"),
    )


def replay_trace(
    trace: Trace,
    *,
    config: StreamServiceConfig | None = None,
    window_seconds: float = 10.0,
    eval_edges: int = 512,
    rng=0,
    checkpoint_path=None,
    wal_path=None,
    checkpoint_every: int = 0,
    resume: bool = False,
    stop_after_events: int | None = None,
) -> StreamReport:
    """Replay ``trace`` through a service, scoring every window.

    Parameters
    ----------
    trace:
        The event stream plus ground truth to replay.
    config:
        Service parameters (defaults: the paper-faithful online Vivaldi
        with height and rho gravity).  Ignored on ``resume`` — the
        recovered checkpoint embeds its own config.
    window_seconds:
        Width of the scoring windows.
    eval_edges:
        Cap on the deterministically sampled ground-truth edges scored
        per window.
    rng:
        Seed of the service's random stream (coincident-coordinate
        pushes, witness sampling).  Replay is deterministic given
        ``(trace, config, rng)``.  Ignored on ``resume``.
    checkpoint_path:
        Where to write checkpoints (and, with ``resume``, where to read
        the one to restore).
    wal_path:
        Event log, one line per event, written before the event applies.
        Each periodic checkpoint, once in place, cuts it (empties it), so
        it holds at most ``checkpoint_every`` lines.  With ``resume`` the
        WAL suffix beyond the checkpoint is replayed first, then
        appended to.
    checkpoint_every:
        Checkpoint after every N applied events (0 disables periodic
        checkpoints; a final checkpoint is still written when
        ``checkpoint_path`` is set).
    resume:
        Recover live state from ``checkpoint_path`` (+ ``wal_path``) and
        continue the replay from the first unapplied event.  Windows
        that closed entirely before the recovery point are reported with
        event counts only (their live-state metrics are ``nan`` — the
        past cannot be re-scored); every window from the recovery point
        on, and the final state fingerprint, are bit-identical to an
        uninterrupted replay.
    stop_after_events:
        Stop applying after this many total events (simulating a crash
        at an exact point; used by the recovery tests and the chaos CI
        job).
    """
    if window_seconds <= 0:
        raise StreamError("window_seconds must be > 0")
    if not trace.events:
        raise StreamError("cannot replay an empty trace")
    if checkpoint_every < 0:
        raise StreamError("checkpoint_every must be >= 0")
    if resume and checkpoint_path is None:
        raise StreamError("resume requires a checkpoint_path")

    if resume:
        from repro.stream.durability import recover

        service = recover(checkpoint_path, wal_path)
        skip = service.n_events
        if skip > trace.n_events:
            raise StreamError(
                f"checkpoint covers {skip} events but the trace has only "
                f"{trace.n_events}; wrong trace for this checkpoint?"
            )
    else:
        service = StreamCoordinateService(config, rng=rng)
        skip = 0

    wal = None
    if wal_path is not None:
        from repro.stream.durability import WalWriter

        wal = WalWriter(wal_path, append=resume)

    truth = trace.ground_truth
    rows, cols = _evaluation_edges(truth, int(eval_edges))

    t0 = float(trace.events[0].t)
    windows: list[StreamWindow] = []
    counts = {"events": 0, "measurements": 0, "joins": 0, "leaves": 0}
    boundary = t0 + window_seconds
    applied = skip
    stopped = False

    def close_window(t_end: float, *, scored: bool) -> None:
        windows.append(
            _window_metrics(
                len(windows),
                boundary - window_seconds,
                t_end,
                counts,
                service,
                truth,
                rows,
                cols,
                scored=scored,
            )
        )
        counts.update(events=0, measurements=0, joins=0, leaves=0)

    try:
        for index, event in enumerate(trace.events):
            while event.t >= boundary:
                # A window that closed before the recovery point cannot be
                # re-scored against live state the service no longer is in.
                close_window(boundary, scored=index >= skip)
                boundary += window_seconds
            if index < skip:
                # Already inside the recovered state; replay the window
                # bookkeeping (derivable from the trace alone) only.
                pass
            else:
                if stop_after_events is not None and applied >= stop_after_events:
                    stopped = True
                    break
                if wal is not None:
                    wal.log(index, event)
                service.apply(event)
                applied += 1
                if (
                    checkpoint_path is not None
                    and checkpoint_every
                    and applied % checkpoint_every == 0
                ):
                    from repro.stream.durability import save_checkpoint

                    save_checkpoint(service, checkpoint_path)
                    if wal is not None:
                        # The checkpoint covers every logged event.
                        wal.cut()
            counts["events"] += 1
            if isinstance(event, MeasurementEvent):
                counts["measurements"] += 1
            elif isinstance(event, NodeJoin):
                counts["joins"] += 1
            else:
                counts["leaves"] += 1
        # The final window ends at the last event (or, for a simulated
        # crash, the service clock), not at the next nominal boundary —
        # otherwise its span could extend a full window_seconds past the
        # trace and misstate the window's time coverage.
        t_final = service.clock if stopped else float(trace.events[-1].t)
        close_window(min(boundary, t_final), scored=True)
    finally:
        if wal is not None:
            wal.close()
    if checkpoint_path is not None and not stopped:
        # A simulated crash gets no graceful final checkpoint — recovery
        # must work from the last periodic checkpoint plus the WAL.
        from repro.stream.durability import save_checkpoint

        save_checkpoint(service, checkpoint_path)

    from repro.stream.durability import state_fingerprint

    scored = [w for w in windows if np.isfinite(w.median_relative_error)]
    first = scored[0] if scored else None
    last = scored[-1] if scored else None
    defense = service.defense_stats()
    totals = {
        "events": trace.n_events,
        "windows": len(windows),
        "final_active_nodes": service.n_active,
        "observed_edges": service.n_observed_edges,
        "dropped_measurements": service.dropped_measurements,
        "rejected_measurements": defense["rejected_measurements"],
        "quarantined_nodes": defense["quarantined_nodes"],
        "ever_quarantined_nodes": defense["ever_quarantined_nodes"],
        "late_dropped_events": defense["late_dropped_events"],
        "first_window_median_relative_error": (
            first.median_relative_error if first else float("nan")
        ),
        "last_window_median_relative_error": (
            last.median_relative_error if last else float("nan")
        ),
        "accuracy_improved": bool(
            first is not None
            and last is not None
            and last.median_relative_error < first.median_relative_error
        ),
        "final_mean_staleness": service.staleness()["mean"],
        "state_fingerprint": state_fingerprint(service),
    }
    if resume:
        totals["resumed_at_event"] = int(skip)
    if stopped:
        totals["stopped_after_events"] = int(applied)

    queries: dict = {"closest": [], "tiv_alerts": []}
    nodes = service.active_nodes()[:_REPORT_QUERIES]
    for node, ranked in zip(nodes, service.closest_batch(nodes, k=1)):
        if ranked:
            peer, predicted = ranked[0]
            queries["closest"].append(
                {"node": int(node), "closest": int(peer), "predicted": float(predicted)}
            )
    worst = service.worst_edges(_REPORT_QUERIES)
    verdicts = service.tiv_alert_batch([edge for edge, _ in worst])
    for (edge, severity), verdict in zip(worst, verdicts):
        queries["tiv_alerts"].append(
            {
                "edge": [int(edge[0]), int(edge[1])],
                "severity_estimate": float(severity),
                "ratio": float(verdict["ratio"]),
                "alerted": bool(verdict["alerted"]),
            }
        )

    return StreamReport(
        trace_meta=dict(trace.meta),
        window_seconds=float(window_seconds),
        windows=tuple(windows),
        totals=totals,
        queries=queries,
        defense=defense,
    )
