"""The stream event model and trace container.

A *trace* is a time-ordered sequence of three event kinds — node joins,
node leaves and delay measurements — plus the ground-truth delay matrix
the measurements were drawn from (so replay can score the live embedding
against the truth at any point).  Traces are plain data: synthesised by
:mod:`repro.stream.synth`, persisted as a single compressed ``.npz`` (the
events packed into parallel arrays, the metadata as embedded JSON) and
replayed by :mod:`repro.stream.replay`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import StreamError
from repro.utils import is_integer

PathLike = Union[str, Path]

#: Schema tag of the on-disk trace files.
TRACE_SCHEMA = "stream-trace/v1"

#: Event-kind codes of the packed array representation.
_KIND_MEASUREMENT = 0
_KIND_JOIN = 1
_KIND_LEAVE = 2


@dataclass(frozen=True)
class MeasurementEvent:
    """``src`` measured ``rtt`` milliseconds to ``dst`` at time ``t``."""

    t: float
    src: int
    dst: int
    rtt: float


@dataclass(frozen=True)
class NodeJoin:
    """``node`` entered the system at time ``t``."""

    t: float
    node: int


@dataclass(frozen=True)
class NodeLeave:
    """``node`` left the system at time ``t``."""

    t: float
    node: int


Event = Union[MeasurementEvent, NodeJoin, NodeLeave]


@dataclass(frozen=True)
class Trace:
    """A replayable event stream plus its ground truth.

    Attributes
    ----------
    events:
        Time-ordered events.  Ties are meaningful: replay processes the
        tuple in order, so churn scheduled "at" a second lands before that
        second's measurements.
    ground_truth:
        The ``(n, n)`` delay matrix measurements were sampled from
        (``nan`` marks unmeasured edges).  Node ids in the events are
        integers (numpy integers included) that index into this matrix.
    meta:
        Provenance of the synthesis (preset, scenario, seed, duration,
        rates) — carried into stream reports, never interpreted by
        replay.
    ordered:
        Whether the trace promises time-ordered events.  ``True`` (the
        default) enforces the ordering invariant at construction; fault
        injection (:mod:`repro.stream.faults`) sets ``False`` when clock
        skew produced a genuinely out-of-order stream, which only a
        defended service replays without error.
    """

    events: tuple[Event, ...]
    ground_truth: np.ndarray
    meta: dict = field(default_factory=dict)
    ordered: bool = True

    def __post_init__(self) -> None:
        truth = np.asarray(self.ground_truth, dtype=float)
        if truth.ndim != 2 or truth.shape[0] != truth.shape[1]:
            raise StreamError(
                f"ground_truth must be a square matrix, got shape {truth.shape}"
            )
        object.__setattr__(self, "ground_truth", truth)
        object.__setattr__(self, "events", tuple(self.events))
        times = [event.t for event in self.events]
        if self.ordered and any(b < a for a, b in zip(times, times[1:])):
            raise StreamError("trace events must be ordered by time")
        n = truth.shape[0]
        for event in self.events:
            if isinstance(event, MeasurementEvent):
                if event.src == event.dst:
                    raise StreamError(
                        f"measurement at t={event.t} is a self-measurement "
                        f"of node {event.src}"
                    )
                ids = (event.src, event.dst)
            else:
                ids = (event.node,)
            for node in ids:
                if type(node) is not int and not is_integer(node):
                    # 1.7 and True would be saved as nodes 1 and 1.
                    raise StreamError(
                        f"event at t={event.t} names node {node!r}, not an integer id"
                    )
                if not 0 <= node < n:
                    raise StreamError(
                        f"event references node {node}, outside the "
                        f"{n}-node ground truth"
                    )

    @property
    def n_nodes(self) -> int:
        """Node count of the ground-truth matrix."""
        return int(self.ground_truth.shape[0])

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def duration(self) -> float:
        """Time span covered by the events (0 for an empty trace)."""
        if not self.events:
            return 0.0
        return float(max(e.t for e in self.events)) - float(
            min(e.t for e in self.events)
        )

    @property
    def out_of_order_count(self) -> int:
        """Adjacent event pairs whose timestamps regress (0 when ordered)."""
        times = [event.t for event in self.events]
        return sum(1 for a, b in zip(times, times[1:]) if b < a)

    def counts(self) -> dict[str, int]:
        """Event counts by kind."""
        out = {"measurements": 0, "joins": 0, "leaves": 0}
        for event in self.events:
            if isinstance(event, MeasurementEvent):
                out["measurements"] += 1
            elif isinstance(event, NodeJoin):
                out["joins"] += 1
            else:
                out["leaves"] += 1
        return out


def _pack_events(events: tuple[Event, ...]):
    n = len(events)
    kind = np.zeros(n, dtype=np.int8)
    t = np.zeros(n, dtype=float)
    a = np.zeros(n, dtype=np.int64)
    b = np.full(n, -1, dtype=np.int64)
    rtt = np.full(n, np.nan, dtype=float)
    for index, event in enumerate(events):
        t[index] = event.t
        if isinstance(event, MeasurementEvent):
            kind[index] = _KIND_MEASUREMENT
            a[index] = event.src
            b[index] = event.dst
            rtt[index] = event.rtt
        elif isinstance(event, NodeJoin):
            kind[index] = _KIND_JOIN
            a[index] = event.node
        else:
            kind[index] = _KIND_LEAVE
            a[index] = event.node
    return kind, t, a, b, rtt


def _unpack_events(kind, t, a, b, rtt) -> tuple[Event, ...]:
    lengths = {len(kind), len(t), len(a), len(b), len(rtt)}
    if len(lengths) != 1:
        raise StreamError(
            "trace event arrays disagree in length "
            f"(kind={len(kind)}, t={len(t)}, a={len(a)}, b={len(b)}, rtt={len(rtt)})"
        )
    events: list[Event] = []
    for k, tk, ak, bk, rk in zip(kind, t, a, b, rtt):
        if k == _KIND_MEASUREMENT:
            events.append(MeasurementEvent(float(tk), int(ak), int(bk), float(rk)))
        elif k == _KIND_JOIN:
            events.append(NodeJoin(float(tk), int(ak)))
        elif k == _KIND_LEAVE:
            events.append(NodeLeave(float(tk), int(ak)))
        else:
            raise StreamError(f"unknown event kind code {int(k)} in trace file")
    return tuple(events)


def save_trace(trace: Trace, path: PathLike) -> None:
    """Persist a trace as one compressed ``.npz`` file at exactly ``path``."""
    kind, t, a, b, rtt = _pack_events(trace.events)
    meta = {"schema": TRACE_SCHEMA, "ordered": trace.ordered, **trace.meta}
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            kind=kind,
            t=t,
            a=a,
            b=b,
            rtt=rtt,
            ground_truth=trace.ground_truth,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        )


def load_trace(path: PathLike) -> Trace:
    """Load a trace written by :func:`save_trace`.

    Every failure mode of a damaged file — truncation mid-archive, a
    corrupted member, garbage bytes, a missing array, undecodable
    metadata — surfaces as a typed :class:`StreamError` naming the path
    (mirroring the artifact cache's corrupt-entry handling), never as a
    raw ``zipfile``/``numpy``/``KeyError`` traceback.
    """
    path = Path(path)
    if not path.exists():
        raise StreamError(f"trace file not found: {path}")
    try:
        with np.load(path) as data:
            try:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                events = _unpack_events(
                    data["kind"], data["t"], data["a"], data["b"], data["rtt"]
                )
                truth = data["ground_truth"]
            except KeyError as exc:
                raise StreamError(
                    f"{path} is not a stream trace (missing {exc})"
                ) from None
    except StreamError:
        raise
    except Exception as exc:
        # zipfile.BadZipFile (truncated archive), ValueError (not an npz /
        # corrupted member), OSError/EOFError (short reads), JSON or
        # unicode errors in the meta blob — all mean the same thing to the
        # caller: this trace file is unusable.
        raise StreamError(
            f"trace file {path} is truncated or corrupted ({type(exc).__name__}: {exc})"
        ) from exc
    if meta.pop("schema", None) != TRACE_SCHEMA:
        raise StreamError(f"{path} is not a {TRACE_SCHEMA} file")
    ordered = bool(meta.pop("ordered", True))
    try:
        return Trace(events=events, ground_truth=truth, meta=meta, ordered=ordered)
    except StreamError as exc:
        raise StreamError(f"trace file {path} holds an invalid trace: {exc}") from None
