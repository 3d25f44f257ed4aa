"""Online streaming coordinate service (the live counterpart of the
batch harness).

The paper studies TIV damage to *live* systems — closest-node selection
and overlay construction under drifting latencies — so this package turns
the repo's frozen-matrix pipeline into an event-driven service:

* :mod:`repro.stream.events` — the event model (measurements plus
  join/leave churn), the :class:`Trace` container and its ``.npz`` I/O.
* :mod:`repro.stream.synth` — scenario-backed trace synthesis: any of the
  18 library scenarios doubles as a trace corpus via
  :func:`synthesize_trace` (CLI: ``repro make-trace``).
* :mod:`repro.stream.faults` — declarative, seed-deterministic fault
  injection (Byzantine liars, RTT spikes, clock skew, duplicates,
  flapping churn) over any trace (CLI: ``repro make-trace --faults``).
* :mod:`repro.stream.service` — :class:`StreamCoordinateService`, the
  long-lived state: an online Vivaldi embedding with height/error/rho
  (:mod:`repro.coords.online`), a rolling TIV-severity estimate over the
  observed edge set, live queries (``closest``, ``distance``,
  ``tiv_alert``) and an optional measurement defense
  (:class:`DefenseConfig`: adaptive residual gate + quarantine ledger).
* :mod:`repro.stream.replay` — trace replay with window-by-window
  accuracy/staleness metrics against the trace's ground-truth matrix
  (CLI: ``repro stream``), feeding the golden harness and the CI smoke
  job.
* :mod:`repro.stream.durability` — ``stream-checkpoint/v2`` snapshots
  (arrays as npz members) + a WAL that each checkpoint cuts, with
  :func:`recover` rebuilding bit-identical live state (CLI:
  ``repro stream --checkpoint-every/--resume``).
* :mod:`repro.stream.chaos` — the chaos sweep measuring defended vs
  undefended accuracy degradation against the fault rate (CLI:
  ``repro chaos``).
"""

from repro.stream.chaos import run_chaos
from repro.stream.durability import (
    WalWriter,
    load_checkpoint,
    read_wal,
    recover,
    save_checkpoint,
    state_fingerprint,
)
from repro.stream.events import (
    MeasurementEvent,
    NodeJoin,
    NodeLeave,
    Trace,
    load_trace,
    save_trace,
)
from repro.stream.faults import FaultSpec, apply_faults
from repro.stream.replay import StreamReport, replay_trace
from repro.stream.service import (
    DefenseConfig,
    StreamCoordinateService,
    StreamServiceConfig,
)
from repro.stream.synth import synthesize_trace

__all__ = [
    "MeasurementEvent",
    "NodeJoin",
    "NodeLeave",
    "Trace",
    "save_trace",
    "load_trace",
    "synthesize_trace",
    "FaultSpec",
    "apply_faults",
    "StreamCoordinateService",
    "StreamServiceConfig",
    "DefenseConfig",
    "StreamReport",
    "replay_trace",
    "save_checkpoint",
    "load_checkpoint",
    "WalWriter",
    "read_wal",
    "recover",
    "state_fingerprint",
    "run_chaos",
]
