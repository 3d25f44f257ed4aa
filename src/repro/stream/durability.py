"""Checkpoint + write-ahead-log durability for the streaming service.

The service's whole value is its accumulated live state — an embedding
that took the full trace to converge.  This module makes that state
survive a crash with a classic two-piece recovery protocol:

* **Checkpoints** (:func:`save_checkpoint` / :func:`load_checkpoint`):
  the complete :meth:`~repro.stream.service.StreamCoordinateService.state_dict`
  persisted as a schema-tagged ``stream-checkpoint/v2`` ``.npz``.  Every
  array is a plain (uncompressed) npz member: the embedding's
  full-capacity arrays and the edge memory (``edge_ids``, ``edge_obs``,
  ``severity_ids``, ``severity``, rows sorted by id pair).  An embedded
  JSON blob holds the rest: config, RNG bit-generator state, slot map,
  free-slot stack, counters and defense ledger.  Writes go through a
  temp file + atomic rename so a crash mid-checkpoint never leaves a
  torn file where a good one stood.  A file with any other schema tag is
  refused.
* **The WAL** (:class:`WalWriter` / :func:`read_wal`): a JSONL log of
  the events applied since the last checkpoint, each line carrying its
  global sequence number and flushed before the event is applied.  The
  replay loop empties it (:meth:`WalWriter.cut`) once a checkpoint that
  covers every logged line is in place, so it holds at most one
  checkpoint interval.  A line is complete once its newline is written;
  a torn final line (the crash landed mid-write) is dropped, and a
  resumed writer cuts it off before appending.  Damage anywhere else
  raises a typed :class:`StreamError` naming the path.

:func:`recover` composes them: restore the newest checkpoint, then
re-apply the WAL suffix (``seq >= checkpoint.n_events``).  Because the
checkpoint captures *every* input to future behaviour — including the
shared RNG stream and the embedding's free-slot stack — the recovered
service is **bit-identical** to one that never stopped, which
:func:`state_fingerprint` makes cheap to assert: two services with equal
fingerprints answer every query identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from repro.errors import StreamError
from repro.stream.events import Event, MeasurementEvent, NodeJoin, NodeLeave
from repro.stream.service import StreamCoordinateService, _node_id

PathLike = Union[str, Path]

#: Schema tag of the checkpoint files :func:`save_checkpoint` writes and
#: :func:`load_checkpoint` reads.
CHECKPOINT_SCHEMA = "stream-checkpoint/v2"

#: Embedding arrays stored as npz members instead of inside the JSON blob.
_ARRAY_KEYS = ("coords", "heights", "errors", "last_update", "update_counts")

#: Edge-memory arrays of the service state, also stored as npz members.
_EDGE_KEYS = ("edge_ids", "edge_obs", "severity_ids", "severity")


def _split_state(state: dict) -> tuple[dict, dict]:
    """Split a service state into its JSON-safe part and its named arrays."""
    state = dict(state)
    embedding = dict(state["embedding"])
    arrays = {key: np.asarray(embedding.pop(key)) for key in _ARRAY_KEYS}
    arrays.update((key, np.asarray(state.pop(key))) for key in _EDGE_KEYS)
    state["embedding"] = embedding
    return state, arrays


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(service: StreamCoordinateService, path: PathLike) -> None:
    """Persist the service's complete state as one ``.npz`` checkpoint.

    The write is atomic (temp file + rename): a crash during the save
    leaves either the previous checkpoint or the new one, never a torn
    file.
    """
    path = Path(path)
    state, arrays = _split_state(service.state_dict())
    blob = json.dumps({"schema": CHECKPOINT_SCHEMA, "state": state})
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez(
            handle,
            state=np.frombuffer(blob.encode("utf-8"), dtype=np.uint8),
            **arrays,
        )
    tmp.replace(path)


def load_checkpoint(path: PathLike) -> StreamCoordinateService:
    """Restore a service from a checkpoint written by :func:`save_checkpoint`.

    Reads ``stream-checkpoint/v2`` files only.  Damaged files —
    truncation, corrupt members, missing arrays, any other schema tag —
    surface as typed :class:`StreamError`\\ s naming the path, mirroring
    :func:`repro.stream.events.load_trace`.
    """
    path = Path(path)
    if not path.exists():
        raise StreamError(f"checkpoint file not found: {path}")
    try:
        with np.load(path) as data:
            try:
                payload = json.loads(bytes(data["state"]).decode("utf-8"))
                schema = payload.get("schema")
                if schema != CHECKPOINT_SCHEMA:
                    raise StreamError(f"{path} has schema {schema!r}, not {CHECKPOINT_SCHEMA}")
                arrays = {key: np.array(data[key]) for key in _ARRAY_KEYS + _EDGE_KEYS}
            except KeyError as exc:
                raise StreamError(
                    f"{path} is not a stream checkpoint (missing {exc})"
                ) from None
    except StreamError:
        raise
    except Exception as exc:
        raise StreamError(
            f"checkpoint file {path} is truncated or corrupted "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    try:
        state = payload["state"]
        state["embedding"] = {
            **state["embedding"],
            **{key: arrays.pop(key) for key in _ARRAY_KEYS},
        }
        state.update(arrays)
        return StreamCoordinateService.from_state(state)
    except StreamError:
        raise
    except Exception as exc:
        raise StreamError(
            f"checkpoint file {path} holds an invalid state ({exc})"
        ) from exc


# -- the write-ahead log -------------------------------------------------------


def _encode_event(seq: int, event: Event) -> dict:
    """The WAL record of ``event``, its node ids as Python ints.

    A numpy-integer id is written as the equal int.  A float or ``bool``
    id raises :class:`StreamError`: 2.0 and True would read back as nodes
    2 and 1.
    """
    if isinstance(event, MeasurementEvent):
        return {
            "seq": seq,
            "kind": "measure",
            "t": event.t,
            "src": _node_id(event.src),
            "dst": _node_id(event.dst),
            "rtt": event.rtt,
        }
    if isinstance(event, NodeJoin):
        return {"seq": seq, "kind": "join", "t": event.t, "node": _node_id(event.node)}
    if isinstance(event, NodeLeave):
        return {"seq": seq, "kind": "leave", "t": event.t, "node": _node_id(event.node)}
    raise StreamError(f"cannot log unknown stream event {event!r}")


def _wal_line(seq: int, event: Event) -> str:
    """``json.dumps(_encode_event(seq, event)) + "\\n"``, formatted directly.

    An exact ``int`` and a finite exact ``float`` print as ``json.dumps``
    prints them (``int.__repr__``, ``float.__repr__``), between the same
    keys and separators.  Everything else — ``nan`` and ``±inf``, numpy
    scalars, ``bool`` and other subclasses, unknown event types — goes
    through :func:`_encode_event` and ``json.dumps``, which write it or
    refuse it before anything reaches the log.
    """
    cls = type(event)
    if cls is MeasurementEvent:
        t, src, dst, rtt = event.t, event.src, event.dst, event.rtt
        if (
            type(t) is float
            and type(rtt) is float
            and type(src) is int
            and type(dst) is int
            and math.isfinite(t)
            and math.isfinite(rtt)
        ):
            return (
                f'{{"seq": {seq}, "kind": "measure", "t": {t!r}, '
                f'"src": {src}, "dst": {dst}, "rtt": {rtt!r}}}\n'
            )
    elif cls is NodeJoin or cls is NodeLeave:
        t, node = event.t, event.node
        if type(t) is float and type(node) is int and math.isfinite(t):
            kind = "join" if cls is NodeJoin else "leave"
            return f'{{"seq": {seq}, "kind": "{kind}", "t": {t!r}, "node": {node}}}\n'
    return json.dumps(_encode_event(seq, event)) + "\n"


def _decode_event(record: dict) -> tuple[int, Event]:
    kind = record["kind"]
    if kind == "measure":
        event: Event = MeasurementEvent(
            float(record["t"]), int(record["src"]), int(record["dst"]),
            float(record["rtt"]),
        )
    elif kind == "join":
        event = NodeJoin(float(record["t"]), int(record["node"]))
    elif kind == "leave":
        event = NodeLeave(float(record["t"]), int(record["node"]))
    else:
        raise KeyError(f"unknown WAL event kind {kind!r}")
    return int(record["seq"]), event


class WalWriter:
    """JSONL event log, appended and flushed line by line.

    Each :meth:`log` call writes one self-describing line (sequence
    number, event kind, payload) and its newline, and flushes them, so
    after a crash the log is complete up to — at worst — one torn final
    line without its newline, which :func:`read_wal` drops.  With
    ``append`` the log is first cut back to its last complete line, so
    the next line does not land on a torn one.  :meth:`cut` empties the
    log once a checkpoint covers all of it.
    """

    def __init__(self, path: PathLike, *, append: bool = False):
        self._path = Path(path)
        if append and self._path.exists():
            with open(self._path, "r+b") as handle:
                handle.truncate(handle.read().rfind(b"\n") + 1)
        self._handle = open(self._path, "a" if append else "w", encoding="utf-8")

    def log(self, seq: int, event: Event) -> None:
        """Append one event under global sequence number ``seq``."""
        self._handle.write(_wal_line(int(seq), event))
        self._handle.flush()

    def cut(self) -> None:
        """Empty the log: a checkpoint already covers every logged event.

        Call it only after that checkpoint is in place.  A crash between
        the two leaves the full log, whose covered prefix :func:`recover`
        skips.
        """
        self._handle.seek(0)
        self._handle.truncate()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_wal(path: PathLike) -> list[tuple[int, Event]]:
    """Read a WAL back as ``(seq, event)`` pairs.

    A final line without its newline — the signature of a crash
    mid-write — is torn and silently dropped, even if what survived
    parses: its event never finished logging, so it was never applied.
    An undecodable complete line means real corruption and raises a
    typed :class:`StreamError` naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise StreamError(f"WAL file not found: {path}")
    entries: list[tuple[int, Event]] = []
    text = path.read_text(encoding="utf-8")
    lines = text[: text.rfind("\n") + 1].splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entries.append(_decode_event(json.loads(line)))
        except Exception as exc:
            raise StreamError(
                f"WAL file {path} is corrupted at line {index + 1} "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    for (seq_a, _), (seq_b, _) in zip(entries, entries[1:]):
        if seq_b != seq_a + 1:
            raise StreamError(
                f"WAL file {path} has a sequence gap ({seq_a} -> {seq_b})"
            )
    return entries


# -- recovery ------------------------------------------------------------------


def recover(
    checkpoint_path: PathLike,
    wal_path: PathLike | None = None,
) -> StreamCoordinateService:
    """Restore a service from a checkpoint plus the WAL suffix beyond it.

    WAL entries the checkpoint already covers (``seq < n_events``) are
    skipped: a log cut at that checkpoint holds none, a log a crash left
    uncut holds the whole covered prefix.  The rest must form a gapless
    continuation or recovery
    refuses with a typed error (silently resuming over a hole would
    corrupt the embedding while claiming bit-identity).
    """
    service = load_checkpoint(checkpoint_path)
    if wal_path is not None and Path(wal_path).exists():
        for seq, event in read_wal(wal_path):
            if seq < service.n_events:
                continue
            if seq != service.n_events:
                raise StreamError(
                    f"WAL {wal_path} starts at seq {seq} but the checkpoint "
                    f"covers only {service.n_events} events; refusing to "
                    "recover across the gap"
                )
            service.apply(event)
    return service


# -- state fingerprinting ------------------------------------------------------


def state_fingerprint(service: StreamCoordinateService) -> str:
    """SHA-256 over the service's canonical complete state.

    Two services with equal fingerprints hold bit-identical live state —
    coordinates, heights, errors, edge memory, severity EWMAs, defense
    ledger and RNG stream — and therefore answer every future query and
    process every future event identically.  The digest covers each
    array of the checkpoint layout (name, dtype, shape, bytes; the edge
    arrays are already sorted by id pair), then the JSON-safe remainder
    dumped with sorted keys and the suspicion and probation ledgers as
    sorted item lists, so dict order never changes it.
    """
    state, arrays = _split_state(service.state_dict())
    digest = hashlib.sha256()
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    state["suspicion"] = sorted(state["suspicion"].items())
    state["probation"] = sorted(state["probation"].items())
    digest.update(json.dumps(state, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()
