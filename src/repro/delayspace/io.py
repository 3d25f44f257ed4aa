"""Loading and saving delay matrices.

Real deployments of the systems in this library (Vivaldi, Meridian) consume
measured delay matrices.  This module supports the two formats such data is
commonly shipped in:

* a dense NumPy ``.npz`` archive (``save_npz`` / ``load_npz``);
* a plain-text edge list of ``src dst rtt_ms`` lines, the format used by the
  p2psim/King and many PlanetLab measurement dumps (``load_edge_list`` /
  ``save_edge_list``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.delayspace.matrix import DelayMatrix
from repro.errors import DelayMatrixError

PathLike = Union[str, Path]


def save_npz(matrix: DelayMatrix, path: PathLike) -> None:
    """Save ``matrix`` (delays and labels) to a ``.npz`` archive at exactly ``path``.

    Labels are stored as a string array, so loading never unpickles.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        np.savez_compressed(
            handle,
            delays=matrix.to_array(),
            labels=np.asarray(matrix.labels, dtype=str),
        )


def load_npz(path: PathLike) -> DelayMatrix:
    """Load a delay matrix previously written by :func:`save_npz`.

    Pickled data (a whole-file pickle or an object-array member) is
    refused, never unpickled; it and any other unreadable file raise a
    :class:`DelayMatrixError` naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise DelayMatrixError(f"no such file: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            if "delays" not in data:
                raise DelayMatrixError(f"{path} does not contain a 'delays' array")
            delays = data["delays"]
            labels = [str(x) for x in data["labels"]] if "labels" in data else None
    except DelayMatrixError:
        raise
    except Exception as exc:
        raise DelayMatrixError(
            f"{path} is refused: not a pickle-free .npz delay matrix "
            f"({type(exc).__name__}: {exc})"
        ) from None
    return DelayMatrix(delays, labels=labels)


def save_edge_list(matrix: DelayMatrix, path: PathLike, *, header: bool = True) -> None:
    """Write the matrix as ``src dst rtt_ms`` lines (one undirected edge per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            handle.write("# src dst rtt_ms\n")
        for i, j, delay in matrix.edges():
            handle.write(f"{i} {j} {delay:.3f}\n")


def load_edge_list(path: PathLike, *, n_nodes: int | None = None) -> DelayMatrix:
    """Parse a ``src dst rtt_ms`` edge list into a :class:`DelayMatrix`.

    Parameters
    ----------
    path:
        Text file with one edge per line; lines starting with ``#`` are
        ignored.  Node identifiers must be non-negative integers.
    n_nodes:
        Total node count.  Defaults to ``max(node id) + 1``.
    """
    path = Path(path)
    if not path.exists():
        raise DelayMatrixError(f"no such file: {path}")

    sources: list[int] = []
    targets: list[int] = []
    delays: list[float] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise DelayMatrixError(
                    f"{path}:{line_no}: expected 'src dst rtt_ms', got {line!r}"
                )
            try:
                src, dst = int(parts[0]), int(parts[1])
                rtt = float(parts[2])
            except ValueError as exc:
                raise DelayMatrixError(f"{path}:{line_no}: {exc}") from exc
            if src < 0 or dst < 0:
                raise DelayMatrixError(f"{path}:{line_no}: node ids must be non-negative")
            if rtt < 0:
                raise DelayMatrixError(f"{path}:{line_no}: negative delay {rtt}")
            sources.append(src)
            targets.append(dst)
            delays.append(rtt)

    if not sources:
        raise DelayMatrixError(f"{path}: no edges found")
    inferred = max(max(sources), max(targets)) + 1
    size = n_nodes if n_nodes is not None else inferred
    if size < inferred:
        raise DelayMatrixError(
            f"n_nodes={size} is smaller than the largest node id {inferred - 1}"
        )

    data = np.full((size, size), np.nan)
    np.fill_diagonal(data, 0.0)
    for src, dst, rtt in zip(sources, targets, delays):
        data[src, dst] = rtt
        data[dst, src] = rtt
    return DelayMatrix(data, symmetrize=False)
