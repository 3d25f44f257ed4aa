"""Content-addressed on-disk cache for expensive experiment artefacts.

The experiment harness recomputes a handful of expensive intermediates — the
synthetic delay matrices, their TIV severities, all-pairs shortest paths, the
converged Vivaldi embedding and the TIV alert built from it — for every run.
:class:`ArtifactCache` persists each of them once, keyed by a stable hash of
the parameters that fully determine it (dataset preset, node count, seed,
…), so a repeated run of the same configuration is served entirely from
disk and a parallel run shares the artefacts across worker processes.

Each cache entry is a pair of files under ``<root>/<kind>/``:

* ``<key>.npz`` — the numpy arrays of the artefact, stored uncompressed
  (``np.savez``): zlib was the only cost a same-run restore paid, and
  ``np.load`` reads compressed archives written by older releases alike;
* ``<key>.json`` — the generating parameters plus small scalar metadata.

:meth:`ArtifactCache.store_raw` / :meth:`~ArtifactCache.load_raw` keep a
retired second layout (uncompressed ``<key>__<name>.npy`` files beside the
``.json``, restored as memory maps) that no artifact node writes any more;
``repro cache prune`` evicts such entries.

Writes are atomic (temp file + ``os.replace``) so concurrent workers racing
to store the same entry cannot corrupt it; a corrupted or truncated entry is
detected on load, deleted, and treated as a miss so the artefact is simply
recomputed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Union

import numpy as np

PathLike = Union[str, Path]

#: Generation-schema tag mixed into every cache key.  Bump it whenever the
#: code that *produces* cached artefacts changes behaviour (synthetic-space
#: generation, severity definition, Vivaldi update rule, ...) so persistent
#: cache directories from older versions are invalidated instead of
#: silently serving stale artefacts.
CACHE_SCHEMA = "artifact-cache/v1"

#: File-name prefix of in-flight atomic writes (``<kind>/.tmp-<file>-XXXX``).
#: A writer killed mid-store leaves one behind; ``repro cache prune``
#: removes them.
TEMP_PREFIX = ".tmp-"


def stable_key(kind: str, params: Mapping[str, Any]) -> str:
    """Return a stable content-address for an artefact.

    The key is a SHA-256 over the canonical JSON encoding of the cache
    schema tag, ``kind`` and ``params``; any two processes computing the
    same artefact from the same parameters therefore agree on the address,
    and entries written by incompatible generator versions never collide.
    """
    payload = json.dumps(
        # Normalise params first so semantically equal values address the
        # same entry regardless of type (np.int64(48) vs 48 would otherwise
        # hash differently: default=str turns only the numpy one into "48").
        {"schema": CACHE_SCHEMA, "kind": kind, "params": _jsonable(dict(params))},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def config_fingerprint(config) -> dict[str, Any]:
    """Stable dictionary view of an :class:`ExperimentConfig`-like dataclass."""
    return dataclasses.asdict(config)


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(hits=self.hits, misses=self.misses, stores=self.stores)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``earlier`` was snapshotted."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
        )

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other``'s counters into this instance.

        The single place report totals are summed (engine run reports and
        scenario-matrix reports both delegate here), so a future counter
        cannot be totalled in one report and silently dropped in another.
        """
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores

    @property
    def all_hits(self) -> bool:
        """True when the cache was touched and never missed (a warm run)."""
        return self.misses == 0 and self.hits > 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


@dataclass(frozen=True)
class CacheEntry:
    """A loaded cache entry: the arrays plus the stored scalar metadata."""

    arrays: dict[str, np.ndarray] = field(repr=False)
    meta: dict[str, Any] = field(default_factory=dict)


class ArtifactCache:
    """Content-addressed artefact store rooted at one directory.

    Parameters
    ----------
    root:
        Cache directory; created on first store.
    """

    def __init__(self, root: PathLike):
        self._root = Path(root)
        self.stats = CacheStats()

    @property
    def root(self) -> Path:
        """The cache root directory."""
        return self._root

    def _paths(self, kind: str, params: Mapping[str, Any]) -> tuple[Path, Path]:
        key = stable_key(kind, params)
        base = self._root / kind
        return base / f"{key}.npz", base / f"{key}.json"

    def _raw_path(self, meta_path: Path, name: str) -> Path:
        return meta_path.with_name(f"{meta_path.stem}__{name}.npy")

    def contains(self, kind: str, params: Mapping[str, Any]) -> bool:
        """True when an entry for ``(kind, params)`` exists (no stats update)."""
        npz_path, meta_path = self._paths(kind, params)
        return npz_path.exists() and meta_path.exists()

    def load(self, kind: str, params: Mapping[str, Any]) -> CacheEntry | None:
        """Load the entry for ``(kind, params)``, or ``None`` on a miss.

        Any failure to read or parse the entry (truncated archive, malformed
        JSON, parameter mismatch) deletes the entry and counts as a miss, so
        callers always fall back to recomputing.
        """
        npz_path, meta_path = self._paths(kind, params)
        if not (npz_path.exists() and meta_path.exists()):
            self.stats.misses += 1
            return None
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            if not isinstance(meta, dict) or meta.get("kind") != kind:
                raise ValueError(f"cache entry {meta_path} does not describe kind {kind!r}")
            with np.load(npz_path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except Exception:
            # A corrupted entry is worthless: drop it and recompute.
            self.evict(kind, params)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return CacheEntry(arrays=arrays, meta=meta.get("meta", {}))

    def store(
        self,
        kind: str,
        params: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        """Persist ``arrays`` (and optional scalar ``meta``) for ``(kind, params)``.

        Both files are written atomically; a concurrent store of the same
        entry by another process simply wins the last ``os.replace``.
        """
        npz_path, meta_path = self._paths(kind, params)
        npz_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "kind": kind,
            "params": {k: _jsonable(v) for k, v in params.items()},
            "meta": {k: _jsonable(v) for k, v in (meta or {}).items()},
        }
        self._atomic_write(npz_path, lambda handle: np.savez(handle, **dict(arrays)))
        self._atomic_write(
            meta_path,
            lambda handle: handle.write(json.dumps(payload, sort_keys=True).encode("utf-8")),
        )
        self.stats.stores += 1

    def store_raw(
        self,
        kind: str,
        params: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        """Persist ``arrays`` as raw ``.npy`` files (the retired mmap layout).

        No artifact node writes this layout; it stays because the
        benchmark's tracer wraps it by name.  Array names must be usable as
        file-name fragments.  The metadata file records them under
        ``"raw"``.
        """
        _, meta_path = self._paths(kind, params)
        meta_path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(arrays)
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"raw array name {name!r} is not file-name safe")
        payload = {
            "kind": kind,
            "params": {k: _jsonable(v) for k, v in params.items()},
            "meta": {k: _jsonable(v) for k, v in (meta or {}).items()},
            "raw": names,
        }
        for name in names:
            array = np.ascontiguousarray(arrays[name])
            self._atomic_write(
                self._raw_path(meta_path, name), lambda handle, a=array: np.save(handle, a)
            )
        self._atomic_write(
            meta_path,
            lambda handle: handle.write(json.dumps(payload, sort_keys=True).encode("utf-8")),
        )
        self.stats.stores += 1

    def load_raw(
        self, kind: str, params: Mapping[str, Any], *, mmap: bool = True
    ) -> CacheEntry | None:
        """Load a raw entry, memory-mapping its arrays by default.

        With ``mmap=True`` each array is an ``np.load(mmap_mode="r")``
        view whose pages are only read when touched.  Corrupted or
        incomplete entries are evicted and reported as misses, exactly like
        the ``.npz`` layout.
        """
        _, meta_path = self._paths(kind, params)
        if not meta_path.exists():
            self.stats.misses += 1
            return None
        try:
            with open(meta_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or payload.get("kind") != kind:
                raise ValueError(f"cache entry {meta_path} does not describe kind {kind!r}")
            names = payload["raw"]
            if not isinstance(names, list) or not names:
                raise ValueError(f"cache entry {meta_path} is not a raw entry")
            arrays = {
                name: np.load(
                    self._raw_path(meta_path, name),
                    mmap_mode="r" if mmap else None,
                    allow_pickle=False,
                )
                for name in names
            }
        except Exception:
            self.evict(kind, params)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return CacheEntry(arrays=arrays, meta=payload.get("meta", {}))

    def evict(self, kind: str, params: Mapping[str, Any]) -> None:
        """Remove the entry for ``(kind, params)`` if present (both layouts)."""
        npz_path, meta_path = self._paths(kind, params)
        raw_paths = list(meta_path.parent.glob(f"{meta_path.stem}__*.npy"))
        for path in (npz_path, meta_path, *raw_paths):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    @staticmethod
    def _atomic_write(path: Path, writer) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f"{TEMP_PREFIX}{path.name}-")
        try:
            with os.fdopen(fd, "wb") as handle:
                writer(handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` to a JSON-serialisable form."""
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value
