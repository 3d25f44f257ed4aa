"""Cache maintenance: evict entries no registered artifact node can produce.

A long-lived ``--cache-dir`` accumulates entries across releases.  Most
stale entries are harmless — a changed cache address simply never hits —
but they cost disk and make the cache unreadable as an inventory.  ``repro
cache prune`` walks the cache and evicts every entry that no *current*
artifact node could have written:

* entries under a cache kind no registered node declares;
* entries whose stored parameters re-address to a different file name
  (written under a retired ``CACHE_SCHEMA`` tag, or corrupted);
* entries predating a node's declared era parameters (e.g. a ``vivaldi``
  entry without a ``kernel`` parameter) or carrying retired era values
  (e.g. a ``"reference"`` kernel, which no experiment run writes);
* orphaned halves of the ``.npz`` + ``.json`` pair, raw-layout entries
  (``<key>__<name>.npy`` shard files, see
  :meth:`~repro.experiments.cache.ArtifactCache.store_raw`) missing any
  declared array file, stray ``.npy`` files with no metadata, and
  unparseable metadata files;
* abandoned atomic-write temp files (``.tmp-*``) of a worker killed
  mid-store.

Live entries are never touched: the address recomputation uses the stored
parameters themselves, so any entry the current code could hit is kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.artifacts.nodes import node_kinds

PathLike = Union[str, Path]


@dataclass(frozen=True)
class PrunedEntry:
    """One evicted cache entry and the reason it no longer matches a node."""

    kind: str
    name: str
    reason: str

    def as_dict(self) -> dict[str, str]:
        return {"kind": self.kind, "entry": self.name, "reason": self.reason}


@dataclass
class PruneReport:
    """Outcome of one prune pass."""

    root: str
    dry_run: bool
    kept: int = 0
    pruned: list[PrunedEntry] = field(default_factory=list)

    @property
    def scanned(self) -> int:
        return self.kept + len(self.pruned)

    def as_dict(self) -> dict:
        return {
            "root": self.root,
            "dry_run": self.dry_run,
            "scanned": self.scanned,
            "kept": self.kept,
            "pruned": len(self.pruned),
            "entries": [entry.as_dict() for entry in self.pruned],
        }


def _classify(kind_dir: Path, meta_path: Path) -> str | None:
    """The prune reason for one ``.json`` metadata file, or ``None`` to keep."""
    from repro.experiments.cache import stable_key

    kinds = node_kinds()
    kind = kind_dir.name
    node = kinds.get(kind)
    if node is None:
        return f"cache kind {kind!r} has no registered artifact node"
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        params = payload["params"]
        if payload.get("kind") != kind or not isinstance(params, dict):
            raise ValueError("malformed payload")
    except Exception:
        return "unreadable or malformed metadata"
    raw_names = payload.get("raw")
    if raw_names is not None:
        if not isinstance(raw_names, list) or not raw_names:
            return "unreadable or malformed metadata"
        for name in raw_names:
            if not (kind_dir / f"{meta_path.stem}__{name}.npy").exists():
                return f"raw entry missing array file {name!r}"
    elif not meta_path.with_suffix(".npz").exists():
        return "orphaned metadata (missing .npz archive)"
    if stable_key(kind, params) != meta_path.stem:
        return "address no longer matches (written under a retired cache schema)"
    for era_key, allowed in node.era_params.items():
        if era_key not in params:
            return f"pre-{era_key!r}-era entry (parameter absent)"
        if allowed is not None and params[era_key] not in allowed:
            return f"retired {era_key!r} value {params[era_key]!r}"
    return None


def prune_cache(root: PathLike, *, dry_run: bool = False) -> PruneReport:
    """Evict stale entries under ``root``; with ``dry_run`` only report them.

    Only for a cache no run is using: a running store's temp file cannot
    be told from an abandoned one, and is removed too.
    """
    from repro.experiments.cache import TEMP_PREFIX

    root = Path(root)
    report = PruneReport(root=str(root), dry_run=dry_run)
    if not root.is_dir():
        return report
    for kind_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        seen_stems: set[str] = set()
        for meta_path in sorted(kind_dir.glob("*.json")):
            seen_stems.add(meta_path.stem)
            reason = _classify(kind_dir, meta_path)
            if reason is None:
                report.kept += 1
                continue
            report.pruned.append(PrunedEntry(kind_dir.name, meta_path.stem, reason))
            if not dry_run:
                meta_path.unlink(missing_ok=True)
                meta_path.with_suffix(".npz").unlink(missing_ok=True)
                for raw_path in kind_dir.glob(f"{meta_path.stem}__*.npy"):
                    raw_path.unlink(missing_ok=True)
        for npz_path in sorted(kind_dir.glob("*.npz")):
            if npz_path.stem in seen_stems:
                continue
            report.pruned.append(
                PrunedEntry(
                    kind_dir.name,
                    npz_path.stem,
                    "orphaned archive (missing .json metadata)",
                )
            )
            if not dry_run:
                npz_path.unlink(missing_ok=True)
        for npy_path in sorted(kind_dir.glob("*.npy")):
            # Raw array files are named <address>__<array>.npy; any .npy
            # whose address half has no (kept) metadata is an orphaned shard.
            stem = npy_path.name[: -len(".npy")].split("__", 1)[0]
            if stem in seen_stems and (kind_dir / f"{stem}.json").exists():
                continue
            report.pruned.append(
                PrunedEntry(
                    kind_dir.name,
                    npy_path.stem,
                    "orphaned shard array (missing .json metadata)",
                )
            )
            if not dry_run:
                npy_path.unlink(missing_ok=True)
        for tmp_path in sorted(kind_dir.glob(f"{TEMP_PREFIX}*")):
            report.pruned.append(
                PrunedEntry(
                    kind_dir.name,
                    tmp_path.name,
                    "abandoned temp file (store interrupted mid-write)",
                )
            )
            if not dry_run:
                tmp_path.unlink(missing_ok=True)
    return report
