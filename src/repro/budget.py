"""The shared memory-budget model of the out-of-core tier.

Every layer that trades memory for passes — the witness-chunked TIV
severity, the sharded artifact nodes, the scale-smoke CI job — derives its
sizing from the same budget so a single ``--memory-budget`` knob (or
:attr:`repro.experiments.config.ExperimentConfig.memory_budget_mb`) tunes
the whole stack coherently.  The budget is a *target for the dominant
transient allocations*, not a hard rlimit: fixed inputs (the dense delay
matrix itself) and interpreter overhead sit outside it, which is why the
scale-smoke job asserts against a ceiling comfortably above the configured
budget.

The constants encode how the budget is split:

* a quarter of the budget bounds one shard's output rows
  (:func:`repro.artifacts.shards.shard_count` — 16 bytes per entry for the
  severity + violation-count pair);
* an eighth bounds the per-row witness temporaries of the severity kernel
  (:func:`auto_chunk_size` — roughly 20 bytes per ``(witness, C)`` cell
  for the two-hop matrix, the boolean mask and the ratio matrix).

Artifacts move between worker processes only through the disk cache:
dense artifacts as uncompressed ``.npz`` archives, shards as raw ``.npy``
files restored as memory maps, so a stitched view's pages stay in the
page cache rather than in any process's private memory.

Both clamps keep small matrices on the exact single-pass path: at the
default 2 GiB budget the auto-tuned chunk only drops below ``n`` beyond
roughly 6000 nodes, so harness-scale results stay bit-identical to the
pre-budget code.
"""

from __future__ import annotations

import resource
import sys

#: Default memory budget (MiB) when neither the configuration nor the CLI
#: supplies one.  Two GiB matches the scale-smoke CI runner class.
DEFAULT_MEMORY_BUDGET_MB = 2048

#: Fraction of the budget one shard's output may occupy.
SHARD_OUTPUT_FRACTION = 0.25

#: Fraction of the budget the severity witness temporaries may occupy.
CHUNK_TEMPORARY_FRACTION = 0.125

#: Peak bytes per ``(witness, C)`` cell of the severity inner loop: the
#: float64 two-hop matrix + the boolean violating mask + the float64 ratio
#: matrix, with a little slack for numpy's intermediates.
SEVERITY_BYTES_PER_CELL = 20


def budget_bytes(memory_budget_mb: int | None) -> int:
    """The budget in bytes, defaulting to :data:`DEFAULT_MEMORY_BUDGET_MB`."""
    mb = DEFAULT_MEMORY_BUDGET_MB if memory_budget_mb is None else int(memory_budget_mb)
    if mb < 64:
        raise ValueError(f"memory budget must be >= 64 MiB, got {mb}")
    return mb * 1024 * 1024


def auto_chunk_size(n_nodes: int, memory_budget_mb: int | None = None) -> int:
    """Witness-chunk size keeping severity temporaries inside the budget.

    Returns a value in ``[64, n_nodes]``; for harness-scale matrices under
    the default budget this is ``n_nodes`` (a single pass, bit-identical to
    the unchunked computation).
    """
    n = int(n_nodes)
    if n < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    allowance = int(budget_bytes(memory_budget_mb) * CHUNK_TEMPORARY_FRACTION)
    chunk = allowance // (SEVERITY_BYTES_PER_CELL * n)
    return max(64, min(n, chunk)) if n > 64 else n


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised here.  This is the number the scale-smoke job asserts on.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
