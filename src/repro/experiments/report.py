"""Markdown report generation for experiment results.

Run any subset of the figure experiments and render their headline
numbers as a Markdown document (one section per figure, scalar results
flattened into bullet lists).  Used by ``python -m repro report`` and
handy when re-running at a different scale or seed.  The paper's claims
about these numbers, and the seeds on which they fail, are tabled in
DESIGN.md (*Paper claims*).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import run_all_experiments
from repro.experiments.result import ExperimentResult


def _flatten_scalars(data, prefix: str = "") -> list[tuple[str, float | int | str | bool]]:
    """Flatten nested dictionaries keeping only scalar leaves."""
    items: list[tuple[str, float | int | str | bool]] = []
    if isinstance(data, Mapping):
        for key, value in data.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            items.extend(_flatten_scalars(value, name))
        return items
    if isinstance(data, (bool, str)):
        items.append((prefix, data))
    elif isinstance(data, (int, float, np.integer, np.floating)):
        value = float(data)
        items.append((prefix, round(value, 4) if np.isfinite(value) else value))
    # arrays / long lists are omitted: the report targets headline scalars
    return items


def render_result(result: ExperimentResult) -> str:
    """Render a single experiment result as a Markdown section."""
    lines = [f"## {result.experiment_id} — {result.title}", ""]
    if result.paper_expectation:
        lines.append(f"*Paper expectation*: {result.paper_expectation}")
        lines.append("")
    scalars = _flatten_scalars(result.data)
    if scalars:
        for name, value in scalars:
            lines.append(f"- `{name}`: {value}")
    else:
        lines.append("- (no scalar headline values; see the raw runner output)")
    if result.notes:
        lines.append("")
        lines.append(f"*Notes*: {result.notes}")
    lines.append("")
    return "\n".join(lines)


def generate_report(
    config: ExperimentConfig | None = None,
    *,
    only: Optional[Iterable[str]] = None,
    results: Optional[Mapping[str, ExperimentResult]] = None,
) -> str:
    """Run the experiments and render the full Markdown report.

    Parameters
    ----------
    config:
        Experiment configuration (node count, seed, ...).
    only:
        Optional subset of experiment ids to include.
    results:
        Pre-computed results to render instead of running the experiments
        (used by tests and by callers that already hold the results).
    """
    cfg = config if config is not None else ExperimentConfig()
    if results is None:
        results = run_all_experiments(cfg, only=only)
    elif only is not None:
        results = {k: v for k, v in results.items() if k in set(only)}

    header = [
        "# Regenerated experiment results",
        "",
        f"Configuration: dataset `{cfg.dataset}`, {cfg.n_nodes} nodes, seed {cfg.seed}, "
        f"{cfg.selection_runs} selection runs, {cfg.vivaldi_seconds}s Vivaldi convergence.",
        "",
        "Absolute values depend on the synthetic substrate (DESIGN.md §2); compare",
        "shapes against the paper using the per-figure expectations below and the",
        "claims table in DESIGN.md (Paper claims).",
        "",
    ]
    sections = [render_result(results[key]) for key in results]
    return "\n".join(header + sections)
