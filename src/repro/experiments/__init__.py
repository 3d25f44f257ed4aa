"""Per-figure experiment runners.

Every figure in the paper's evaluation maps to one runner function that
regenerates its data (see DESIGN.md §3 for the full index).  Runners share
an :class:`~repro.experiments.config.ExperimentConfig` (dataset, size,
seeds) and an :class:`~repro.experiments.context.ExperimentContext` that
lazily caches the expensive shared artefacts (delay matrix, TIV severities,
the converged Vivaldi embedding, the TIV alert).

Use :func:`repro.experiments.registry.run_experiment` to run a single figure
by id (e.g. ``"fig20"``) and :func:`repro.experiments.registry.list_experiments`
to enumerate them.
"""

from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.engine import RunReport, run_experiments
from repro.experiments.registry import (
    list_experiments,
    run_all_experiments,
    run_experiment,
)
from repro.experiments.result import ExperimentResult

__all__ = [
    "ArtifactCache",
    "ExperimentConfig",
    "ExperimentContext",
    "ExperimentResult",
    "RunReport",
    "list_experiments",
    "run_experiment",
    "run_all_experiments",
    "run_experiments",
]
