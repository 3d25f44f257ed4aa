"""Registry of all experiment runners, keyed by figure id.

Registration is *declarative*: every runner must declare the shared
artifact requirements it touches (``needs=...`` — tokens validated against
:data:`repro.artifacts.REQUIREMENTS` at registration time), because the
engine schedules the artifact DAG from these declarations.  There is no
"warm everything" fallback: an undeclared or misspelt requirement fails
immediately at import, not silently at runtime — and a parametrized test
(`tests/experiments/test_engine.py`) pins every declaration to the
runner's real artifact usage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ExperimentError

if TYPE_CHECKING:
    from repro.experiments.context import ExperimentContext
from repro.artifacts.nodes import REQUIREMENTS
from repro.experiments.alert_figures import (
    fig19_severity_vs_ratio,
    fig20_alert_accuracy,
    fig21_alert_recall,
    fig22_23_dynamic_neighbor,
    fig24_meridian_alert_normal,
    fig25_meridian_alert_small,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.meridian_figures import fig13_ring_misplacement, fig14_meridian_ideal
from repro.experiments.result import ExperimentResult
from repro.experiments.strawman_figures import (
    fig15_ides,
    fig16_lat,
    fig17_vivaldi_filter,
    fig18_meridian_filter,
)
from repro.experiments.tiv_figures import (
    fig02_severity_cdf,
    fig03_cluster_matrix,
    fig04_07_severity_vs_delay,
    fig08_shortest_path,
    fig09_proximity,
)
from repro.experiments.vivaldi_figures import (
    fig10_three_node_trace,
    fig11_oscillation,
    text_vivaldi_error_stats,
)

Runner = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class RegisteredExperiment:
    """One registered figure runner plus its declared artifact requirements."""

    runner: Runner
    needs: frozenset[str]


_REGISTRY: dict[str, RegisteredExperiment] = {}


def register_experiment(
    experiment_id: str, runner: Runner, *, needs: Iterable[str]
) -> None:
    """Register a figure runner with its declared artifact requirements.

    ``needs`` is mandatory and validated immediately: a new figure cannot
    enter the registry without stating which shared artifacts it touches
    (an empty iterable is a valid declaration — e.g. Fig. 10 builds its own
    three-node system).  Unknown tokens raise at registration time.
    """
    if experiment_id in _REGISTRY:
        raise ExperimentError(f"experiment {experiment_id!r} is already registered")
    declared = frozenset(needs)
    unknown = declared - REQUIREMENTS
    if unknown:
        raise ExperimentError(
            f"experiment {experiment_id!r} declares unknown artifact "
            f"requirement(s) {', '.join(map(repr, sorted(unknown)))}; "
            f"known: {', '.join(sorted(REQUIREMENTS))}"
        )
    _REGISTRY[experiment_id] = RegisteredExperiment(runner=runner, needs=declared)


for _experiment_id, _runner, _needs in (
    ("fig02", fig02_severity_cdf, ("datasets",)),
    ("fig03", fig03_cluster_matrix, ("matrix", "clusters", "severity")),
    ("fig04_07", fig04_07_severity_vs_delay, ("datasets",)),
    ("fig08", fig08_shortest_path, ("matrix", "clusters", "shortest")),
    ("fig09", fig09_proximity, ("datasets",)),
    ("fig10", fig10_three_node_trace, ()),
    ("fig11", fig11_oscillation, ("oscillation",)),
    ("text_3_2_1", text_vivaldi_error_stats, ("matrix", "severity", "vivaldi")),
    ("fig13", fig13_ring_misplacement, ("misplacement",)),
    ("fig14", fig14_meridian_ideal, ("matrix", "euclidean")),
    ("fig15", fig15_ides, ("matrix", "vivaldi", "ides")),
    ("fig16", fig16_lat, ("matrix", "vivaldi", "lat")),
    ("fig17", fig17_vivaldi_filter, ("matrix", "severity", "vivaldi")),
    ("fig18", fig18_meridian_filter, ("matrix", "severity")),
    ("fig19", fig19_severity_vs_ratio, ("matrix", "severity", "vivaldi", "alert")),
    ("fig20", fig20_alert_accuracy, ("matrix", "severity", "vivaldi", "alert")),
    ("fig21", fig21_alert_recall, ("matrix", "severity", "vivaldi", "alert")),
    ("fig22_23", fig22_23_dynamic_neighbor, ("matrix", "severity", "dynamic")),
    ("fig24", fig24_meridian_alert_normal, ("matrix", "vivaldi", "alert")),
    ("fig25", fig25_meridian_alert_small, ("matrix", "vivaldi", "alert")),
):
    register_experiment(_experiment_id, _runner, needs=_needs)


def list_experiments() -> tuple[str, ...]:
    """Return the identifiers of all registered experiments."""
    return tuple(_REGISTRY)


def _lookup(experiment_id: str) -> RegisteredExperiment:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {', '.join(_REGISTRY)}"
        ) from None


def experiment_needs(experiment_id: str) -> frozenset[str]:
    """The artifact requirement tokens ``experiment_id`` declared."""
    return _lookup(experiment_id).needs


def run_experiment(
    experiment_id: str,
    config: ExperimentConfig | None = None,
    *,
    context: "ExperimentContext | None" = None,
    scenario: str | None = None,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"fig20"``).

    Parameters
    ----------
    experiment_id:
        Registered figure identifier.
    config:
        Experiment configuration; ignored when ``context`` is given (the
        context carries its own configuration).
    scenario:
        Optional library scenario name the experiment should run under.
        The full scenario semantics apply — including ``size_factor``
        scaling the node count — by deriving the configuration through
        :func:`repro.scenarios.runner.scenario_config`.  Must not conflict
        with a scenario already carried by ``config`` or ``context``.
    context:
        Optional shared :class:`~repro.experiments.context.ExperimentContext`
        whose memoised/cached artifacts the runner should reuse.
    """
    runner = _lookup(experiment_id).runner
    if scenario is not None:
        if context is not None:
            if context.config.scenario != scenario:
                raise ExperimentError(
                    "a shared context cannot be re-scoped to another scenario: "
                    f"context carries {context.config.scenario!r}, run_experiment "
                    f"was asked for {scenario!r}"
                )
        else:
            from repro.scenarios.runner import apply_scenario

            config = apply_scenario(config, scenario, caller="run_experiment")
    if context is not None:
        return runner(context.config, context=context)
    return runner(config)


def run_all_experiments(
    config: ExperimentConfig | None = None,
    *,
    only: Iterable[str] | None = None,
    jobs: int | None = 1,
    cache_dir: str | None = None,
    scenario: str | None = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment (or the subset in ``only``).

    Delegates to :func:`repro.experiments.engine.run_experiments`, which
    schedules the artifact DAG and the runners as one frontier: ``jobs``
    worker processes, or in-process at ``jobs=1`` (the default).
    ``cache_dir`` persists the shared artifacts so repeated runs are
    incremental; without it the run works through a scratch cache deleted
    when it ends.  ``scenario`` runs the
    whole sweep under a library scenario with full scenario semantics
    (``size_factor`` scales the node count); for a sweep over many
    scenarios use :func:`repro.scenarios.runner.run_scenario_matrix`
    instead.
    """
    from repro.experiments.engine import run_experiments

    if scenario is not None:
        from repro.scenarios.runner import apply_scenario

        config = apply_scenario(config, scenario, caller="run_all_experiments")
    return run_experiments(config, only=only, jobs=jobs, cache_dir=cache_dir).results
