"""Fan the figure suite out across a scenario matrix.

``repro run-scenarios --matrix small|full --jobs N`` runs every registered
figure experiment once per scenario.  The scenario enters
:class:`~repro.experiments.config.ExperimentConfig` as a first-class
dimension, so all artefacts are content-addressed per scenario in the
shared cache directory and a warm rerun of the whole matrix is served
entirely from disk.  With ``jobs > 1`` the whole (scenario × figure) grid
shares one worker pool and one *merged artifact frontier*: every
scenario's artifact plan is resolved up front, deduplicated by cache
address (a cross-scenario shared artifact is computed exactly once), and
scheduled at artifact granularity, with each figure task released the
moment its closure is materialised — so the matrix itself, not just the
figures within one scenario, parallelises.

The result is a :class:`ScenarioMatrixReport` — one ``bench-experiments``
run report per scenario plus matrix-level totals — written as
``BENCH_scenarios.json`` by the CLI and asserted on by CI.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from repro.artifacts.graph import ExecutionPlan, resolve_plan
from repro.errors import ExperimentError
from repro.experiments.cache import CacheStats, config_fingerprint
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import (
    ArtifactTask,
    EngineOutcome,
    ExperimentEngine,
    ExperimentRunRecord,
    FrontierScheduler,
    RunReport,
    aggregate_artifact_events,
    plan_artifact_tasks,
    plan_figure_addresses,
    resolve_experiment_ids,
    resolve_jobs,
)
from repro.scenarios.library import get_scenario, scenario_matrix
from repro.scenarios.spec import Scenario
from repro.utils.io import write_json_report

PathLike = Union[str, Path]

#: Schema identifier written into BENCH_scenarios.json.
SCENARIO_REPORT_SCHEMA = "bench-scenarios/v1"


def scenario_config(base: ExperimentConfig, scenario: Scenario) -> ExperimentConfig:
    """The per-scenario experiment configuration derived from ``base``.

    The scenario rides along by name (resolved lazily by the context) and
    its ``size_factor`` — the size dimension — scales the node count here,
    before any generation happens, so the whole experiment stack sees a
    consistent count.
    """
    n_nodes = max(8, int(round(base.n_nodes * scenario.size_factor)))
    return replace(base, scenario=scenario.name, n_nodes=n_nodes)


def apply_scenario(
    config: ExperimentConfig | None, name: str, *, caller: str = "apply_scenario"
) -> ExperimentConfig:
    """Derive the configuration for running ``config`` under scenario ``name``.

    The single implementation of the "scenario by name" shorthand shared by
    the registry and the CLI: resolves the name, rejects a conflicting
    scenario already carried by ``config``, and applies the full scenario
    semantics (``size_factor`` scales the node count) via
    :func:`scenario_config`.  A configuration already scoped to ``name``
    is returned unchanged.
    """
    base = config if config is not None else ExperimentConfig()
    if base.scenario == name:
        return base
    if base.scenario is not None:
        raise ExperimentError(
            f"conflicting scenarios: configuration carries {base.scenario!r}, "
            f"{caller} was asked for {name!r}"
        )
    return scenario_config(base, get_scenario(name))


@dataclass(frozen=True)
class ScenarioRunRecord:
    """One scenario's slice of the matrix run."""

    scenario: Scenario
    config: dict[str, Any]
    report: RunReport
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "ok" if not self.failures else "error"

    def as_dict(self) -> dict[str, Any]:
        payload = {
            "scenario": self.scenario.as_dict(),
            "status": self.status,
            "config": self.config,
            "report": self.report.as_dict(),
        }
        if self.failures:
            payload["failures"] = dict(self.failures)
        return payload


@dataclass
class ScenarioMatrixReport:
    """Structured report of one scenario-matrix run."""

    matrix: str
    base_config: dict[str, Any]
    jobs: int
    cache_dir: Optional[str]
    records: list[ScenarioRunRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    def total_cache(self) -> CacheStats:
        total = CacheStats()
        for record in self.records:
            total.merge(record.report.total_cache())
        return total

    @property
    def all_cache_hits(self) -> bool:
        """True when the matrix touched the cache and never missed."""
        return self.total_cache().all_hits

    @property
    def failures(self) -> dict[str, dict[str, str]]:
        """Per-scenario failure maps (empty when every figure succeeded)."""
        return {r.scenario.name: r.failures for r in self.records if r.failures}

    def as_dict(self) -> dict[str, Any]:
        total = self.total_cache()
        return {
            "schema": SCENARIO_REPORT_SCHEMA,
            "matrix": self.matrix,
            "config": self.base_config,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "scenarios": [record.as_dict() for record in self.records],
            "totals": {
                "scenarios": len(self.records),
                "experiments": sum(len(r.report.records) for r in self.records),
                "failed_scenarios": len(self.failures),
                "wall_seconds": round(self.wall_seconds, 6),
                "cache": total.as_dict(),
                "all_cache_hits": self.all_cache_hits,
            },
        }

    def write(self, path: PathLike) -> None:
        """Serialise the report as JSON (the ``BENCH_scenarios.json`` artifact)."""
        write_json_report(path, self.as_dict())


def _warm_failure_records(
    wanted: list[str], exc: BaseException
) -> tuple[ExperimentRunRecord, list[ExperimentRunRecord]]:
    """Shared + per-figure error records for a scenario whose warm phase raised.

    The single definition of the failure-record shape, so the sequential
    and parallel paths cannot drift apart.
    """
    message = f"{type(exc).__name__}: {exc}"
    shared = ExperimentRunRecord(
        experiment_id="__shared__", wall_seconds=0.0, status="error", error=message
    )
    records = [
        ExperimentRunRecord(
            experiment_id=experiment_id,
            wall_seconds=0.0,
            status="error",
            error=f"shared warm phase failed: {message}",
        )
        for experiment_id in wanted
    ]
    return shared, records


def _failed_outcome(
    config: ExperimentConfig,
    wanted: list[str],
    exc: Exception,
    *,
    jobs: int,
    cache_dir: Optional[str],
) -> EngineOutcome:
    """An all-failed engine outcome for a scenario whose shared phase raised."""
    shared, records = _warm_failure_records(wanted, exc)
    report = RunReport(
        config=config_fingerprint(config),
        jobs=jobs,
        cache_dir=cache_dir,
        records=records,
        shared=shared,
    )
    return EngineOutcome(
        results={},
        report=report,
        failures={record.experiment_id: record.error for record in records},
        first_exception=exc,
    )


def _run_matrix_parallel(
    base: ExperimentConfig,
    selected: Sequence[Scenario],
    wanted: list[str],
    worker_count: int,
    cache_dir: PathLike,
    report_cache_dir: Optional[str],
) -> dict[str, EngineOutcome]:
    """Fan the whole (scenario × figure) grid out over one worker pool.

    Every scenario's artifact plan is resolved up front and merged into a
    *single shared frontier*, deduplicated by cache address: an artifact
    two scenarios both need (e.g. a no-op scenario and a replication of it,
    or any pair resolving to identical generation parameters) is computed
    exactly once and charged to the first scenario that declared it.  The
    :class:`~repro.experiments.engine.FrontierScheduler` then releases each
    artifact task the moment its dependencies land on disk and each figure
    task the moment its scenario's closure is materialised — a slow
    scenario never stalls the others' figures, and independent artifacts of
    the *same* scenario (the embeddings, the preset matrices) build
    concurrently too.  Results are bit-identical to the sequential path.

    A scenario whose resolution or artifact chain fails (a broken
    generator/configuration) is recorded — its shared record and every
    affected figure carry the error — and the rest of the matrix proceeds,
    preserving the caller's report-before-raise contract.
    """
    cache_dir = str(cache_dir)
    configs = {scenario.name: scenario_config(base, scenario) for scenario in selected}

    plans: dict[str, ExecutionPlan] = {}
    resolution_failures: dict[str, Exception] = {}
    for name, config in configs.items():
        try:
            plans[name] = resolve_plan(config, wanted)
        except Exception as exc:
            resolution_failures[name] = exc

    tasks: dict[str, ArtifactTask] = {}
    figure_grid: list[tuple[str, str]] = []
    figure_needs: dict[tuple[str, str], frozenset[str]] = {}
    for name, plan in plans.items():
        for address, task in plan_artifact_tasks(plan, tag=name).items():
            tasks.setdefault(address, task)
        for experiment_id in wanted:
            figure_grid.append((name, experiment_id))
            figure_needs[(name, experiment_id)] = plan_figure_addresses(
                plan, experiment_id
            )

    scheduler = FrontierScheduler(
        tasks=tasks,
        configs={name: configs[name] for name in plans},
        figure_grid=figure_grid,
        figure_needs=figure_needs,
        cache_dir=cache_dir,
        jobs=worker_count,
    )
    scheduler.execute()

    outcomes: dict[str, EngineOutcome] = {}
    for name, config in configs.items():
        if name in resolution_failures:
            outcomes[name] = _failed_outcome(
                config,
                wanted,
                resolution_failures[name],
                jobs=worker_count,
                cache_dir=report_cache_dir,
            )
            continue
        ordered = [
            scheduler.figure_records[(name, experiment_id)] for experiment_id in wanted
        ]
        shared = scheduler.shared_record(name)
        report = RunReport(
            config=config_fingerprint(config),
            jobs=worker_count,
            # The user-passed value, not the ephemeral scratch directory a
            # cache-less sweep works through (it is deleted after the run;
            # the engine reports the same way).
            cache_dir=report_cache_dir,
            records=ordered,
            shared=shared,
            # Cross-scenario shared artifacts are charged to their first
            # declarer, so a scenario arriving second sees them as figure
            # cache hits rather than shared-phase work.
            artifacts=aggregate_artifact_events(scheduler.owner_events(name)),
            # No per-scenario wall-clock exists when scenarios interleave
            # on one pool; report the scenario's summed task time (the
            # matrix report carries the true overall wall-clock).
            wall_seconds=shared.wall_seconds
            + float(sum(record.wall_seconds for record in ordered)),
        )
        failures = {
            record.experiment_id: record.error
            for record in ordered
            if record.status != "ok"
        }
        first_exception = scheduler.tag_exception(name)
        outcomes[name] = EngineOutcome(
            results={
                experiment_id: scheduler.results[(name, experiment_id)]
                for experiment_id in wanted
                if (name, experiment_id) in scheduler.results
            },
            report=report,
            failures=failures,
            first_exception=first_exception,
        )
    return outcomes


@dataclass(frozen=True)
class ScenarioMatrixOutcome:
    """Per-scenario engine outcomes plus the matrix report."""

    outcomes: dict[str, EngineOutcome]
    report: ScenarioMatrixReport


def run_scenario_matrix(
    config: ExperimentConfig | None = None,
    *,
    matrix: str = "small",
    scenarios: Sequence[str] | None = None,
    only: Iterable[str] | None = None,
    jobs: int | None = 1,
    cache_dir: PathLike | None = None,
    report_path: PathLike | None = None,
) -> ScenarioMatrixOutcome:
    """Run the figure suite under every scenario of a matrix.

    Parameters
    ----------
    config:
        Base experiment configuration; each scenario derives its own via
        :func:`scenario_config`.  Must not itself carry a scenario.
    matrix:
        Name of the scenario matrix (``"small"`` or ``"full"``); ignored
        when ``scenarios`` names an explicit subset.
    scenarios:
        Optional explicit scenario names (any library scenario), overriding
        the matrix selection.
    only:
        Optional subset of figure ids to run per scenario.
    jobs:
        Worker processes.  ``1`` runs scenarios sequentially (each through
        an in-process engine); ``> 1`` fans the whole (scenario × figure)
        grid out over one shared pool, warm phases included.
    cache_dir:
        Shared artifact cache directory.  All scenarios address it
        content-addressed, so a warm rerun of the same matrix is
        100% cache-served.
    report_path:
        Where to write the ``BENCH_scenarios.json`` report (optional).

    A scenario whose figures fail is recorded (``status: "error"`` with the
    per-figure messages) and the sweep continues; an
    :class:`~repro.errors.ExperimentError` summarising all failures is
    raised after the report is written.
    """
    base = config if config is not None else ExperimentConfig()
    if base.scenario is not None:
        raise ExperimentError(
            "run_scenario_matrix needs a scenario-free base configuration "
            f"(got scenario={base.scenario!r})"
        )
    if scenarios is not None:
        selected = tuple(get_scenario(name) for name in dict.fromkeys(scenarios))
        if not selected:
            raise ExperimentError("run_scenario_matrix was given an empty scenario list")
        matrix_name = "custom"
    else:
        selected = scenario_matrix(matrix)
        matrix_name = matrix

    started = time.perf_counter()
    worker_count = resolve_jobs(jobs)
    # Resolve the figure subset once: validation happens before any work,
    # and a one-shot iterable cannot be silently exhausted by the first
    # scenario's sweep.
    wanted = resolve_experiment_ids(only)
    # An uncached parallel sweep would otherwise create (and tear down) one
    # scratch cache per scenario inside the engine; share a single scratch
    # directory across the whole matrix instead.
    ephemeral_dir: Optional[str] = None
    effective_cache_dir = cache_dir
    if cache_dir is None and worker_count > 1:
        ephemeral_dir = tempfile.mkdtemp(prefix="repro-scenarios-cache-")
        effective_cache_dir = ephemeral_dir
    try:
        if worker_count > 1:
            outcomes = _run_matrix_parallel(
                base,
                selected,
                wanted,
                worker_count,
                effective_cache_dir,
                str(cache_dir) if cache_dir is not None else None,
            )
        else:
            outcomes = {}
            for scenario in selected:
                cfg = scenario_config(base, scenario)
                engine = ExperimentEngine(cfg, jobs=jobs, cache_dir=effective_cache_dir)
                try:
                    outcomes[scenario.name] = engine.run(only=wanted)
                except Exception as exc:
                    # A warm-phase failure (broken generator/configuration)
                    # must not lose the rest of the matrix or the report:
                    # record it against every figure of this scenario.
                    outcomes[scenario.name] = _failed_outcome(
                        cfg,
                        wanted,
                        exc,
                        jobs=worker_count,
                        cache_dir=str(cache_dir) if cache_dir is not None else None,
                    )
    finally:
        if ephemeral_dir is not None:
            shutil.rmtree(ephemeral_dir, ignore_errors=True)

    records = [
        ScenarioRunRecord(
            scenario=scenario,
            config=config_fingerprint(scenario_config(base, scenario)),
            report=outcomes[scenario.name].report,
            failures=outcomes[scenario.name].failures,
        )
        for scenario in selected
    ]

    report = ScenarioMatrixReport(
        matrix=matrix_name,
        base_config=config_fingerprint(base),
        jobs=records[0].report.jobs,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        records=records,
        wall_seconds=time.perf_counter() - started,
    )
    if report_path is not None:
        report.write(report_path)

    failures = report.failures
    if failures:
        details = "; ".join(
            f"{scenario}: "
            + ", ".join(
                f"{experiment_id}: {message}"
                for experiment_id, message in figure_failures.items()
            )
            for scenario, figure_failures in failures.items()
        )
        first_exception = next(
            (
                outcome.first_exception
                for outcome in outcomes.values()
                if outcome.first_exception is not None
            ),
            None,
        )
        raise ExperimentError(
            f"{len(failures)} scenario(s) had failing experiments: {details}"
        ) from first_exception
    return ScenarioMatrixOutcome(outcomes=outcomes, report=report)
