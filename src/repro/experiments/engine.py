"""Parallel, cached execution engine over the artifact graph.

The 20 figure runners are independent of each other, but they share
expensive intermediates (delay matrices, TIV severities, shortest paths,
the converged embeddings, the TIV alert).  Each runner declares the shared
artifacts it touches at registration time
(:func:`repro.experiments.registry.register_experiment`), and
:func:`repro.artifacts.resolve_plan` closes those declarations over the
node-declared dependencies into a schedulable DAG.  The engine executes
that plan:

* **Caching** — with a cache directory every artifact is persisted through
  :class:`~repro.experiments.cache.ArtifactCache`, content-addressed by the
  node's declared parameters; a second run of the same configuration is
  served entirely from disk.
* **DAG-level parallelism** — with ``jobs > 1`` the engine schedules at
  *artifact* granularity across one
  :class:`concurrent.futures.ProcessPoolExecutor`: an artifact task is
  released the moment its dependencies finish (independent embeddings of
  the same dataset build concurrently), every artifact is computed exactly
  once per run however many figures share it, and each figure task is
  submitted as soon as its artifact closure is materialised — a slow
  artifact chain never stalls unrelated figures.

Every run produces a structured :class:`RunReport` (per-experiment
wall-clock seconds and cache hit/miss counters, plus per-artifact
compute/restore timings) which ``repro run-all`` serialises as
``BENCH_experiments.json``; the CI pipeline asserts a warm second run
reports zero misses.

Determinism: every runner derives all randomness from the configuration
seed, so sequential, parallel, cold-cache and warm-cache runs all produce
identical :class:`ExperimentResult` payloads.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Union

import numpy as np

from repro.artifacts.graph import ExecutionPlan, resolve_plan
from repro.artifacts.nodes import ArtifactKey
from repro.errors import ExperimentError
from repro.experiments.cache import ArtifactCache, CacheStats, config_fingerprint
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ArtifactEvent, ExperimentContext
from repro.experiments.result import ExperimentResult
from repro.utils.io import write_json_report

PathLike = Union[str, Path]

#: Schema identifier written into BENCH_experiments.json.
REPORT_SCHEMA = "bench-experiments/v1"

# Retired shm-transport keys, written as 0 because bench-experiments/v1 readers index them.
_RETIRED_ARTIFACT_KEYS = {"attaches": 0, "attach_seconds": 0.0}
_RETIRED_SHM_COUNTERS = (
    "published",
    "publish_bytes",
    "attaches",
    "attach_bytes",
    "fallbacks",
    "evictions",
)


@dataclass
class ArtifactRecord:
    """Aggregated materialisation accounting of one artifact address."""

    artifact: str
    node: str
    kind: str
    address: str
    computes: int = 0
    restores: int = 0
    compute_seconds: float = 0.0
    restore_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "artifact": self.artifact,
            "node": self.node,
            "kind": self.kind,
            "address": self.address,
            "computes": self.computes,
            "restores": self.restores,
            "compute_seconds": round(self.compute_seconds, 6),
            "restore_seconds": round(self.restore_seconds, 6),
            **_RETIRED_ARTIFACT_KEYS,
        }


def aggregate_artifact_events(events: Iterable[ArtifactEvent]) -> list[ArtifactRecord]:
    """Fold raw materialisation events into one record per artifact address.

    An artifact computed once in one worker and later restored by others
    (its dependents rehydrating it from the cache) appears as a single row
    with ``computes == 1`` and the restore count/time alongside — the
    compute-exactly-once contract is directly readable off the report.
    """
    records: dict[str, ArtifactRecord] = {}
    for event in events:
        record = records.get(event.address)
        if record is None:
            record = ArtifactRecord(
                artifact=event.artifact,
                node=event.node,
                kind=event.kind,
                address=event.address,
            )
            records[event.address] = record
        if event.outcome == "computed":
            record.computes += 1
            record.compute_seconds += event.wall_seconds
        else:
            record.restores += 1
            record.restore_seconds += event.wall_seconds
    return list(records.values())


@dataclass(frozen=True)
class ExperimentRunRecord:
    """Timing and cache accounting of one experiment execution."""

    experiment_id: str
    wall_seconds: float
    cache: CacheStats = field(default_factory=CacheStats)
    status: str = "ok"
    error: str = ""
    retries: int = 0

    def as_dict(self) -> dict[str, Any]:
        payload = {
            "id": self.experiment_id,
            "wall_seconds": round(self.wall_seconds, 6),
            "cache": self.cache.as_dict(),
            "status": self.status,
        }
        if self.error:
            payload["error"] = self.error
        if self.retries:
            payload["retries"] = self.retries
        return payload


@dataclass
class RunReport:
    """Structured report of one engine run (the BENCH_experiments.json payload).

    ``shared`` accounts the artifact (warm) work.  In a sequential run its
    ``wall_seconds`` is the elapsed in-process warm phase; in a parallel
    run artifact tasks interleave with figure tasks across the pool, so it
    is the *sum* of the individual task times — compare it across runs of
    the same mode only (``wall_seconds`` here is always true elapsed time).
    """

    config: dict[str, Any]
    jobs: int
    cache_dir: Optional[str]
    records: list[ExperimentRunRecord] = field(default_factory=list)
    shared: Optional[ExperimentRunRecord] = None
    artifacts: list[ArtifactRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    artifact_retries: int = 0
    figure_retries: int = 0
    pool_rebuilds: int = 0

    def total_cache(self) -> CacheStats:
        """Cache counters summed over the shared phase and every experiment."""
        total = CacheStats()
        phases = list(self.records) + ([self.shared] if self.shared is not None else [])
        for record in phases:
            total.merge(record.cache)
        return total

    @property
    def all_cache_hits(self) -> bool:
        """True when the run touched the cache and never missed (a warm run)."""
        return self.total_cache().all_hits

    def as_dict(self) -> dict[str, Any]:
        total = self.total_cache()
        return {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "shared_precompute": self.shared.as_dict() if self.shared is not None else None,
            "artifacts": [record.as_dict() for record in self.artifacts],
            "experiments": [record.as_dict() for record in self.records],
            "totals": {
                "experiments": len(self.records),
                "wall_seconds": round(self.wall_seconds, 6),
                "experiment_seconds": round(
                    float(sum(r.wall_seconds for r in self.records)), 6
                ),
                "artifacts": {
                    "materialized": len(self.artifacts),
                    "computed": sum(r.computes for r in self.artifacts),
                    "restored": sum(r.restores for r in self.artifacts),
                    "attached": 0,
                    "shm": dict.fromkeys(_RETIRED_SHM_COUNTERS, 0),
                },
                "cache": total.as_dict(),
                "all_cache_hits": self.all_cache_hits,
                "supervision": {
                    "artifact_retries": self.artifact_retries,
                    "figure_retries": self.figure_retries,
                    "pool_rebuilds": self.pool_rebuilds,
                },
            },
        }

    def write(self, path: PathLike) -> None:
        """Serialise the report as JSON (the ``BENCH_experiments.json`` artifact)."""
        write_json_report(path, self.as_dict())


@dataclass(frozen=True)
class EngineOutcome:
    """Results plus the run report of one engine invocation.

    ``failures`` maps the ids of experiments whose runner raised to the
    error message; their records appear in the report with
    ``status: "error"`` and they are absent from ``results``.
    ``first_exception`` keeps the first raised exception object so callers
    can chain it (workers can only ship the pickled exception, so its
    original traceback ends at the process boundary).
    """

    results: dict[str, ExperimentResult]
    report: RunReport
    failures: dict[str, str] = field(default_factory=dict)
    first_exception: Optional[BaseException] = field(default=None, repr=False)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def resolve_experiment_ids(only: Iterable[str] | None) -> list[str]:
    """Validate an ``--only`` subset against the registry (deduplicated).

    ``None`` selects every registered experiment.  Shared by the engine and
    the scenario-matrix runner so both reject unknown ids before any work
    starts.
    """
    from repro.experiments.registry import list_experiments

    known = list_experiments()
    wanted = list(dict.fromkeys(only)) if only is not None else list(known)
    unknown = [experiment_id for experiment_id in wanted if experiment_id not in known]
    if unknown:
        raise ExperimentError(
            f"unknown experiments {', '.join(map(repr, unknown))}; known: {', '.join(known)}"
        )
    return wanted


def _run_in_worker(
    experiment_id: str,
    config: ExperimentConfig,
    cache_dir: Optional[str],
) -> tuple[str, ExperimentResult, float, CacheStats]:
    """Execute one experiment in a worker process.

    Module-level so it pickles under every multiprocessing start method.
    Each invocation builds a fresh context backed by the shared on-disk
    cache; the artifact scheduler only releases a figure once its closure
    is materialised, so every artifact access here is served without
    recomputing.
    """
    from repro.experiments.registry import run_experiment

    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    context = ExperimentContext(config, cache=cache)
    start = time.perf_counter()
    result = run_experiment(experiment_id, context=context)
    elapsed = time.perf_counter() - start
    stats = cache.stats.snapshot() if cache is not None else CacheStats()
    return experiment_id, result, elapsed, stats


def _materialize_in_worker(
    key: ArtifactKey,
    config: ExperimentConfig,
    cache_dir: str,
) -> tuple[ArtifactKey, float, CacheStats, list[ArtifactEvent]]:
    """Materialise one artifact in a worker process.

    The scheduler guarantees the artifact's dependencies are already in
    the disk cache, so the context restores them and computes (then
    stores) only the target.  Module-level so it pickles under every
    start method.
    """
    cache = ArtifactCache(cache_dir)
    context = ExperimentContext(config, cache=cache)
    start = time.perf_counter()
    context.materialize(key)
    elapsed = time.perf_counter() - start
    return key, elapsed, cache.stats.snapshot(), context.drain_events()


class ExperimentEngine:
    """Runs a set of figure experiments in parallel with artifact caching.

    Parameters
    ----------
    config:
        Shared experiment configuration (defaults to the scaled-down
        defaults).
    jobs:
        Worker process count; ``1`` runs sequentially in-process (sharing a
        single context), ``0``/``None`` uses one worker per CPU.
    cache_dir:
        Directory of the on-disk artifact cache; ``None`` disables
        persistence.  An uncached parallel run still shares artifacts
        through a temporary scratch cache (deleted afterwards).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        jobs: int | None = 1,
        cache_dir: PathLike | None = None,
    ):
        self.config = config if config is not None else ExperimentConfig()
        self.jobs = resolve_jobs(jobs)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None

    def run(self, only: Iterable[str] | None = None) -> EngineOutcome:
        """Run every registered experiment (or the subset in ``only``)."""
        wanted = resolve_experiment_ids(only)

        started = time.perf_counter()
        # Everything that allocates run-scoped state lives inside the try:
        # an exception anywhere after the scratch directory exists (even in
        # setup steps) must still reach the rmtree below, or a supervised
        # failure path would leak repro-engine-cache-* directories.
        ephemeral_dir: Optional[str] = None
        try:
            # Worker processes can only share artifacts through the disk
            # cache, so an uncached parallel run would recompute the whole
            # shared pipeline once per experiment.  Give it a scratch
            # cache instead, deleted when the run ends.
            effective_cache_dir = self.cache_dir
            if effective_cache_dir is None and self.jobs > 1:
                ephemeral_dir = tempfile.mkdtemp(prefix="repro-engine-cache-")
                effective_cache_dir = ephemeral_dir
            cache = (
                ArtifactCache(effective_cache_dir)
                if effective_cache_dir is not None
                else None
            )
            if self.jobs == 1:
                # A sequential full sweep materialises the graph up front
                # (the shared phase of the report); a sequential subset run
                # simply lets its single shared context resolve artifacts
                # lazily — same work either way.
                shared_record: Optional[ExperimentRunRecord] = None
                warm_context: Optional[ExperimentContext] = None
                artifact_events: list[ArtifactEvent] = []
                if cache is not None and only is None:
                    shared_record, warm_context, artifact_events = self.warm(cache, wanted)
                results, records, first_exc, figure_events = self._run_sequential(
                    wanted, cache, warm_context
                )
                artifact_events = artifact_events + figure_events
                supervision = {}
            else:
                (
                    results,
                    records,
                    shared_record,
                    artifact_events,
                    first_exc,
                    supervision,
                ) = self._run_parallel(wanted, effective_cache_dir)
        finally:
            if ephemeral_dir is not None:
                shutil.rmtree(ephemeral_dir, ignore_errors=True)

        report = RunReport(
            config=config_fingerprint(self.config),
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            records=records,
            shared=shared_record,
            artifacts=aggregate_artifact_events(artifact_events),
            wall_seconds=time.perf_counter() - started,
            artifact_retries=supervision.get("artifact_retries", 0),
            figure_retries=supervision.get("figure_retries", 0),
            pool_rebuilds=supervision.get("pool_rebuilds", 0),
        )
        failures = {
            record.experiment_id: record.error
            for record in records
            if record.status != "ok"
        }
        return EngineOutcome(
            results=results, report=report, failures=failures, first_exception=first_exc
        )

    def warm(
        self, cache: ArtifactCache, wanted: list[str]
    ) -> tuple[ExperimentRunRecord, Optional[ExperimentContext], list[ArtifactEvent]]:
        """Materialise the artifact graph ``wanted`` resolves to, in-process.

        Used by the sequential path of :meth:`run` (and directly by tests
        pinning the declared requirements to runner reality); the parallel
        path schedules the same graph across the worker pool instead.
        """
        plan = resolve_plan(self.config, wanted)
        before = cache.stats.snapshot()
        start = time.perf_counter()
        context = ExperimentContext(self.config, cache=cache)
        for key in plan.graph.topological_order():
            context.materialize(key)
        record = ExperimentRunRecord(
            experiment_id="__shared__",
            wall_seconds=time.perf_counter() - start,
            cache=cache.stats.since(before),
        )
        return record, context, context.drain_events()

    def _run_sequential(
        self,
        wanted: list[str],
        cache: ArtifactCache | None,
        context: ExperimentContext | None = None,
    ) -> tuple[
        dict[str, ExperimentResult],
        list[ExperimentRunRecord],
        BaseException | None,
        list[ArtifactEvent],
    ]:
        from repro.experiments.registry import run_experiment

        # Reuse the warm phase's context when there is one: its artifacts
        # are already in memory, so re-reading them from disk would only
        # duplicate I/O.
        if context is None:
            context = ExperimentContext(self.config, cache=cache)
        results: dict[str, ExperimentResult] = {}
        records: list[ExperimentRunRecord] = []
        first_exc: BaseException | None = None
        for experiment_id in wanted:
            before = cache.stats.snapshot() if cache is not None else CacheStats()
            start = time.perf_counter()
            status, error = "ok", ""
            try:
                results[experiment_id] = run_experiment(experiment_id, context=context)
            except Exception as exc:
                status, error = "error", f"{type(exc).__name__}: {exc}"
                first_exc = exc if first_exc is None else first_exc
            elapsed = time.perf_counter() - start
            stats = cache.stats.since(before) if cache is not None else CacheStats()
            records.append(
                ExperimentRunRecord(
                    experiment_id=experiment_id,
                    wall_seconds=elapsed,
                    cache=stats,
                    status=status,
                    error=error,
                )
            )
        return results, records, first_exc, context.drain_events()

    def _run_parallel(
        self, wanted: list[str], cache_dir: str
    ) -> tuple[
        dict[str, ExperimentResult],
        list[ExperimentRunRecord],
        ExperimentRunRecord,
        list[ArtifactEvent],
        BaseException | None,
        dict[str, int],
    ]:
        """Schedule artifacts, then figures, over one pool by dependency frontier."""
        plan = resolve_plan(self.config, wanted)
        tasks = plan_artifact_tasks(plan, tag="")
        scheduler = FrontierScheduler(
            tasks=tasks,
            configs={"": self.config},
            figure_grid=[("", experiment_id) for experiment_id in wanted],
            figure_needs={
                ("", eid): plan_figure_addresses(plan, eid) for eid in wanted
            },
            cache_dir=cache_dir,
            jobs=self.jobs,
        )
        scheduler.execute()
        results = {
            eid: scheduler.results[("", eid)]
            for eid in wanted
            if ("", eid) in scheduler.results
        }
        records = [scheduler.figure_records[("", eid)] for eid in wanted]
        return (
            results,
            records,
            scheduler.shared_record(""),
            scheduler.owner_events(""),
            scheduler.tag_exception(""),
            {
                "artifact_retries": scheduler.artifact_retries,
                "figure_retries": scheduler.figure_retries,
                "pool_rebuilds": scheduler.pool_rebuilds,
            },
        )


@dataclass(frozen=True)
class ArtifactTask:
    """One schedulable artifact materialisation, identified by cache address.

    The *address* — not the :class:`ArtifactKey` — is the unit of
    deduplication: two scenarios resolving the same key to the same
    parameters describe the same bytes on disk, so the scheduler computes
    them once and charges the first declarer (``owner``).
    """

    address: str
    key: ArtifactKey
    owner: str
    kind: str
    params: dict
    deps: tuple[str, ...]  # dependency cache addresses

    @property
    def label(self) -> str:
        return self.key.label


def plan_artifact_tasks(plan: ExecutionPlan, *, tag: str) -> dict[str, ArtifactTask]:
    """Address-keyed artifact tasks of one plan, in topological order."""
    tasks: dict[str, ArtifactTask] = {}
    graph = plan.graph
    for key in graph.topological_order():
        artifact = graph[key]
        if artifact.address in tasks:
            continue
        tasks[artifact.address] = ArtifactTask(
            address=artifact.address,
            key=key,
            owner=tag,
            kind=artifact.kind,
            params=artifact.params,
            deps=tuple(graph[dep].address for dep in artifact.deps),
        )
    return tasks


def plan_figure_addresses(plan: ExecutionPlan, experiment_id: str) -> frozenset[str]:
    """The cache addresses of one figure's artifact closure."""
    return frozenset(plan.graph[key].address for key in plan.figure_needs[experiment_id])


class FrontierScheduler:
    """DAG-frontier execution of artifact + figure tasks over one pool.

    Shared by the engine (single configuration) and the scenario-matrix
    runner (one configuration per scenario, with cross-scenario artifacts
    deduplicated by cache address before scheduling): an artifact task is
    released the moment its last dependency lands on disk, each figure
    task the moment its artifact closure is materialised, and every
    artifact address is computed at most once per run.

    Parameters
    ----------
    tasks:
        Address-keyed artifact tasks in topological order (a dependency's
        address precedes its dependents'); addresses already materialised
        in the cache are skipped, which is what makes a warm rerun submit
        zero artifact work.
    configs:
        Configuration per scenario tag (the engine uses the single tag
        ``""``); each task's worker runs under its owner's configuration.
    figure_grid:
        Ordered ``(tag, experiment_id)`` figure tasks.
    figure_needs:
        Artifact closure (as addresses) per figure task.
    max_retries:
        How many *attributed* crashes (a task that was alone in flight
        when the pool broke, or that overran ``task_timeout``) a single
        task survives before it is isolated as poison and routed into
        the ordinary failure-cascade path.  Deterministic task
        exceptions are never retried — a runner that raises will raise
        again, and retrying it would only mask the bug.
    retry_backoff / backoff_cap:
        Deterministic exponential backoff (``retry_backoff * 2**n``
        seconds, capped) slept before each pool rebuild, so a crashing
        environment is not hammered in a tight loop.
    task_timeout:
        Optional per-task wall-clock budget in seconds; an overrunning
        task counts as a crash attributed to that task (its worker is
        torn down with the pool).  ``None`` disables deadlines.
    """

    def __init__(
        self,
        *,
        tasks: Mapping[str, ArtifactTask],
        configs: Mapping[str, ExperimentConfig],
        figure_grid: list[tuple[str, str]],
        figure_needs: Mapping[tuple[str, str], frozenset[str]],
        cache_dir: str,
        jobs: int,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        backoff_cap: float = 1.0,
        task_timeout: float | None = None,
    ):
        self.tasks = dict(tasks)
        self.configs = dict(configs)
        self.figure_grid = list(figure_grid)
        self.figure_needs = dict(figure_needs)
        self.cache_dir = str(cache_dir)
        self.jobs = jobs
        if max_retries < 0:
            raise ExperimentError("max_retries must be >= 0")
        if retry_backoff < 0 or backoff_cap < 0:
            raise ExperimentError("retry_backoff and backoff_cap must be >= 0")
        if task_timeout is not None and task_timeout <= 0:
            raise ExperimentError("task_timeout must be > 0 (or None)")
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.backoff_cap = float(backoff_cap)
        self.task_timeout = task_timeout

        self.results: dict[tuple[str, str], ExperimentResult] = {}
        self.figure_records: dict[tuple[str, str], ExperimentRunRecord] = {}
        # Supervision accounting, readable after execute(): re-submissions
        # per task, and how often the worker pool had to be rebuilt.
        self.artifact_retry_counts: dict[str, int] = {}
        self.figure_retry_counts: dict[tuple[str, str], int] = {}
        self.pool_rebuilds = 0
        # First exception per scenario tag: a shared artifact's failure is
        # charged to every scenario it broke, not just the owner, so each
        # scenario's outcome chains a cause that actually affected it.
        self._tag_exceptions: dict[str, BaseException] = {}
        self._owner_events: dict[str, list[ArtifactEvent]] = {tag: [] for tag in configs}
        self._owner_stats: dict[str, CacheStats] = {tag: CacheStats() for tag in configs}
        self._owner_wall: dict[str, float] = {tag: 0.0 for tag in configs}
        self._owner_errors: dict[str, list[str]] = {tag: [] for tag in configs}

    @property
    def artifact_retries(self) -> int:
        """Total artifact-task re-submissions after crashes/timeouts."""
        return sum(self.artifact_retry_counts.values())

    @property
    def figure_retries(self) -> int:
        """Total figure-task re-submissions after crashes/timeouts."""
        return sum(self.figure_retry_counts.values())

    def owner_artifact_retries(self, tag: str) -> int:
        """Artifact re-submissions charged to ``tag``'s tasks."""
        return sum(
            count
            for address, count in self.artifact_retry_counts.items()
            if self.tasks[address].owner == tag
        )

    def tag_exception(self, tag: str) -> BaseException | None:
        """The first exception that affected ``tag``'s artifacts or figures."""
        return self._tag_exceptions.get(tag)

    @property
    def first_exception(self) -> BaseException | None:
        """The first exception of the whole run (any tag), or ``None``."""
        return next(iter(self._tag_exceptions.values()), None)

    def shared_record(self, tag: str) -> ExperimentRunRecord:
        """The ``__shared__`` report record of one scenario's artifact tasks.

        ``wall_seconds`` is the *summed* wall-clock of the tag's artifact
        tasks — they run concurrently with each other and with figure
        tasks, so no distinct shared-phase elapsed time exists (the run
        report's top-level ``wall_seconds`` carries the true wall-clock).
        """
        errors = self._owner_errors[tag]
        return ExperimentRunRecord(
            experiment_id="__shared__",
            wall_seconds=self._owner_wall[tag],
            cache=self._owner_stats[tag],
            status="ok" if not errors else "error",
            error="; ".join(errors),
            retries=self.owner_artifact_retries(tag),
        )

    def owner_events(self, tag: str) -> list[ArtifactEvent]:
        """Materialisation events of the artifact tasks charged to ``tag``."""
        return list(self._owner_events[tag])

    def execute(self) -> None:
        cache = ArtifactCache(self.cache_dir)
        to_compute = [
            address
            for address, task in self.tasks.items()
            if not cache.contains(task.kind, task.params)
        ]
        pending = set(to_compute)
        dep_left = {
            address: sum(1 for dep in self.tasks[address].deps if dep in pending)
            for address in to_compute
        }
        dependents: dict[str, list[str]] = {address: [] for address in to_compute}
        for address in to_compute:
            for dep in self.tasks[address].deps:
                if dep in pending:
                    dependents[dep].append(address)
        figure_left = {
            task: sum(1 for address in self.figure_needs[task] if address in pending)
            for task in self.figure_grid
        }
        failed: dict[str, str] = {}
        completed_artifacts: set[str] = set()
        # Supervision state.  ``attempts`` counts *attributed* crashes per
        # task key (("artifact", address) or ("figure", (tag, id)));
        # ``probe_queue`` holds crash suspects, which run one at a time so
        # the next pool break is attributable to exactly one task.
        attempts: dict[tuple[str, Any], int] = {}
        probe_queue: list[tuple[str, Any]] = []

        max_workers = min(self.jobs, max(1, len(self.figure_grid) + len(to_compute)))
        pool = ProcessPoolExecutor(max_workers=max_workers)
        inflight: dict[Any, tuple[str, Any]] = {}
        flying: set[tuple[str, Any]] = set()
        deadlines: dict[Any, float] = {}
        probe_future: Any = None

        def record_figure_failure(task: tuple[str, str], message: str) -> None:
            self.figure_records[task] = ExperimentRunRecord(
                experiment_id=task[1],
                wall_seconds=0.0,
                status="error",
                error=message,
                retries=self.figure_retry_counts.get(task, 0),
            )

        def fail_artifact(
            address: str, message: str, exc: BaseException | None = None
        ) -> None:
            """Mark an artifact failed and cascade to dependents/figures."""
            stack = [(address, message)]
            while stack:
                current, current_message = stack.pop()
                if current in failed or current in completed_artifacts:
                    continue
                failed[current] = current_message
                task = self.tasks[current]
                self._owner_errors[task.owner].append(
                    f"{task.label}: {current_message}"
                )
                if exc is not None:
                    self._tag_exceptions.setdefault(task.owner, exc)
                downstream = f"artifact {task.label} failed: {current_message}"
                for dependent in dependents.get(current, ()):
                    stack.append((dependent, downstream))
                for figure_task in self.figure_grid:
                    if figure_task in self.figure_records:
                        continue
                    if current in self.figure_needs[figure_task]:
                        record_figure_failure(
                            figure_task,
                            f"shared artifact {task.label} failed: {current_message}",
                        )
                        if exc is not None:
                            self._tag_exceptions.setdefault(figure_task[0], exc)

        def artifact_done(address: str) -> None:
            if address in completed_artifacts:
                return
            completed_artifacts.add(address)
            for dependent in dependents.get(address, ()):
                dep_left[dependent] -= 1
            for figure_task in self.figure_grid:
                if address in self.figure_needs[figure_task]:
                    figure_left[figure_task] -= 1

        def runnable(key: tuple[str, Any]) -> bool:
            kind, payload = key
            if key in flying:
                return False
            if kind == "artifact":
                return (
                    payload not in failed
                    and payload not in completed_artifacts
                    and dep_left[payload] == 0
                )
            return payload not in self.figure_records and figure_left[payload] == 0

        def submit(key: tuple[str, Any]) -> bool:
            """Submit one task; ``False`` means the pool refused (broken)."""
            kind, payload = key
            try:
                if kind == "artifact":
                    task = self.tasks[payload]
                    future = pool.submit(
                        _materialize_in_worker,
                        task.key,
                        self.configs[task.owner],
                        self.cache_dir,
                    )
                else:
                    tag, experiment_id = payload
                    future = pool.submit(
                        _run_in_worker,
                        experiment_id,
                        self.configs[tag],
                        self.cache_dir,
                    )
            except Exception:
                return False
            inflight[future] = key
            flying.add(key)
            if self.task_timeout is not None:
                deadlines[future] = time.monotonic() + self.task_timeout
            return True

        def submit_ready() -> bool:
            """Fill the pool; ``False`` means it broke mid-submission."""
            nonlocal probe_future
            if probe_future is not None:
                return True  # probing: exactly one task in flight at a time
            while probe_queue:
                key = probe_queue.pop(0)
                if not runnable(key):
                    continue
                if not submit(key):
                    probe_queue.insert(0, key)
                    return False
                probe_future = next(f for f, k in inflight.items() if k == key)
                return True
            for address in to_compute:
                key = ("artifact", address)
                if runnable(key) and not submit(key):
                    return False
            for figure_task in self.figure_grid:
                key = ("figure", figure_task)
                if runnable(key) and not submit(key):
                    return False
            return True

        def complete(future: Any, key: tuple[str, Any]) -> None:
            """Fold one successfully finished task into the run state."""
            kind, payload = key
            if kind == "artifact":
                _, elapsed, stats, events = future.result()
                owner = self.tasks[payload].owner
                self._owner_wall[owner] += elapsed
                self._owner_stats[owner].merge(stats)
                self._owner_events[owner].extend(events)
                artifact_done(payload)
            else:
                _, result, elapsed, stats = future.result()
                self.results[payload] = result
                self.figure_records[payload] = ExperimentRunRecord(
                    experiment_id=payload[1],
                    wall_seconds=elapsed,
                    cache=stats,
                    retries=self.figure_retry_counts.get(payload, 0),
                )

        def isolate(key: tuple[str, Any], message: str, exc: BaseException | None) -> None:
            """Route a poison task into the ordinary failure-cascade path."""
            kind, payload = key
            if kind == "artifact":
                fail_artifact(payload, message, exc)
            else:
                if exc is not None:
                    self._tag_exceptions.setdefault(payload[0], exc)
                record_figure_failure(payload, message)

        def handle_pool_failure(
            crashed: list[tuple[str, Any]],
            attributed: list[tuple[str, Any]],
            exc: BaseException | None,
            reason: str,
        ) -> None:
            """Rebuild the pool; charge ``attributed`` tasks, requeue the rest.

            A broken pool poisons every in-flight future with the same
            exception, so the crasher is only knowable when it flew alone
            (or overran its deadline).  Unattributed suspects are requeued
            without a strike and probed one at a time.
            """
            nonlocal pool, probe_future
            probe_future = None
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            inflight.clear()
            flying.clear()
            deadlines.clear()
            self.pool_rebuilds += 1
            delay = min(
                self.backoff_cap, self.retry_backoff * (2 ** (self.pool_rebuilds - 1))
            )
            if delay > 0:
                time.sleep(delay)
            pool = ProcessPoolExecutor(max_workers=max_workers)
            charged = set(attributed)
            for key in crashed:
                kind, payload = key
                if kind == "artifact" and (
                    payload in completed_artifacts or payload in failed
                ):
                    continue
                if kind == "figure" and payload in self.figure_records:
                    continue
                if key in charged:
                    attempts[key] = attempts.get(key, 0) + 1
                    if attempts[key] > self.max_retries:
                        isolate(
                            key,
                            f"{reason}; isolated after "
                            f"{attempts[key]} attributed failures",
                            exc,
                        )
                        continue
                if kind == "artifact":
                    self.artifact_retry_counts[payload] = (
                        self.artifact_retry_counts.get(payload, 0) + 1
                    )
                else:
                    self.figure_retry_counts[payload] = (
                        self.figure_retry_counts.get(payload, 0) + 1
                    )
                if key not in probe_queue:
                    probe_queue.append(key)

        try:
            healthy = submit_ready()
            while inflight or probe_queue or not healthy:
                if not healthy:
                    # The pool broke while we were feeding it.
                    handle_pool_failure(
                        list(inflight.values()),
                        list(inflight.values()) if len(inflight) == 1 else [],
                        None,
                        "worker pool broke during submission",
                    )
                    healthy = submit_ready()
                    continue
                if not inflight:
                    # Probe queue drained to only unrunnable entries.
                    probe_queue.clear()
                    healthy = submit_ready()
                    if not inflight and healthy:
                        break
                    continue
                poll = None
                if deadlines:
                    poll = max(
                        0.05, min(deadlines.values()) - time.monotonic() + 0.01
                    )
                done, _ = wait(set(inflight), timeout=poll, return_when=FIRST_COMPLETED)
                if not done:
                    now = time.monotonic()
                    overdue = [
                        inflight[f]
                        for f in list(inflight)
                        if deadlines.get(f, float("inf")) <= now
                    ]
                    if overdue:
                        timeout_exc: BaseException = ExperimentError(
                            f"task exceeded task_timeout={self.task_timeout}s"
                        )
                        handle_pool_failure(
                            list(inflight.values()),
                            overdue,
                            timeout_exc,
                            f"timed out after {self.task_timeout}s",
                        )
                        healthy = submit_ready()
                    continue
                crashed: list[tuple[str, Any]] = []
                crash_exc: BaseException | None = None
                for future in done:
                    key = inflight.pop(future)
                    flying.discard(key)
                    deadlines.pop(future, None)
                    if future is probe_future:
                        probe_future = None
                    error = future.exception()
                    if error is None:
                        complete(future, key)
                    elif isinstance(error, BrokenExecutor):
                        # The worker died (segfault, OOM kill, hard exit):
                        # retryable, unlike a deterministic task exception.
                        crashed.append(key)
                        crash_exc = error
                    elif key[0] == "artifact":
                        fail_artifact(key[1], f"{type(error).__name__}: {error}", error)
                    else:
                        self._tag_exceptions.setdefault(key[1][0], error)
                        record_figure_failure(
                            key[1], f"{type(error).__name__}: {error}"
                        )
                if crashed:
                    # The break poisons everything still in flight; sweep
                    # survivors that actually finished, requeue the rest.
                    remaining = []
                    for future, key in list(inflight.items()):
                        if future.done() and future.exception() is None:
                            complete(future, key)
                        else:
                            remaining.append(key)
                    attributed = (
                        crashed if len(crashed) == 1 and not remaining else []
                    )
                    handle_pool_failure(
                        crashed + remaining,
                        attributed,
                        crash_exc,
                        "worker process crashed",
                    )
                healthy = submit_ready()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

        # Anything still unscheduled lost its dependency chain.
        for address in to_compute:
            if address not in completed_artifacts and address not in failed:
                fail_artifact(address, "never became schedulable")
        for figure_task in self.figure_grid:
            if figure_task not in self.figure_records:
                record_figure_failure(
                    figure_task,
                    "shared artifact phase failed before this figure ran",
                )


def run_experiments(
    config: ExperimentConfig | None = None,
    *,
    only: Iterable[str] | None = None,
    jobs: int | None = 1,
    cache_dir: PathLike | None = None,
    report_path: PathLike | None = None,
) -> EngineOutcome:
    """Run experiments through the engine and optionally write the run report.

    This is the functional entry point used by
    :func:`repro.experiments.registry.run_all_experiments` and by
    ``repro run-all``.  If any experiment fails, the report (including the
    per-experiment ``status``/``error`` records) is still written before an
    :class:`ExperimentError` summarising the failures is raised.
    """
    engine = ExperimentEngine(config, jobs=jobs, cache_dir=cache_dir)
    outcome = engine.run(only=only)
    if report_path is not None:
        outcome.report.write(report_path)
    if outcome.failures:
        details = "; ".join(f"{eid}: {msg}" for eid, msg in outcome.failures.items())
        raise ExperimentError(
            f"{len(outcome.failures)} experiment(s) failed: {details}"
        ) from outcome.first_exception
    return outcome


def results_equal(a: Mapping[str, Any], b: Mapping[str, Any]) -> bool:
    """Deep equality of two experiment-result payloads (NaN-tolerant).

    Public determinism-checking helper: the engine guarantees parallel,
    sequential, cold-cache and warm-cache runs agree bit-for-bit, and this
    is the comparison that pins that guarantee down (the engine tests use
    it; external harnesses comparing two runs can too).
    """
    return _payload_equal(a, b)


def _payload_equal(a: Any, b: Any) -> bool:
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a) != set(b):
            return False
        return all(_payload_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return False
        return all(_payload_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        try:
            return bool(np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True))
        except TypeError:  # non-numeric dtypes
            return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
        return a == b
    return bool(a == b)
