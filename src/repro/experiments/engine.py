"""Cached execution engine over the artifact graph.

The 20 figure runners are independent of each other, but they share
expensive intermediates (delay matrices, TIV severities, shortest paths,
the converged embeddings, the TIV alert).  Each runner declares the shared
artifacts it touches at registration time
(:func:`repro.experiments.registry.register_experiment`), and
:func:`repro.artifacts.resolve_plan` closes those declarations over the
node-declared dependencies into a schedulable DAG.  :func:`run_plans`
executes that plan — the one execution path of ``run-all`` and of the
scenario matrix, at every job count:

* **Caching** — every artifact is persisted through
  :class:`~repro.experiments.cache.ArtifactCache`, content-addressed by the
  node's declared parameters.  With a cache directory a second run of the
  same configuration is served entirely from disk; without one the run
  works through a scratch cache deleted when it ends.
* **One task DAG** — the plans become one DAG whose nodes are artifact
  tasks, keyed by cache address (every artifact is computed exactly once
  per run however many figures or scenarios share it), and figure tasks,
  keyed by ``(tag, experiment_id)`` and waiting on their whole artifact
  closure.  One :class:`FrontierScheduler` runs it: a task is released the
  moment its last dependency finishes (independent embeddings of the same
  dataset build concurrently, and a slow artifact chain never stalls
  unrelated figures), and a failed task fails everything downstream of
  it.  ``jobs > 1`` runs the tasks on a
  :class:`concurrent.futures.ProcessPoolExecutor`; ``jobs == 1`` runs them
  in-process.

Every run produces a structured :class:`RunReport` (per-experiment
wall-clock seconds and cache hit/miss counters, plus per-artifact
compute/restore timings) which ``repro run-all`` serialises as
``BENCH_experiments.json``; the CI pipeline asserts a warm second run
reports zero misses.

Determinism: every runner derives all randomness from the configuration
seed, so in-process, parallel, cold-cache and warm-cache runs all produce
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
    Future,
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

#: Attributed worker crashes one task survives before it is isolated as poison.
_MAX_RETRIES = 2
#: Sleep before the n-th pool rebuild: ``_RETRY_BACKOFF * 2**(n - 1)`` seconds,
#: capped at ``_BACKOFF_CAP``, so a crashing environment is not hammered.
_RETRY_BACKOFF = 0.05
_BACKOFF_CAP = 1.0


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

    ``shared`` accounts the artifact tasks.  Its ``wall_seconds`` is always
    their *summed* task time: artifact tasks interleave with figure tasks
    (across the pool when ``jobs > 1``), so no distinct shared-phase
    elapsed time exists — the top-level ``wall_seconds`` carries the true
    elapsed time.
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


def _run_task(
    context: ExperimentContext, target: Union[ArtifactKey, str]
) -> tuple[float, CacheStats, Any]:
    """Run one artifact or figure task through ``context``: the one task body.

    Returns the elapsed seconds, the cache counters the task moved, and its
    payload: the artifact task's materialisation events, or the figure's
    :class:`ExperimentResult`.  A figure's own materialisations stay out of
    the report's ``artifacts`` section, so its events are dropped (at the
    start of the next task, which also drops those of a task that raised).
    """
    from repro.experiments.registry import run_experiment

    context.drain_events()
    before = context.cache.stats.snapshot()
    start = time.perf_counter()
    if isinstance(target, ArtifactKey):
        context.materialize(target)
        payload = context.drain_events()
    else:
        payload = run_experiment(target, context=context)
    return time.perf_counter() - start, context.cache.stats.since(before), payload


def _run_fresh_task(
    config: ExperimentConfig, cache_dir: str, target: Union[ArtifactKey, str]
) -> tuple[float, CacheStats, Any]:
    """:func:`_run_task` in a pool worker, over a fresh context.

    Module-level so it pickles under every start method.  The scheduler
    only releases a task once its dependencies are on disk, so the context
    restores them and computes nothing but the target.
    """
    return _run_task(ExperimentContext(config, cache=ArtifactCache(cache_dir)), target)


class _InlineExecutor:
    """The ``jobs == 1`` executor: runs each task at once, in this process.

    It holds the context of the last configuration it ran.  A one-config
    run therefore memoises every artifact across its tasks; a task of
    another configuration (the next scenario of a matrix) replaces the
    context and restores its dependencies from the cache, so at most one
    configuration's artifacts stay resident.
    """

    def __init__(self) -> None:
        self._context: Optional[ExperimentContext] = None

    def submit(self, fn, config: ExperimentConfig, cache_dir: str, target) -> Future:
        """Run ``fn``'s task now, through the held context instead of a fresh one."""
        if self._context is None or self._context.config != config:
            self._context = ExperimentContext(config, cache=ArtifactCache(cache_dir))
        future: Future = Future()
        try:
            future.set_result(_run_task(self._context, target))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._context = None


#: A node of the task DAG: an artifact's cache address, or a figure's
#: ``(tag, experiment_id)``.
TaskId = Union[str, tuple[str, str]]


@dataclass(frozen=True)
class _Task:
    """One node of the task DAG: an artifact or a figure.

    ``target`` is the artifact's key or the figure's experiment id, ``tag``
    the configuration it runs under (for an artifact several configurations
    share, the first that declares it), and ``deps`` the addresses of the
    artifacts still to compute that it waits on: among an artifact's
    dependencies, or a figure's whole closure.
    """

    tag: str
    target: Union[ArtifactKey, str]
    deps: frozenset[str]

    @property
    def is_artifact(self) -> bool:
        return isinstance(self.target, ArtifactKey)


def _task_dag(
    plans: Mapping[str, ExecutionPlan], wanted: list[str], cache: ArtifactCache
) -> dict[TaskId, _Task]:
    """The task DAG of ``plans``, every task after the tasks it waits on.

    One artifact task per cache address ``cache`` lacks, in each plan's
    topological order, then one figure task per ``(tag, experiment_id)`` in
    grid order.  The address, not the key, is the unit of deduplication:
    two plans resolving an artifact to the same parameters describe the same
    bytes on disk, so it runs once, charged to the first plan that declares
    it.  Tasks wait only on artifacts still to compute, so a warm rerun
    submits no artifact work.
    """
    tasks: dict[TaskId, _Task] = {}

    def still_to_compute(plan: ExecutionPlan, keys: Iterable[ArtifactKey]) -> frozenset[str]:
        return frozenset({plan.graph[key].address for key in keys} & tasks.keys())

    for tag, plan in plans.items():
        for artifact in plan.graph:
            if artifact.address not in tasks and not cache.contains(artifact.kind, artifact.params):
                deps = still_to_compute(plan, artifact.deps)
                tasks[artifact.address] = _Task(tag, artifact.key, deps)
    for tag, plan in plans.items():
        for experiment_id in wanted:
            deps = still_to_compute(plan, plan.figure_needs[experiment_id])
            tasks[(tag, experiment_id)] = _Task(tag, experiment_id, deps)
    return tasks


class FrontierScheduler:
    """Frontier execution of one task DAG of artifacts and figures.

    The executor behind :func:`run_plans`, for one configuration or a whole
    scenario matrix: a task is released the moment the last task it waits
    on has finished (its dependencies are then on disk), ready tasks are
    submitted in DAG order (artifacts in topological order, then figures in
    grid order), and a failed task fails every task downstream of it while
    independent work continues.  ``jobs > 1`` runs each task on a process
    pool in a fresh context; ``jobs == 1`` runs it in-process on an
    :class:`_InlineExecutor`.

    Supervision (pool only: an in-process task cannot kill its worker): a
    worker death — segfault, OOM kill, hard exit — tears the pool down and
    rebuilds it after a capped exponential backoff (``_RETRY_BACKOFF``,
    ``_BACKOFF_CAP``).  A crash is charged to a task only when that task
    flew alone; unattributed suspects re-run one at a time (probe mode) so
    the next crash names its culprit, and a task charged more than
    ``_MAX_RETRIES`` times is isolated as poison: it fails like any other
    task.  Deterministic task exceptions are never retried — a runner that
    raises will raise again, and retrying it would only mask the bug.

    ``tasks`` is the DAG :func:`_task_dag` builds, each task after the tasks
    it waits on; each runs under its tag's entry in ``configs``.  After
    :meth:`execute`, ``finished`` holds each finished task's ``(seconds,
    cache counters, payload)`` in completion order, ``failed`` each failed
    task's ``(message, exception or None)`` in failure order, ``retries``
    the re-submissions per task, and ``pool_rebuilds`` how often the pool
    was rebuilt.
    """

    def __init__(
        self,
        tasks: Mapping[TaskId, _Task],
        *,
        configs: Mapping[str, ExperimentConfig],
        cache_dir: str,
        jobs: int,
    ):
        self.tasks = dict(tasks)
        self.configs = dict(configs)
        self.cache_dir = str(cache_dir)
        self.jobs = jobs
        self.finished: dict[TaskId, tuple[float, CacheStats, Any]] = {}
        self.failed: dict[TaskId, tuple[str, Optional[BaseException]]] = {}
        self.retries: dict[TaskId, int] = {}
        self.pool_rebuilds = 0

    def execute(self) -> None:
        waiting = {task_id: len(task.deps) for task_id, task in self.tasks.items()}
        dependents: dict[TaskId, list[TaskId]] = {task_id: [] for task_id in self.tasks}
        for task_id, task in self.tasks.items():
            for dep in task.deps:
                dependents[dep].append(task_id)
        # Supervision state: attributed crashes per task, and the crash
        # suspects, which run one at a time so the next pool break is
        # attributable to exactly one task (``probe``, while it runs).
        attempts: dict[TaskId, int] = {}
        probes: list[TaskId] = []
        probe: Optional[TaskId] = None
        running: dict[TaskId, Future] = {}

        def new_pool() -> Any:
            if self.jobs == 1:
                return _InlineExecutor()
            return ProcessPoolExecutor(max_workers=min(self.jobs, max(1, len(self.tasks))))

        pool = new_pool()

        def settled(task_id: TaskId) -> bool:
            return task_id in self.finished or task_id in self.failed

        def runnable(task_id: TaskId) -> bool:
            return waiting[task_id] == 0 and task_id not in running and not settled(task_id)

        def complete(task_id: TaskId, outcome: tuple[float, CacheStats, Any]) -> None:
            self.finished[task_id] = outcome
            for dependent in dependents[task_id]:
                waiting[dependent] -= 1

        def fail(task_id: TaskId, message: str, exc: Optional[BaseException] = None) -> None:
            """Record ``task_id`` failed, then every task downstream of it.

            A failed artifact's figures follow its dependent artifacts in
            its dependents, so the last-in-first-out walk settles them
            first: each figure names the root failure.
            """
            stack = [(task_id, message)]
            while stack:
                task_id, message = stack.pop()
                if settled(task_id):
                    continue
                self.failed[task_id] = (message, exc)
                upstream = self.tasks[task_id].target
                for dependent in dependents[task_id]:
                    noun = "artifact" if self.tasks[dependent].is_artifact else "shared artifact"
                    stack.append((dependent, f"{noun} {upstream.label} failed: {message}"))

        def submit(task_id: TaskId) -> bool:
            """Submit one task; ``False`` means the pool refused (broken)."""
            task = self.tasks[task_id]
            config = self.configs[task.tag]
            try:
                running[task_id] = pool.submit(_run_fresh_task, config, self.cache_dir, task.target)
            except Exception:
                return False
            return True

        def submit_ready() -> bool:
            """Fill the pool in DAG order; ``False`` means it broke mid-submission."""
            nonlocal probe
            if probe is not None:
                return True  # probing: exactly one task in flight at a time
            while probes:
                task_id = probes.pop(0)
                if not runnable(task_id):
                    continue
                if not submit(task_id):
                    probes.insert(0, task_id)
                    return False
                probe = task_id
                return True
            return all(submit(task_id) for task_id in self.tasks if runnable(task_id))

        def rebuild(
            suspects: list[TaskId],
            charged: list[TaskId],
            exc: Optional[BaseException],
            reason: str,
        ) -> None:
            """Rebuild the pool; strike ``charged`` tasks, requeue the suspects.

            A broken pool poisons every in-flight future with the same
            exception, so the crasher is only knowable when it flew alone.
            Unattributed suspects are requeued without a strike and probed
            one at a time.
            """
            nonlocal pool, probe
            probe = None
            for process in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            running.clear()
            self.pool_rebuilds += 1
            time.sleep(min(_BACKOFF_CAP, _RETRY_BACKOFF * (2 ** (self.pool_rebuilds - 1))))
            pool = new_pool()
            for task_id in suspects:
                if settled(task_id):
                    continue
                if task_id in charged:
                    attempts[task_id] = attempts.get(task_id, 0) + 1
                    if attempts[task_id] > _MAX_RETRIES:
                        isolated = f"isolated after {attempts[task_id]} attributed failures"
                        fail(task_id, f"{reason}; {isolated}", exc)
                        continue
                self.retries[task_id] = self.retries.get(task_id, 0) + 1
                if task_id not in probes:
                    probes.append(task_id)

        try:
            healthy = submit_ready()
            while running or not healthy:
                if not healthy:
                    # The pool broke while we were feeding it.
                    suspects = list(running)
                    charged = suspects if len(suspects) == 1 else []
                    rebuild(suspects, charged, None, "worker pool broke during submission")
                    healthy = submit_ready()
                    continue
                done, _ = wait(set(running.values()), return_when=FIRST_COMPLETED)
                crashed: list[TaskId] = []
                crash_exc: Optional[BaseException] = None
                # Fold finished tasks in submission order, so an in-process
                # run reports its artifacts in topological order.
                for task_id, future in [(t, f) for t, f in running.items() if f in done]:
                    del running[task_id]
                    if task_id == probe:
                        probe = None
                    error = future.exception()
                    if error is None:
                        complete(task_id, future.result())
                    elif isinstance(error, BrokenExecutor):
                        # The worker died (segfault, OOM kill, hard exit):
                        # retryable, unlike a deterministic task exception.
                        crashed.append(task_id)
                        crash_exc = error
                    else:
                        fail(task_id, f"{type(error).__name__}: {error}", error)
                if crashed:
                    # The break poisons everything still in flight; sweep
                    # survivors that actually finished, requeue the rest.
                    remaining = []
                    for task_id, future in list(running.items()):
                        if future.done() and future.exception() is None:
                            complete(task_id, future.result())
                        else:
                            remaining.append(task_id)
                    charged = crashed if len(crashed) == 1 and not remaining else []
                    rebuild(crashed + remaining, charged, crash_exc, "worker process crashed")
                healthy = submit_ready()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

        # Anything still unsettled lost its dependency chain.
        for task_id in self.tasks:
            if not settled(task_id):
                fail(task_id, "never became schedulable")

    def tag_outcome(
        self, tag: str, wanted: list[str]
    ) -> tuple[
        ExperimentRunRecord,
        list[ExperimentRunRecord],
        list[ArtifactEvent],
        dict[str, ExperimentResult],
        Optional[BaseException],
    ]:
        """``tag``'s share of the outcomes, for its run report.

        Returns the ``__shared__`` record of its artifact tasks, the record
        of each figure in ``wanted``, its artifact tasks' materialisation
        events, its figures' results, and the first exception among its
        failed tasks (a shared artifact's failure fails the tasks of every
        scenario that needs it, so each outcome chains a cause that affected
        it).  The shared record's ``wall_seconds`` is the *summed*
        time of its artifact tasks: they interleave with each other and with
        figure tasks, so no distinct shared-phase elapsed time exists.
        """
        mine = {task_id for task_id, task in self.tasks.items() if task.tag == tag}
        artifacts = {task_id for task_id in mine if self.tasks[task_id].is_artifact}
        built = [self.finished[t] for t in self.finished if t in artifacts]
        errors = [
            f"{self.tasks[t].target.label}: {self.failed[t][0]}"
            for t in self.failed
            if t in artifacts
        ]
        stats = CacheStats()
        for _, delta, _ in built:
            stats.merge(delta)
        shared = ExperimentRunRecord(
            experiment_id="__shared__",
            wall_seconds=sum(seconds for seconds, _, _ in built),
            cache=stats,
            status="error" if errors else "ok",
            error="; ".join(errors),
            retries=sum(self.retries.get(t, 0) for t in artifacts),
        )
        records = []
        for experiment_id in wanted:
            task_id = (tag, experiment_id)
            retries = self.retries.get(task_id, 0)
            if task_id in self.finished:
                seconds, delta, _ = self.finished[task_id]
                records.append(ExperimentRunRecord(experiment_id, seconds, delta, retries=retries))
            else:
                error = self.failed[task_id][0]
                records.append(
                    ExperimentRunRecord(
                        experiment_id, 0.0, status="error", error=error, retries=retries
                    )
                )
        events = [event for _, _, payload in built for event in payload]
        results = {
            experiment_id: self.finished[(tag, experiment_id)][2]
            for experiment_id in wanted
            if (tag, experiment_id) in self.finished
        }
        first_exception = next(
            (exc for t, (_, exc) in self.failed.items() if t in mine and exc is not None),
            None,
        )
        return shared, records, events, results, first_exception


def run_plans(
    configs: Mapping[str, ExperimentConfig],
    wanted: list[str],
    *,
    jobs: int,
    cache_dir: PathLike | None,
) -> dict[str, EngineOutcome]:
    """Run the figures ``wanted`` under every tagged configuration.

    The one execution path: :func:`run_experiments` is its one-tag
    case, :func:`repro.scenarios.runner.run_scenario_matrix` its
    one-tag-per-scenario case.  Each configuration's plan is resolved, the
    plans become one task DAG (an artifact two configurations share is one
    task, computed once and charged to its first declarer), and the DAG
    runs on one :class:`FrontierScheduler`.  Without ``cache_dir`` the run
    works through a ``repro-engine-cache-*`` scratch cache, removed on
    every exit (``^C`` included).

    A configuration whose plan fails to resolve is recorded against each of
    its figures; the others still run.  Each outcome's report
    ``wall_seconds`` is its tag's summed task time.
    """
    report_cache_dir = str(cache_dir) if cache_dir is not None else None
    plans: dict[str, ExecutionPlan] = {}
    unresolved: dict[str, Exception] = {}
    for tag, config in configs.items():
        try:
            plans[tag] = resolve_plan(config, wanted)
        except Exception as exc:
            unresolved[tag] = exc

    scratch_dir: Optional[str] = None
    try:
        if report_cache_dir is None:
            scratch_dir = tempfile.mkdtemp(prefix="repro-engine-cache-")
        run_cache_dir = report_cache_dir or scratch_dir
        scheduler = FrontierScheduler(
            _task_dag(plans, wanted, ArtifactCache(run_cache_dir)),
            configs={tag: configs[tag] for tag in plans},
            cache_dir=run_cache_dir,
            jobs=jobs,
        )
        scheduler.execute()
    finally:
        if scratch_dir is not None:
            shutil.rmtree(scratch_dir, ignore_errors=True)

    outcomes: dict[str, EngineOutcome] = {}
    for tag, config in configs.items():
        if tag in unresolved:
            first_exception: Optional[BaseException] = unresolved[tag]
            message = f"{type(first_exception).__name__}: {first_exception}"
            shared = ExperimentRunRecord("__shared__", 0.0, status="error", error=message)
            records = [
                ExperimentRunRecord(
                    eid, 0.0, status="error", error=f"artifact plan failed: {message}"
                )
                for eid in wanted
            ]
            events: list[ArtifactEvent] = []
            results: dict[str, ExperimentResult] = {}
        else:
            shared, records, events, results, first_exception = scheduler.tag_outcome(tag, wanted)
        report = RunReport(
            config=config_fingerprint(config),
            jobs=jobs,
            # The caller's value, not the scratch directory (deleted above).
            cache_dir=report_cache_dir,
            records=records,
            shared=shared,
            # Cross-scenario shared artifacts are charged to their first
            # declarer, so a scenario arriving second sees them as figure
            # cache hits rather than shared-phase work.
            artifacts=aggregate_artifact_events(events),
            wall_seconds=shared.wall_seconds + sum(r.wall_seconds for r in records),
            artifact_retries=shared.retries,
            figure_retries=sum(r.retries for r in records),
            pool_rebuilds=scheduler.pool_rebuilds,
        )
        outcomes[tag] = EngineOutcome(
            results=results,
            report=report,
            failures={r.experiment_id: r.error for r in records if r.status != "ok"},
            first_exception=first_exception,
        )
    return outcomes


def run_experiments(
    config: ExperimentConfig | None = None,
    *,
    only: Iterable[str] | None = None,
    jobs: int | None = 1,
    cache_dir: PathLike | None = None,
    report_path: PathLike | None = None,
) -> EngineOutcome:
    """Run every registered experiment (or the subset in ``only``) and
    optionally write the run report.

    ``jobs`` is the worker process count (``1`` runs every task
    in-process, ``0``/``None`` one worker per CPU); ``cache_dir`` is the
    on-disk artifact cache (``None``: a scratch cache deleted afterwards).
    The report's ``wall_seconds`` is the wall time of the :func:`run_plans`
    call.  This is the functional entry point used by
    :func:`repro.experiments.registry.run_all_experiments` and by
    ``repro run-all``.  If any experiment fails, the report (including the
    per-experiment ``status``/``error`` records) is still written before an
    :class:`ExperimentError` summarising the failures is raised.
    """
    config = config if config is not None else ExperimentConfig()
    jobs = resolve_jobs(jobs)
    wanted = resolve_experiment_ids(only)
    started = time.perf_counter()
    outcome = run_plans({"": config}, wanted, jobs=jobs, cache_dir=cache_dir)[""]
    outcome.report.wall_seconds = time.perf_counter() - started
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
    in-process, cold-cache and warm-cache runs agree bit-for-bit, and this
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
