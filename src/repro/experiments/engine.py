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
* **DAG-level scheduling** — one :class:`FrontierScheduler` runs the plan
  at *artifact* granularity: an artifact task is released the moment its
  dependencies finish (independent embeddings of the same dataset build
  concurrently), every artifact is computed exactly once per run however
  many figures share it, and each figure task is submitted as soon as its
  artifact closure is materialised — a slow artifact chain never stalls
  unrelated figures.  ``jobs > 1`` runs the tasks on a
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
    context: ExperimentContext, kind: str, target: Any
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
    if kind == "artifact":
        context.materialize(target)
        payload = context.drain_events()
    else:
        payload = run_experiment(target, context=context)
    return time.perf_counter() - start, context.cache.stats.since(before), payload


def _run_fresh_task(
    config: ExperimentConfig, cache_dir: str, kind: str, target: Any
) -> tuple[float, CacheStats, Any]:
    """:func:`_run_task` in a pool worker, over a fresh context.

    Module-level so it pickles under every start method.  The scheduler
    only releases a task once its dependencies are on disk, so the context
    restores them and computes nothing but the target.
    """
    return _run_task(ExperimentContext(config, cache=ArtifactCache(cache_dir)), kind, target)


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

    def submit(self, fn, config: ExperimentConfig, cache_dir: str, kind: str, target) -> Future:
        """Run ``fn``'s task now, through the held context instead of a fresh one."""
        if self._context is None or self._context.config != config:
            self._context = ExperimentContext(config, cache=ArtifactCache(cache_dir))
        future: Future = Future()
        try:
            future.set_result(_run_task(self._context, kind, target))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self._context = None


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
    """DAG-frontier execution of artifact + figure tasks.

    The executor behind :func:`run_plans`, for one configuration or a whole
    scenario matrix (cross-scenario artifacts deduplicated by cache address
    before scheduling): an artifact task is released the moment its last
    dependency lands on disk, each figure task the moment its artifact
    closure is materialised, and every artifact address is computed at most
    once per run.  ``jobs > 1`` runs each task on a process pool in a fresh
    context; ``jobs == 1`` runs it in-process on an :class:`_InlineExecutor`.

    Supervision (pool only: an in-process task cannot kill its worker): a
    worker death — segfault, OOM kill, hard exit — tears the pool down and
    rebuilds it after a capped exponential backoff (``_RETRY_BACKOFF``,
    ``_BACKOFF_CAP``).  A crash is charged to a task only when that task
    flew alone; unattributed suspects re-run one at a time (probe mode) so
    the next crash names its culprit, and a task charged more than
    ``_MAX_RETRIES`` times is isolated as poison into the ordinary
    failure-cascade path.  Deterministic task exceptions are never retried —
    a runner that raises will raise again, and retrying it would only mask
    the bug.

    Parameters
    ----------
    tasks:
        Address-keyed artifact tasks in topological order (a dependency's
        address precedes its dependents'); addresses already materialised
        in the cache are skipped, which is what makes a warm rerun submit
        zero artifact work.
    configs:
        Configuration per scenario tag (the engine uses the single tag
        ``""``); each task runs under its owner's configuration.
    figure_needs:
        The ordered ``(tag, experiment_id)`` figure tasks, each mapped to
        its artifact closure (as addresses).
    """

    def __init__(
        self,
        *,
        tasks: Mapping[str, ArtifactTask],
        configs: Mapping[str, ExperimentConfig],
        figure_needs: Mapping[tuple[str, str], frozenset[str]],
        cache_dir: str,
        jobs: int,
    ):
        self.tasks = dict(tasks)
        self.configs = dict(configs)
        self.figure_needs = dict(figure_needs)
        self.figure_grid = list(self.figure_needs)
        self.cache_dir = str(cache_dir)
        self.jobs = jobs

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

    def tag_exception(self, tag: str) -> BaseException | None:
        """The first exception that affected ``tag``'s artifacts or figures."""
        return self._tag_exceptions.get(tag)

    def shared_record(self, tag: str) -> ExperimentRunRecord:
        """The ``__shared__`` report record of one scenario's artifact tasks.

        ``wall_seconds`` is the *summed* wall-clock of the tag's artifact
        tasks — they interleave with each other and with figure tasks, so
        no distinct shared-phase elapsed time exists (the run report's
        top-level ``wall_seconds`` carries the true wall-clock).
        """
        errors = self._owner_errors[tag]
        return ExperimentRunRecord(
            experiment_id="__shared__",
            wall_seconds=self._owner_wall[tag],
            cache=self._owner_stats[tag],
            status="ok" if not errors else "error",
            error="; ".join(errors),
            retries=sum(
                count
                for address, count in self.artifact_retry_counts.items()
                if self.tasks[address].owner == tag
            ),
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

        def new_pool() -> Any:
            if self.jobs == 1:
                return _InlineExecutor()
            return ProcessPoolExecutor(max_workers=max_workers)

        pool = new_pool()
        inflight: dict[Any, tuple[str, Any]] = {}
        flying: set[tuple[str, Any]] = set()
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
            if kind == "artifact":
                task = self.tasks[payload]
                config, target = self.configs[task.owner], task.key
            else:
                config, target = self.configs[payload[0]], payload[1]
            try:
                future = pool.submit(_run_fresh_task, config, self.cache_dir, kind, target)
            except Exception:
                return False
            inflight[future] = key
            flying.add(key)
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
            elapsed, stats, value = future.result()
            if kind == "artifact":
                owner = self.tasks[payload].owner
                self._owner_wall[owner] += elapsed
                self._owner_stats[owner].merge(stats)
                self._owner_events[owner].extend(value)
                artifact_done(payload)
            else:
                self.results[payload] = value
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
            exception, so the crasher is only knowable when it flew alone.
            Unattributed suspects are requeued without a strike and probed
            one at a time.
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
            self.pool_rebuilds += 1
            time.sleep(min(_BACKOFF_CAP, _RETRY_BACKOFF * (2 ** (self.pool_rebuilds - 1))))
            pool = new_pool()
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
                    if attempts[key] > _MAX_RETRIES:
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
                done, _ = wait(set(inflight), return_when=FIRST_COMPLETED)
                crashed: list[tuple[str, Any]] = []
                crash_exc: BaseException | None = None
                # Fold finished tasks in submission order, so an in-process
                # run reports its artifacts in topological order.
                for future in [f for f in inflight if f in done]:
                    key = inflight.pop(future)
                    flying.discard(key)
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
    artifact tasks are merged by cache address (an artifact two
    configurations share is computed once and charged to its first
    declarer), and every task runs on one :class:`FrontierScheduler`.
    Without ``cache_dir`` the run works through a ``repro-engine-cache-*``
    scratch cache, removed on every exit (``^C`` included).

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

    tasks: dict[str, ArtifactTask] = {}
    figure_needs: dict[tuple[str, str], frozenset[str]] = {}
    for tag, plan in plans.items():
        for address, task in plan_artifact_tasks(plan, tag=tag).items():
            tasks.setdefault(address, task)
        for experiment_id in wanted:
            figure_needs[(tag, experiment_id)] = plan_figure_addresses(plan, experiment_id)

    scratch_dir: Optional[str] = None
    try:
        if report_cache_dir is None:
            scratch_dir = tempfile.mkdtemp(prefix="repro-engine-cache-")
        scheduler = FrontierScheduler(
            tasks=tasks,
            configs={tag: configs[tag] for tag in plans},
            figure_needs=figure_needs,
            cache_dir=report_cache_dir or scratch_dir,
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
        else:
            first_exception = scheduler.tag_exception(tag)
            shared = scheduler.shared_record(tag)
            records = [scheduler.figure_records[(tag, eid)] for eid in wanted]
            events = scheduler.owner_events(tag)
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
            results={
                eid: scheduler.results[(tag, eid)]
                for eid in wanted
                if (tag, eid) in scheduler.results
            },
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
