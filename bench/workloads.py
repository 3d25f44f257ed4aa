"""The benchmark's four workloads, driven from outside the program.

Every repetition runs in a fresh interpreter: the ``repro`` CLI for the
figure workloads, ``bench/child.py`` for the in-process ones.  Each
workload function repeats until ``seconds`` have passed (at least
``MIN_REPS`` times), checks the outputs, and returns its end-to-end
metrics, its per-layer metrics (when ``trace`` is set), the correctness
checks, and the attempted/failed operation counts.

Every time is reported in reference seconds (see ``speed.py``): each
child process's measured times are scaled by the machine speed probed
on its CPUs while it ran.  A single-process child is pinned to one CPU;
a parallel run may use them all.

End-to-end metrics always come from untraced repetitions.  With
``trace``, the figures-240 and stream-replay repetitions are each
followed by a traced in-process pass, and their per-layer numbers are
medians over those passes; the other two workloads take theirs from the
run report and the per-call samples of the untraced repetitions.

Sizes are keyword arguments so the tests can run each workload at toy
size through this same code; the defaults are the benchmark's fixed
settings and are identical on every commit.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Repetitions every run makes however short ``seconds`` is, so set-up and
#: every per-run median rest on more than one sample.
MIN_REPS = 2

ARTIFACT_NODES = ("dataset", "severity", "clusters", "shortest", "vivaldi", "alert", "ides", "lat")
FIGURE_IDS = (
    "fig02", "fig03", "fig04_07", "fig08", "fig09", "fig10", "fig11", "text_3_2_1",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
    "fig22_23", "fig24", "fig25",
)
FAMILIES = ("closest", "distance", "tiv_alert", "meridian_closest")
#: Events per ingest batch, the stream's unit of latency (as serve-mixed's writes).
INGEST_BATCH = 64

#: Metric-name suffixes of times, which are scaled to reference seconds.
TIME_SUFFIXES = ("_s", "_ms", "_us")


@dataclass
class Outcome:
    """What one run of one workload measured and checked."""

    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    missing: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def check(self, name: str, passed) -> None:
        """Record a correctness check; it fails if any repetition fails it."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    def crashed(self) -> None:
        """A repetition's process died: one failed operation and a failed check."""
        self.attempted += 1
        self.failed += 1
        self.check("rep_completed", False)


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    spawned_at: float
    #: The CPUs it ran on, and reference seconds per measured second while it ran.
    cpus: list
    factor: float

    def scaled(self, layers: dict) -> dict:
        """``layers`` with every time (by name suffix) in reference seconds."""
        return {
            name: value * self.factor if name.endswith(TIME_SUFFIXES) else value
            for name, value in layers.items()
        }


class Run:
    """Process spawning, machine-speed probes, scratch space and deadline of one run.

    Use as a context manager: leaving it stops the probe threads.
    """

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.tmp = workdir / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.deadline = deadline
        self.cpus = sorted(os.sched_getaffinity(0))
        self.speed = SpeedProbe(self.cpus)
        self.factors: list[float] = []
        self._count = 0

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc_info) -> None:
        self.speed.close()

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # One BLAS thread per process, so threads equal --jobs.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        env["PYTHONHASHSEED"] = "0"
        # Scratch caches and temp files stay inside the checkout.
        env["TMPDIR"] = str(self.tmp)
        return env

    def spawn(self, argv: list[str], *, all_cpus: bool = False) -> Child:
        """Run ``argv`` to completion on one CPU (or all); peak RSS from ``os.wait4``.

        ``wait4`` reports the largest resident set of the child and of the
        descendants it waited for, i.e. the largest single process.  A
        child still running at the run's deadline is killed.
        """
        cpus = self.cpus if all_cpus else self.cpus[:1]
        self._count += 1
        out_path = self.workdir / f"child-{self._count}.out"
        err_path = self.workdir / f"child-{self._count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            inherited = os.sched_getaffinity(0)
            # A child inherits the CPU affinity of the thread that forks it.
            os.sched_setaffinity(0, cpus)
            try:
                started = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env(), cwd=ROOT)
            finally:
                os.sched_setaffinity(0, inherited)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            ended = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(
            returncode=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            wall_s=ended - started,
            rss_mb=usage.ru_maxrss / 1024,
            spawned_at=started,
            cpus=cpus,
            factor=self.speed.factor(cpus, started, ended),
        )
        self.factors.append(child.factor)
        out_path.unlink()
        err_path.unlink()
        if child.returncode != 0:
            sys.stderr.write(child.stderr[-2000:])
        return child

    def python(self, *args: str, all_cpus: bool = False) -> Child:
        return self.spawn([sys.executable, *args], all_cpus=all_cpus)

    def child(self, kind: str, **kwargs) -> tuple[Child, dict | None]:
        """One ``bench/child.py`` repetition and its parsed result (None if it crashed)."""
        proc = self.python(str(BENCH / "child.py"), kind, json.dumps(kwargs))
        lines = proc.stdout.strip().splitlines()
        return proc, json.loads(lines[-1]) if proc.returncode == 0 and lines else None

    def scale(self, proc: Child, intervals) -> list[float]:
        """``(start, seconds)`` intervals a child timed, in reference seconds.

        Each is scaled by the probes nearest to it, which follows the
        machine's state within a repetition better than the child's own
        average factor.
        """
        return self.speed.scale(proc.cpus, intervals)

    def repetitions(self, seconds: float):
        """Yield 1, 2, ... until ``seconds`` have passed and ``MIN_REPS`` are done."""
        started = time.monotonic()
        reps = 0
        while reps < MIN_REPS or time.monotonic() - started < seconds:
            reps += 1
            yield reps

    def probe_s(self) -> float:
        """Median CPU time of the probe loop over the run: the machine's state."""
        return statistics.median(p for samples in self.speed.samples.values() for _, p in samples)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation, as numpy's default."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _latency_metrics(seconds: list[float]) -> dict:
    return {"p50_ms": percentile(seconds, 50) * 1e3, "p99_ms": percentile(seconds, 99) * 1e3}


def _medians(rows: list[dict]) -> dict:
    """Per-key median over a list of same-keyed dicts."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}


def import_layers(run: Run) -> dict:
    """Self time of ``import repro.cli`` by top-level package, from ``-X importtime``.

    ``-X importtime`` inflates every figure; the split, not the sum, is the signal.
    """
    proc = run.python("-X", "importtime", "-c", "import repro.cli")
    totals = {"scipy": 0.0, "numpy": 0.0, "repro": 0.0, "other": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        totals[top if top in totals else "other"] += int(self_us) / 1e6
    return proc.scaled({f"import.{name}_s": value for name, value in totals.items()})


# -- figure workloads ----------------------------------------------------------


def _run_all(run: Run, nodes: int, jobs: int, seed: int, cache_dir: Path | None):
    """``repro run-all --full``: (process, report, scalar results), or Nones if it crashed."""
    argv = ["-m", "repro", "run-all", "--nodes", str(nodes), "--jobs", str(jobs),
            "--seed", str(seed), "--full"]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    proc = run.python(*argv, all_cpus=jobs > 1)
    if proc.returncode != 0:
        return proc, None, None
    # run-all prints indented JSON: parse the whole stdout, not the last line.
    payload = json.loads(proc.stdout)
    return proc, payload["report"], payload["results"]


def _leftovers(run: Run) -> set[str]:
    """Shared-memory segments and scratch caches a parallel run could leak."""
    shm = Path("/dev/shm")
    segments = [p.name for p in shm.iterdir() if p.name.startswith("rp")] if shm.is_dir() else []
    scratch = [p.name for p in run.tmp.iterdir() if p.name.startswith("repro-engine-cache-")]
    return {f"shm:{name}" for name in segments} | {f"tmp:{name}" for name in scratch}


def _count_figures(out: Outcome, report: dict | None) -> None:
    """Count one run-all's figures as attempted/failed."""
    out.attempted += len(FIGURE_IDS)
    ok = sum(record["status"] == "ok" for record in (report or {}).get("experiments", []))
    out.failed += len(FIGURE_IDS) - ok
    out.check("all_figures_ok", ok == len(FIGURE_IDS))


def figures(run: Run, *, seed: int, seconds: float, trace: bool, nodes: int, jobs: int,
            warm: bool) -> Outcome:
    """``repro run-all --full`` cold (then warm, when ``warm``), ``jobs`` workers.

    ``warm`` gives each repetition a fresh cache dir and reruns the same
    command over it (the edit-and-rerun cycle), and a repetition's wall
    time is the pair's.  Without it the run has no cache dir, so a
    parallel run uses the engine's scratch cache and the shared-memory
    plane.  Set-up is what a CLI run spends outside the engine:
    interpreter start, ``import repro.cli`` and printing the report (the
    process's wall time minus the report's own ``wall_seconds``).  The
    latency percentiles are over the run's ``run-all`` commands.
    """
    out = Outcome()
    setups, walls, cold_walls, warm_walls, rss = [], [], [], [], []
    report_layers, passes = [], []
    first_results = None
    leftovers_before = _leftovers(run)
    for rep in run.repetitions(seconds):
        cache_dir = run.workdir / f"cache-{rep}" if warm else None
        proc, report, results = _run_all(run, nodes, jobs, seed, cache_dir)
        _count_figures(out, report)
        if report is None:
            continue
        first_results = results if first_results is None else first_results
        out.check("results_identical_across_reps", results == first_results)
        setups.append((proc.wall_s - report["totals"]["wall_seconds"]) * proc.factor)
        cold_walls.append(proc.wall_s * proc.factor)
        rep_wall, rep_rss = cold_walls[-1], proc.rss_mb
        if warm:
            warm_proc, warm_report, warm_results = _run_all(run, nodes, jobs, seed, cache_dir)
            _count_figures(out, warm_report)
            totals = (warm_report or {}).get("totals", {})
            out.check("warm_all_cache_hits", totals.get("all_cache_hits") is True
                      and totals.get("cache", {}).get("misses") == 0)
            out.check("warm_results_equal_cold", warm_results == results)
            if warm_report is not None:
                setups.append((warm_proc.wall_s - totals["wall_seconds"]) * warm_proc.factor)
            warm_walls.append(warm_proc.wall_s * warm_proc.factor)
            rep_wall += warm_walls[-1]
            rep_rss = max(rep_rss, warm_proc.rss_mb)
            shutil.rmtree(cache_dir, ignore_errors=True)
            if trace:
                passes.append(_traced_figures_pass(run, seed, nodes, rep, out))
        else:
            computes = [artifact["computes"] for artifact in report.get("artifacts", [])]
            out.check("every_address_computed_at_most_once", computes and max(computes) <= 1)
            report_layers.append(proc.scaled(_report_layers(report, jobs, out.missing)))
        walls.append(rep_wall)
        rss.append(rep_rss)
    if not warm:
        out.check("no_leaked_shm_or_scratch", _leftovers(run) <= leftovers_before)

    if walls:
        out.metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            **_latency_metrics(cold_walls + warm_walls),
            "peak_rss_mb": statistics.median(rss),
        }
        out.layers = _medians(report_layers or [p for p in passes if p is not None])
        if warm:
            out.layers["run.cold_wall_s"] = statistics.median(cold_walls)
            out.layers["run.warm_wall_s"] = statistics.median(warm_walls)
    out.samples = {"setup_s": setups, "wall_s": walls, "rss_mb": rss}
    return out


def _report_layers(report: dict, jobs: int, missing: list) -> dict:
    """Per-layer numbers of a parallel run, from the CLI's own run report."""

    def get(*keys, name):
        value = report
        for key in keys:
            if not isinstance(value, dict) or key not in value:
                missing.append(name)
                return 0
            value = value[key]
        return value

    artifacts = report.get("artifacts", [])
    figure_wall = {record["id"]: record["wall_seconds"] for record in report["experiments"]}
    missing += [f"figure.{eid}_s" for eid in FIGURE_IDS if eid not in figure_wall]
    missing += [f"artifact.{node}.compute_s" for node in ARTIFACT_NODES
                if node not in {a["node"] for a in artifacts}]
    task_s = sum(figure_wall.values()) + sum(
        a["compute_seconds"] + a["restore_seconds"] + a["attach_seconds"] for a in artifacts
    )
    layers = {"engine.busy_frac": task_s / (jobs * report["totals"]["wall_seconds"])}
    for experiment_id in FIGURE_IDS:
        layers[f"figure.{experiment_id}_s"] = figure_wall.get(experiment_id, 0.0)
    for node in ARTIFACT_NODES:
        layers[f"artifact.{node}.compute_s"] = sum(
            a["compute_seconds"] for a in artifacts if a["node"] == node
        )
    for outcome in ("computed", "restored", "attached"):
        layers[f"artifact.{outcome}"] = get("totals", "artifacts", outcome,
                                            name=f"artifact.{outcome}")
    for counter in ("published", "attaches", "fallbacks", "evictions"):
        layers[f"shm.{counter}"] = get("totals", "artifacts", "shm", counter, name=f"shm.{counter}")
    for counter, name in (("publish_bytes", "shm.publish_mb"), ("attach_bytes", "shm.attach_mb")):
        layers[name] = get("totals", "artifacts", "shm", counter, name=name) / 2**20
    for counter in ("artifact_retries", "figure_retries", "pool_rebuilds"):
        layers[f"engine.{counter}"] = get("totals", "supervision", counter,
                                          name=f"engine.{counter}")
    return layers


def _traced_figures_pass(run: Run, seed: int, nodes: int, rep: int, out: Outcome) -> dict | None:
    """Per-layer numbers of the sequential engine's order, replayed in process."""
    cache_dir = run.workdir / f"trace-cache-{rep}"
    proc, traced = run.child(
        "figures", seed=seed, nodes=nodes, cache_dir=str(cache_dir),
        artifact_nodes=list(ARTIFACT_NODES), figure_ids=list(FIGURE_IDS),
    )
    shutil.rmtree(cache_dir, ignore_errors=True)
    out.check("traced_pass_completed", traced is not None)
    if traced is None:
        return None
    spans = traced["trace"]["spans"]
    out.missing += traced["trace"]["missing"]
    out.check("traced_warm_pass_all_hits", traced["warm_misses"] == 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    layers = {
        "graph.resolve_s": self_s("graph.resolve"),
        "graph.nodes": traced["graph_nodes"],
        "cache.store_s": self_s("cache.store"),
        "cache.load_s": self_s("cache.load"),
        "cache.store_mb": traced["store_mb"],
        "cache.hits": traced["hits"],
        "cache.misses": traced["misses"],
        "trace.overhead_frac": traced["overhead_frac"],
    }
    for node in ARTIFACT_NODES:
        layers[f"artifact.{node}.compute_s"] = self_s(f"artifact.{node}.compute")
        layers[f"artifact.{node}.restore_s"] = self_s(f"artifact.{node}.restore")
    for experiment_id in FIGURE_IDS:
        layers[f"figure.{experiment_id}_s"] = self_s(f"figure.{experiment_id}")
    return proc.scaled(layers)


# -- in-process workloads ------------------------------------------------------


def stream(run: Run, *, seed: int, seconds: float, trace: bool, nodes: int = 400,
           duration: float = 60.0, checkpoint_every: int = 2000) -> Outcome:
    """``replay_trace`` of a churning trace with 5 % liars, defence, WAL and checkpoints.

    A repetition's wall time is the replay plus ``recover`` from its
    checkpoint and WAL, as a restart would.  Set-up is interpreter start,
    imports and trace synthesis.  The latency percentiles are over
    ``INGEST_BATCH``-event ingest batches.
    """
    out = Outcome()
    args = dict(seed=seed, nodes=nodes, duration=duration, window=duration / 10,
                checkpoint_every=checkpoint_every, liars=0.05, batch=INGEST_BATCH)
    setups, walls, batches, rss, synth, fingerprints, traced_layers = [], [], [], [], [], set(), []
    for rep in run.repetitions(seconds):
        for traced in (False, True) if trace else (False,):
            workdir = run.workdir / f"stream-{rep}-{int(traced)}"
            workdir.mkdir()
            proc, result = run.child("stream", workdir=str(workdir), traced=traced, **args)
            # Only a traced repetition's spans.json is kept.
            for path in workdir.iterdir():
                if path.name != "spans.json":
                    path.unlink()
            if result is None:
                out.crashed()
                break
            for check, passed in result["checks"].items():
                out.check(check, passed)
            fingerprints.add(result["fingerprint"])
            if traced:
                traced_layers.append(proc.scaled(_stream_layers(result, out)))
                continue
            out.attempted += result["events"]
            setups += run.scale(proc, [(proc.spawned_at, result["ready_at"] - proc.spawned_at)])
            walls.append(sum(run.scale(proc, [result["replay"], result["recover"]])))
            starts = result["batch_starts"]
            batches += run.scale(proc, [(a, b - a) for a, b in zip(starts, starts[1:])])
            rss.append(proc.rss_mb)
            synth.append(result["synth_s"] * proc.factor)
    out.check("fingerprint_identical_across_reps", len(fingerprints) == 1)
    if walls:
        out.metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            **_latency_metrics(batches),
            "peak_rss_mb": statistics.median(rss),
        }
        out.layers = {"synth.trace_s": statistics.median(synth), **_medians(traced_layers)}
    out.samples = {"setup_s": setups, "wall_s": walls, "rss_mb": rss}
    return out


def _stream_layers(traced: dict, out: Outcome) -> dict:
    spans = traced["trace"]["spans"]
    out.missing += traced["trace"]["missing"]

    def span(name, key="self_s"):
        return spans.get(name, {}).get(key, 0.0)

    return {
        "ingest.measure_us": span("ingest.measure", "p50_s") * 1e6,
        "ingest.join_us": span("ingest.join", "p50_s") * 1e6,
        "ingest.leave_us": span("ingest.leave", "p50_s") * 1e6,
        "ingest.total_s": sum(span(f"ingest.{kind}") for kind in ("measure", "join", "leave")),
        "ingest.dropped": traced["dropped"],
        "defense.rejected": traced["rejected"],
        "defense.quarantined": traced["quarantined"],
        "defense.late_dropped": traced["late_dropped"],
        "durability.checkpoint_s": span("durability.checkpoint"),
        "durability.checkpoints": span("durability.checkpoint", "count"),
        "durability.checkpoint_mb": traced["checkpoint_mb"],
        "durability.wal_log_us": span("durability.wal_log", "p50_s") * 1e6,
        "durability.wal_mb": traced["wal_mb"],
        "durability.recover_s": span("durability.recover"),
        "replay.other_s": span("replay"),
        "replay.rel_error": traced["rel_error"],
        "trace.overhead_frac": traced["overhead_frac"],
    }


def serve(run: Run, *, seed: int, seconds: float, trace: bool, nodes: int = 400,
          warm_duration: float = 60.0, rounds: int = 500, batch: int = 64) -> Outcome:
    """Closed loop, one client, against a warm service plus Meridian overlay.

    Each round applies ``batch`` further measurements, then makes one
    ``batch``-query call each of closest, distance, TIV alert and Meridian
    closest-neighbour.  A repetition's wall time is its ``rounds`` rounds;
    set-up is interpreter start, imports and the warm-state build.  The
    latency percentiles are over rounds of the four reads; the per-layer
    numbers come from the same untraced per-call samples.
    """
    out = Outcome()
    setups, walls, rss, warm_s, synth, writes, read_rounds = [], [], [], [], [], [], []
    reads: dict[str, list[float]] = {family: [] for family in FAMILIES}
    for _ in run.repetitions(seconds):
        proc, result = run.child("serve", seed=seed, nodes=nodes, warm_duration=warm_duration,
                                 rounds=rounds, batch=batch, k=3, check_every=100)
        if result is None:
            out.crashed()
            continue
        out.attempted += result["calls"]
        out.failed += result["failed"]
        for check, passed in result["checks"].items():
            out.check(check, passed)
        setups += run.scale(proc, [(proc.spawned_at, result["ready_at"] - proc.spawned_at)])
        walls.append(sum(run.scale(proc, result["rounds"])))
        rss.append(proc.rss_mb)
        warm_s.append(result["warm_s"] * proc.factor)
        synth.append(result["synth_s"] * proc.factor)
        writes += run.scale(proc, result["writes"])
        read_rounds += run.scale(proc, result["read_rounds"])
        for family in FAMILIES:
            reads[family] += run.scale(proc, result["reads"][family])
    if walls:
        out.metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            **_latency_metrics(read_rounds),
            "peak_rss_mb": statistics.median(rss),
        }
        out.layers = {"synth.trace_s": statistics.median(synth),
                      "warm.build_s": statistics.median(warm_s)}
        for family in FAMILIES:
            for name, value in _latency_metrics(reads[family]).items():
                out.layers[f"query.{family}.{name}"] = value
        for name, value in _latency_metrics(writes).items():
            out.layers[f"write.batch_{name}"] = value
    out.samples = {"setup_s": setups, "wall_s": walls, "rss_mb": rss}
    return out


#: Workload name -> (measuring function, fixed settings).  Names are stable: later
#: changes cite them.
WORKLOADS = {
    "figures-240": (figures, dict(nodes=240, jobs=1, warm=True)),
    "figures-400-par": (figures, dict(nodes=400, jobs=2, warm=False)),
    "stream-replay": (stream, {}),
    "serve-mixed": (serve, {}),
}


def run_workload(name: str, run: Run, *, seed: int, seconds: float, trace: bool,
                 **sizes) -> Outcome:
    """Run one workload at its fixed settings (``sizes`` overrides them for tests)."""
    measure, settings = WORKLOADS[name]
    outcome = measure(run, seed=seed, seconds=seconds, trace=trace, **{**settings, **sizes})
    if trace:
        outcome.layers.update(import_layers(run))
        outcome.layers["machine.probe_s"] = run.probe_s()
    return outcome
