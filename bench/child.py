"""One repetition of an in-process workload, run in a fresh interpreter.

Usage::

    python bench/child.py KIND 'JSON keyword arguments'

KIND is ``stream``, ``serve`` or ``figures`` (always traced).  The last stdout line is one
JSON object.  Its timestamps are ``time.perf_counter()`` readings, which
on Linux come from the system-wide monotonic clock, so the parent can
compare them with its own: ``ready_at`` (when set-up ended) minus the
parent's reading just before it spawned this process is the set-up time,
interpreter start and imports included.

Only the program's public surface is called: ``synthesize_trace``,
``replay_trace``, ``recover``, the ``StreamCoordinateService`` read and
write methods, ``MeridianOverlay``'s query methods, ``resolve_plan``,
``ExperimentContext.materialize`` and ``registry.run_experiment``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from pathlib import Path

from trace import Tracer

clock = time.perf_counter


def _dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def stream(*, seed, nodes, duration, window, checkpoint_every, liars, batch, workdir, traced):
    """Replay a faulty churning trace with defence, WAL and checkpoints, then recover."""
    import repro.stream.durability as durability
    from repro.stream import (
        DefenseConfig,
        FaultSpec,
        MeasurementEvent,
        NodeJoin,
        NodeLeave,
        StreamCoordinateService,
        StreamServiceConfig,
        WalWriter,
        replay_trace,
        state_fingerprint,
        synthesize_trace,
    )

    started = clock()
    trace = synthesize_trace(
        n_nodes=nodes,
        duration=duration,
        churn=0.2,
        seed=seed,
        faults=FaultSpec.parse(f"liars={liars},seed={seed}"),
    )
    synth_s = clock() - started
    ready_at = clock()

    workdir = Path(workdir)
    checkpoint, wal = workdir / "checkpoint.npz", workdir / "wal.jsonl"
    tracer = Tracer()
    starts: list[float] = []
    original_apply = StreamCoordinateService.apply
    if traced:
        kinds = {
            MeasurementEvent: "ingest.measure", NodeJoin: "ingest.join", NodeLeave: "ingest.leave"
        }
        tracer.wrap(StreamCoordinateService, "apply", lambda _self, event: kinds[type(event)])
        tracer.wrap(durability, "save_checkpoint", "durability.checkpoint")
        tracer.wrap(WalWriter, "log", "durability.wal_log")
        tracer.wrap(durability, "recover", "durability.recover")
    else:
        # Stamp the start of every ``batch``-th apply: the time from one
        # stamp to the next is one batch's ingest latency, WAL writes,
        # checkpoints and window scoring included.
        count = itertools.count()

        def stamped(self, event, _next=count.__next__, _stamp=starts.append):
            if not _next() % batch:
                _stamp(clock())
            return original_apply(self, event)

        StreamCoordinateService.apply = stamped

    replay_started = clock()
    with tracer.span("replay"):
        report = replay_trace(
            trace,
            config=StreamServiceConfig(defense=DefenseConfig()),
            window_seconds=window,
            rng=seed,
            checkpoint_path=checkpoint,
            wal_path=wal,
            checkpoint_every=checkpoint_every,
        )
    replay_s = clock() - replay_started
    if traced:
        overhead_frac = tracer.overhead_frac(replay_s)
    else:
        StreamCoordinateService.apply = original_apply
    recover_started = clock()
    recovered = durability.recover(checkpoint, wal)
    recover_s = clock() - recover_started
    if traced:
        tracer.restore()

    totals = report.totals
    out = {
        "ready_at": ready_at,
        "synth_s": synth_s,
        "replay": (replay_started, replay_s),
        "recover": (recover_started, recover_s),
        "events": trace.n_events,
        "batch_starts": starts,
        "fingerprint": totals["state_fingerprint"],
        "checks": {
            "accuracy_improved": bool(totals["accuracy_improved"]),
            "recovered_fingerprint_matches": state_fingerprint(recovered)
            == totals["state_fingerprint"],
        },
        "rel_error": totals["last_window_median_relative_error"],
        "dropped": totals["dropped_measurements"],
        "rejected": totals["rejected_measurements"],
        "quarantined": totals["ever_quarantined_nodes"],
        "late_dropped": totals["late_dropped_events"],
        "checkpoint_mb": checkpoint.stat().st_size / 2**20,
        "wal_mb": wal.stat().st_size / 2**20,
    }
    if traced:
        out["trace"] = tracer.summary(
            ["replay", "ingest.measure", "ingest.join", "ingest.leave", "durability.checkpoint",
             "durability.wal_log", "durability.recover"]
        )
        out["overhead_frac"] = overhead_frac
        tracer.write(workdir / "spans.json")
    return out


def serve(*, seed, nodes, warm_duration, rounds, batch, k, check_every):
    """Closed loop, one client: writes, then one batched call per read family."""
    import numpy as np

    from repro.delayspace.matrix import DelayMatrix
    from repro.meridian.overlay import MeridianOverlay
    from repro.stream import StreamCoordinateService, synthesize_trace

    started = clock()
    writes_needed = rounds * batch
    duration = warm_duration + math.ceil(writes_needed / nodes) + 2
    trace = synthesize_trace(n_nodes=nodes, duration=duration, seed=seed)
    synth_s = clock() - started
    warm = [e for e in trace.events if e.t < warm_duration]
    later = [e for e in trace.events if e.t >= warm_duration][:writes_needed]
    if len(later) < writes_needed:
        raise RuntimeError(f"trace holds {len(later)} write events, {writes_needed} needed")
    service = StreamCoordinateService(rng=seed)
    for event in warm:
        service.apply(event)
    meridian_ids = list(range(0, nodes, 2))
    overlay = MeridianOverlay(DelayMatrix(trace.ground_truth), meridian_ids, rng=seed + 1)

    # Every query is drawn before the timed loop: rebuilding query lists
    # inside it puts allocation and GC pauses into the measured latency.
    # A round's Meridian batch enters the overlay at one front-end node,
    # taken round-robin, so every front end serves equally often.
    rng = np.random.default_rng([seed, 0x5E2F])
    active = service.active_nodes()
    edges = service.observed_edges()
    targets = list(range(1, nodes, 2))
    queries = []
    for index in range(rounds):
        queries.append(
            {
                "closest": [int(active[i]) for i in rng.integers(0, len(active), batch)],
                "distance": [
                    (int(active[a]), int(active[b]))
                    for a, b in rng.integers(0, len(active), (batch, 2))
                ],
                "tiv_alert": [edges[i] for i in rng.integers(0, len(edges), batch)],
                "meridian_closest": (
                    [targets[i] for i in rng.integers(0, len(targets), batch)],
                    [meridian_ids[index % len(meridian_ids)]] * batch,
                ),
            }
        )
    warm_s = clock() - started
    ready_at = clock()

    calls = {
        "closest": lambda q: service.closest_batch(q, k=k),
        "distance": service.distance_batch,
        "tiv_alert": service.tiv_alert_batch,
        "meridian_closest": lambda q: overlay.closest_neighbor_query_batch(q[0], start_nodes=q[1]),
    }
    scalar = {
        "closest": lambda q: [service.closest(n, k=k) for n in q],
        "distance": lambda q: np.array([service.distance(a, b) for a, b in q]),
        "tiv_alert": lambda q: [service.tiv_alert(a, b) for a, b in q],
        "meridian_closest": lambda q: [
            overlay.closest_neighbor_query(t, start_node=s) for t, s in zip(*q)
        ],
    }
    # Every timing is a (start, seconds) pair, so the parent can scale it
    # by the machine speed probed at that moment.
    reads = {family: [] for family in calls}
    writes, read_rounds, round_times = [], [], []
    failed = mismatches = checked = 0
    for index, round_queries in enumerate(queries):
        round_start = clock()
        try:
            for event in later[index * batch:(index + 1) * batch]:
                service.apply(event)
        except Exception:
            failed += 1
        reads_start = clock()
        writes.append((round_start, reads_start - round_start))
        answers = {}
        for family, call in calls.items():
            started = clock()
            try:
                answers[family] = call(round_queries[family])
            except Exception:
                failed += 1
            reads[family].append((started, clock() - started))
        round_end = clock()
        read_rounds.append((reads_start, round_end - reads_start))
        round_times.append((round_start, round_end - round_start))
        if index % check_every == 0:
            # Scalar answers are the reference; kept out of the timing.
            for family, reference in scalar.items():
                checked += 1
                expected = reference(round_queries[family])
                got = answers.get(family)
                same = (
                    np.array_equal(expected, got) if family == "distance" else expected == got
                )
                mismatches += not same
    return {
        "ready_at": ready_at,
        "synth_s": synth_s,
        "warm_s": warm_s,
        "rounds": round_times,
        "read_rounds": read_rounds,
        "reads": reads,
        "writes": writes,
        "calls": rounds * (len(calls) + 1),
        "failed": failed,
        "checks": {"batched_equals_scalar": mismatches == 0 and checked > 0},
    }


def figures(*, seed, nodes, cache_dir, artifact_nodes, figure_ids):
    """Traced replay of the sequential engine's order, in process.

    Resolve the plan, materialize every artifact in topological order
    (cold, storing to ``cache_dir``), run every figure, then materialize
    the plan again through a fresh context over the same cache (warm).
    """
    from repro.artifacts import resolve_plan
    from repro.experiments.cache import ArtifactCache
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.context import ExperimentContext
    from repro.experiments.registry import list_experiments, run_experiment

    tracer = Tracer()
    for method in ("store", "store_raw"):
        tracer.wrap(ArtifactCache, method, "cache.store")
    for method in ("load", "load_raw"):
        tracer.wrap(ArtifactCache, method, "cache.load")
    config = ExperimentConfig(n_nodes=nodes, seed=seed)
    ids = list(list_experiments())

    started = clock()
    with tracer.span("graph.resolve"):
        plan = resolve_plan(config, ids)
    order = plan.graph.topological_order()
    cache = ArtifactCache(cache_dir)
    context = ExperimentContext(config, cache=cache)
    for key in order:
        with tracer.span(f"artifact.{key.node}.compute"):
            context.materialize(key)
    for experiment_id in ids:
        with tracer.span(f"figure.{experiment_id}"):
            run_experiment(experiment_id, context=context)
    cold_s = clock() - started

    warm_cache = ArtifactCache(cache_dir)
    warm = ExperimentContext(config, cache=warm_cache)
    started = clock()
    for key in order:
        with tracer.span(f"artifact.{key.node}.restore"):
            warm.materialize(key)
    warm_s = clock() - started
    tracer.restore()

    declared = (
        ["graph.resolve", "cache.store", "cache.load"]
        + [f"artifact.{node}.{phase}"
           for node in artifact_nodes for phase in ("compute", "restore")]
        + [f"figure.{experiment_id}" for experiment_id in figure_ids]
    )
    tracer.write(Path(cache_dir).parent / "spans.json")
    return {
        "graph_nodes": len(plan.graph),
        "misses": cache.stats.misses,
        "hits": warm_cache.stats.hits,
        "warm_misses": warm_cache.stats.misses,
        "store_mb": _dir_mb(Path(cache_dir)),
        "trace": tracer.summary(declared),
        "overhead_frac": tracer.overhead_frac(cold_s + warm_s),
    }


if __name__ == "__main__":
    kind, kwargs = sys.argv[1], json.loads(sys.argv[2])
    result = {"stream": stream, "serve": serve, "figures": figures}[kind](**kwargs)
    print(json.dumps(result))
