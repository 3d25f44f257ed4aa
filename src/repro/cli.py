"""Command-line interface.

The CLI exposes the library's main entry points so the reproduction can be
driven without writing Python::

    python -m repro datasets                      # list synthetic presets
    python -m repro generate ds2_like -o ds2.npz  # write a matrix to disk
    python -m repro analyze --preset ds2_like     # TIV severity summary
    python -m repro experiments                   # list figure runners
    python -m repro run fig20 --nodes 300         # regenerate one figure
    python -m repro run-all --jobs 4 \
        --cache-dir .cache/experiments \
        --report BENCH_experiments.json           # full parallel cached sweep
    python -m repro graph --experiment fig19      # resolved artifact DAG
    python -m repro cache prune --cache-dir .cache/experiments --dry-run
    python -m repro scenarios --matrix full       # list the scenario library
    python -m repro run-scenarios --matrix small \
        --jobs 2 --cache-dir .cache/experiments \
        --report BENCH_scenarios.json             # figure suite x scenario matrix
    python -m repro make-trace -o trace.npz --nodes 64 \
        --churn 0.2 --faults liars=0.1,spikes=0.05  # churning, faulty trace
    python -m repro stream --trace trace.npz --defense \
        --report STREAM_report.json               # replay it through the live service
    python -m repro serve-bench --sizes 96 \
        --report BENCH_serving.json               # query load at a warm service

Common flags (``--nodes/--seed``, ``--jobs``, ``--cache-dir``,
``--report``, ``--only``) are defined once as argparse parent parsers —
every subcommand that takes one of them shares the same spelling,
default and help text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.delayspace.datasets import available_datasets, get_preset, load_dataset
from repro.delayspace.io import load_npz, save_npz
from repro.delayspace.matrix import DelayMatrix
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import list_experiments, run_experiment
from repro.tiv.severity import compute_tiv_severity


def _json_default(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return str(value)


def _make_parent_dirs(*paths) -> None:
    """Create the directories of a command's output files, before any work."""
    for path in paths:
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def _print_json(payload, stream=None) -> None:
    # Resolve sys.stdout lazily so output redirection (and pytest's capsys)
    # set up after import still sees the CLI's output.
    stream = stream if stream is not None else sys.stdout
    json.dump(payload, stream, indent=2, default=_json_default)
    stream.write("\n")


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in available_datasets():
        preset = get_preset(name)
        rows.append(
            {
                "name": name,
                "paper_nodes": preset.paper_nodes,
                "default_nodes": preset.default_nodes,
                "description": preset.description,
            }
        )
    _print_json(rows)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    matrix = load_dataset(args.preset, n_nodes=args.nodes, rng=args.seed)
    save_npz(matrix, args.output)
    print(f"wrote {matrix.n_nodes}-node matrix for preset {args.preset!r} to {args.output}")
    return 0


def _load_matrix(args: argparse.Namespace) -> DelayMatrix:
    if args.input:
        return load_npz(args.input)
    return load_dataset(args.preset, n_nodes=args.nodes, rng=args.seed)


def _cmd_analyze(args: argparse.Namespace) -> int:
    matrix = _load_matrix(args)
    severity = compute_tiv_severity(matrix)
    payload = {
        "n_nodes": matrix.n_nodes,
        "median_delay_ms": matrix.median_delay(),
        "missing_fraction": matrix.missing_fraction(),
        "violating_triangle_fraction": severity.violating_triangle_fraction(),
        "severity": severity.summary(),
    }
    _print_json(payload)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    _print_json(list(list_experiments()))
    return 0


def _scoped_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment configuration for ``--nodes/--seed`` plus ``--scenario``.

    A scenario is applied with its full semantics (``size_factor`` scales
    the node count), not just stamped onto the configuration.
    """
    config = ExperimentConfig(n_nodes=args.nodes, seed=args.seed)
    if args.scenario:
        from repro.scenarios.runner import apply_scenario

        config = apply_scenario(config, args.scenario, caller="--scenario")
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_experiment(args.experiment, _scoped_config(args))
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "paper_expectation": result.paper_expectation,
        "data": result.data if args.full else _scalars_only(result.data),
    }
    _print_json(payload)
    return 0


def _scalars_only(data, depth: int = 0):
    """Keep only scalar leaves (and small dicts) so the default output stays readable."""
    if isinstance(data, dict):
        out = {}
        for key, value in data.items():
            cleaned = _scalars_only(value, depth + 1)
            if cleaned is not None:
                out[key] = cleaned
        return out or None
    if isinstance(data, (int, float, str, bool)):
        return data
    if isinstance(data, (np.floating, np.integer)):
        return data.item()
    if isinstance(data, (list, tuple)) and len(data) <= 6:
        return [x for x in (_scalars_only(v, depth + 1) for v in data) if x is not None]
    return None


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments.engine import run_experiments

    config = _scoped_config(args)
    outcome = run_experiments(
        config,
        only=args.only,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        report_path=args.report,
    )
    payload = outcome.report.as_dict()
    if not args.full:
        # The full per-experiment data payloads stay in-process; the CLI
        # prints the run report (timings + cache accounting) by default.
        _print_json(payload)
    else:
        _print_json(
            {
                "report": payload,
                "results": {
                    experiment_id: {
                        "title": result.title,
                        "data": _scalars_only(result.data),
                    }
                    for experiment_id, result in outcome.results.items()
                },
            }
        )
    if args.report:
        print(f"wrote run report to {args.report}", file=sys.stderr)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.artifacts import graph_status, resolve_plan
    from repro.experiments.cache import ArtifactCache
    from repro.experiments.engine import resolve_experiment_ids

    wanted = resolve_experiment_ids(args.experiment)
    config = _scoped_config(args)
    plan = resolve_plan(config, wanted)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    rows = graph_status(plan.graph, cache)
    if args.json:
        _print_json(
            {
                "experiments": wanted,
                "scenario": config.scenario,
                "n_nodes": config.n_nodes,
                "seed": config.seed,
                "cache_dir": args.cache_dir,
                "artifacts": rows,
            }
        )
        return 0
    waves = 1 + max((row["wave"] for row in rows), default=-1)
    print(
        f"artifact graph for {len(wanted)} experiment(s): "
        f"{len(rows)} artifact(s) in {waves} wave(s)"
    )
    width = max((len(row["artifact"]) for row in rows), default=0)
    current_wave = None
    for row in rows:
        if row["wave"] != current_wave:
            current_wave = row["wave"]
            print(f"wave {current_wave}:")
        deps = f"  <- {', '.join(row['deps'])}" if row["deps"] else ""
        print(
            f"  {row['artifact']:<{width}}  kind={row['kind']:<13} "
            f"cache={row['cache']:<7} addr={row['address']}{deps}"
        )
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    from repro.artifacts import prune_cache

    report = prune_cache(args.cache_dir, dry_run=args.dry_run)
    _print_json(report.as_dict())
    if args.dry_run:
        print(
            f"dry run: {len(report.pruned)} stale entr(ies) of {report.scanned} "
            "would be pruned",
            file=sys.stderr,
        )
    else:
        print(
            f"pruned {len(report.pruned)} stale entr(ies), kept {report.kept}",
            file=sys.stderr,
        )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios.library import (
        available_scenarios,
        get_scenario,
        scenario_matrix,
    )

    if args.matrix:
        scenarios = scenario_matrix(args.matrix)
    else:
        scenarios = tuple(get_scenario(name) for name in available_scenarios())
    _print_json([scenario.as_dict() for scenario in scenarios])
    return 0


def _cmd_run_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios.runner import run_scenario_matrix

    config = ExperimentConfig(n_nodes=args.nodes, seed=args.seed)
    # On failure the report (with per-scenario failure records) is still
    # written before the raised ExperimentError reaches main()'s handler.
    outcome = run_scenario_matrix(
        config,
        matrix=args.matrix,
        scenarios=args.scenario,
        only=args.only,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        report_path=args.report,
    )
    _print_json(outcome.report.as_dict())
    if args.report:
        print(f"wrote scenario report to {args.report}", file=sys.stderr)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve import ServingWorkload, run_serving_benchmark
    from repro.serve.workload import FAMILIES

    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError:
        print(f"error: --sizes must be comma-separated integers, got {args.sizes!r}",
              file=sys.stderr)
        return 1
    workload = ServingWorkload(
        n_nodes=sizes[0] if sizes else 96,
        seed=args.seed,
        preset=args.preset,
        scenario=args.scenario,
        warm_duration=args.warm_duration,
        churn=args.churn,
        families=tuple(args.families) if args.families else FAMILIES,
        batch=args.batch,
        batches=args.batches,
        warmup_batches=args.warmup_batches,
        k=args.k,
    )
    report = run_serving_benchmark(workload, sizes=sizes or None)
    _print_json(report.as_dict())
    if args.report:
        report.write(args.report)
        print(f"wrote serving report to {args.report}", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    _make_parent_dirs(args.output)
    config = ExperimentConfig(n_nodes=args.nodes, seed=args.seed)
    report = generate_report(config, only=args.only)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote report to {args.output}")
    else:
        print(report)
    return 0


def _cmd_make_trace(args: argparse.Namespace) -> int:
    from repro.stream import FaultSpec, save_trace, synthesize_trace

    _make_parent_dirs(args.output)
    faults = None
    if args.faults:
        faults = FaultSpec.parse(args.faults)
        if faults.seed == 0 and args.fault_seed is not None:
            faults = dataclasses.replace(faults, seed=args.fault_seed)
    trace = synthesize_trace(
        preset=args.preset,
        n_nodes=args.nodes,
        seed=args.seed,
        scenario=args.scenario,
        duration=args.duration,
        rate=args.rate,
        churn=args.churn,
        faults=faults,
    )
    save_trace(trace, args.output)
    counts = trace.counts()
    faulted = ""
    if faults is not None and not faults.is_noop:
        faulted = f", faults: {args.faults}"
    print(
        f"wrote {trace.n_nodes}-node trace to {args.output} "
        f"({counts['measurements']} measurements, {counts['joins']} joins, "
        f"{counts['leaves']} leaves over {trace.duration:g}s{faulted})"
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.stream import (
        DefenseConfig,
        StreamServiceConfig,
        load_trace,
        replay_trace,
    )

    _make_parent_dirs(args.checkpoint, args.wal)
    trace = load_trace(args.trace)
    config = StreamServiceConfig(
        alert_threshold=args.alert_threshold,
        defense=DefenseConfig() if args.defense else None,
    )
    report = replay_trace(
        trace,
        config=config,
        window_seconds=args.window,
        rng=args.seed,
        checkpoint_path=args.checkpoint,
        wal_path=args.wal,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        stop_after_events=args.stop_after,
    )
    _print_json(report.as_dict())
    if args.report:
        report.write(args.report)
        print(f"wrote stream report to {args.report}", file=sys.stderr)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.stream import FaultSpec
    from repro.stream.chaos import run_chaos
    from repro.utils.io import write_json_report

    template = FaultSpec.parse(args.faults) if args.faults else None
    try:
        fractions = [float(part) for part in args.liar_fractions.split(",") if part]
    except ValueError:
        from repro.errors import StreamError

        raise StreamError(
            f"--liar-fractions must be a comma-separated list of numbers, "
            f"got {args.liar_fractions!r}"
        ) from None
    payload = run_chaos(
        preset=args.preset,
        n_nodes=args.nodes,
        seed=args.seed,
        duration=args.duration,
        rate=args.rate,
        churn=args.churn,
        liar_fractions=fractions,
        fault_template=template,
        window_seconds=args.window,
    )
    _print_json(payload)
    if args.report:
        write_json_report(args.report, payload)
        print(f"wrote chaos report to {args.report}", file=sys.stderr)
    return 0


# -- shared flags (argparse parent parsers) -----------------------------------
#
# Each factory returns a fresh ``add_help=False`` parser defining one flag
# family; subcommands opt in via ``parents=[...]`` so the spelling, default
# and help text stay identical everywhere the flag appears.


def _population_parent(default_nodes: int | None = 240) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--nodes",
        type=int,
        default=default_nodes,
        help="node count"
        + (" (default: preset default)" if default_nodes is None else f" (default: {default_nodes})"),
    )
    parent.add_argument("--seed", type=int, default=0, help="seed of the run's random streams")
    return parent


def _jobs_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process, 0 = one per CPU)",
    )
    return parent


def _cache_parent(required: bool = False) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--cache-dir",
        required=required,
        default=None,
        help="artifact cache directory; a second run with the same config "
        "is served from it",
    )
    return parent


def _report_parent(report_name: str) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--report",
        default=None,
        help=f"write the structured JSON report ({report_name}) here",
    )
    return parent


def _only_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--only", nargs="+", default=None, help="subset of experiment ids to run"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Towards Network TIV Aware Distributed Systems' (IMC 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list the synthetic dataset presets")
    datasets.set_defaults(func=_cmd_datasets)

    generate = sub.add_parser(
        "generate",
        help="generate a synthetic delay matrix and save it",
        parents=[_population_parent(None)],
    )
    generate.add_argument("preset", choices=available_datasets())
    generate.add_argument("-o", "--output", required=True, help="output .npz path")
    generate.set_defaults(func=_cmd_generate)

    analyze = sub.add_parser(
        "analyze",
        help="TIV severity summary of a matrix",
        parents=[_population_parent(None)],
    )
    source = analyze.add_mutually_exclusive_group()
    source.add_argument("--input", help="path to a .npz delay matrix")
    source.add_argument("--preset", choices=available_datasets(), default="ds2_like")
    analyze.set_defaults(func=_cmd_analyze)

    experiments = sub.add_parser("experiments", help="list the per-figure experiment runners")
    experiments.set_defaults(func=_cmd_experiments)

    run = sub.add_parser(
        "run",
        help="run one figure experiment",
        parents=[_population_parent()],
    )
    run.add_argument("experiment", help="experiment id, e.g. fig20 (see 'experiments')")
    run.add_argument(
        "--scenario",
        default=None,
        help="library scenario to run under (see 'scenarios')",
    )
    run.add_argument("--full", action="store_true", help="emit the full data payload")
    run.set_defaults(func=_cmd_run)

    def sweep_parents(report_name: str) -> list[argparse.ArgumentParser]:
        """The flag families run-all and run-scenarios share."""
        return [
            _population_parent(),
            _jobs_parent(),
            _cache_parent(),
            _report_parent(report_name),
            _only_parent(),
        ]

    run_all = sub.add_parser(
        "run-all",
        help="run every figure experiment through the parallel cached engine",
        parents=sweep_parents("BENCH_experiments.json"),
    )
    run_all.add_argument(
        "--scenario",
        default=None,
        help="library scenario to run the whole sweep under (see 'scenarios')",
    )
    run_all.add_argument(
        "--full", action="store_true", help="also emit scalar result payloads"
    )
    run_all.set_defaults(func=_cmd_run_all)

    graph = sub.add_parser(
        "graph",
        help="print the resolved artifact DAG (topological waves, cache status)",
        parents=[_population_parent(), _cache_parent()],
    )
    graph.add_argument(
        "--experiment",
        nargs="+",
        default=None,
        help="figure ids to resolve (default: every registered experiment)",
    )
    graph.add_argument(
        "--scenario",
        default=None,
        help="library scenario to resolve the graph under (see 'scenarios')",
    )
    graph.add_argument(
        "--json", action="store_true", help="emit the graph as JSON instead of text"
    )
    graph.set_defaults(func=_cmd_graph)

    cache = sub.add_parser("cache", help="artifact-cache maintenance")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser(
        "prune",
        help="evict cache entries no registered artifact node can produce "
        "(retired schema tags or kernel eras, unknown kinds, orphans, "
        "abandoned temp files); run it only on a cache no run is using",
        parents=[_cache_parent(required=True)],
    )
    prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be pruned without deleting anything",
    )
    prune.set_defaults(func=_cmd_cache_prune)

    # Only the light library module: importing the full scenarios package
    # would drag the engine/cache stack into every CLI invocation.
    from repro.scenarios.library import available_matrices

    scenarios = sub.add_parser(
        "scenarios", help="list the scenario library (optionally one matrix)"
    )
    scenarios.add_argument(
        "--matrix",
        choices=available_matrices(),
        default=None,
        help="restrict the listing to one scenario matrix",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    run_scenarios = sub.add_parser(
        "run-scenarios",
        help="run the figure suite under every scenario of a matrix",
        parents=sweep_parents("BENCH_scenarios.json"),
    )
    run_scenarios.add_argument(
        "--matrix",
        choices=available_matrices(),
        default="small",
        help="scenario matrix to sweep (default: small)",
    )
    run_scenarios.add_argument(
        "--scenario",
        nargs="+",
        default=None,
        help="explicit scenario names to run instead of a matrix",
    )
    run_scenarios.set_defaults(func=_cmd_run_scenarios)

    make_trace = sub.add_parser(
        "make-trace",
        help="synthesize a churning measurement trace for 'stream' and save it",
        parents=[_population_parent(64)],
    )
    make_trace.add_argument(
        "--preset",
        choices=available_datasets(),
        default="ds2_like",
        help="dataset preset the ground-truth matrix is drawn from",
    )
    make_trace.add_argument(
        "--scenario",
        default=None,
        help="library scenario shaping the ground truth (see 'scenarios')",
    )
    make_trace.add_argument(
        "--duration",
        type=float,
        default=60.0,
        help="trace length in simulated seconds (default: 60)",
    )
    make_trace.add_argument(
        "--rate",
        type=int,
        default=1,
        help="measurements per live node per second (default: 1)",
    )
    make_trace.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="fraction of nodes that leave and rejoin mid-trace (default: 0)",
    )
    make_trace.add_argument(
        "--faults",
        default=None,
        help=(
            "fault-injection mini-spec, e.g. 'liars=0.1,spikes=0.05' "
            "(tokens: liars, liar_inflation, spikes, spike_mult, skew, "
            "max_skew, dupes, flaps, seed)"
        ),
    )
    make_trace.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help="seed of the fault streams (default: the spec's seed token, else 0)",
    )
    make_trace.add_argument("-o", "--output", required=True, help="output .npz trace path")
    make_trace.set_defaults(func=_cmd_make_trace)

    stream = sub.add_parser(
        "stream",
        help="replay a measurement trace through the live coordinate service",
        parents=[_report_parent("STREAM_report.json")],
    )
    stream.add_argument(
        "--trace", required=True, help="trace file written by 'make-trace'"
    )
    stream.add_argument(
        "--window",
        type=float,
        default=10.0,
        help="accuracy-scoring window width in seconds (default: 10)",
    )
    stream.add_argument(
        "--alert-threshold",
        type=float,
        default=0.5,
        help="predicted/observed ratio below which a TIV alert fires (default: 0.5)",
    )
    stream.add_argument(
        "--seed", type=int, default=0, help="seed of the service's random stream"
    )
    stream.add_argument(
        "--defense",
        action="store_true",
        help="arm the measurement defense (residual gate + quarantine ledger)",
    )
    stream.add_argument(
        "--checkpoint",
        default=None,
        help="stream-checkpoint/v2 .npz path to write (and resume from)",
    )
    stream.add_argument(
        "--wal",
        default=None,
        help="write-ahead log (.jsonl) of the events applied since the last checkpoint",
    )
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint every N applied events (0: only at end of replay)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="recover from --checkpoint (+ --wal suffix) and continue the replay",
    )
    stream.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help="stop after N applied events without a final checkpoint (crash drill)",
    )
    stream.set_defaults(func=_cmd_stream)

    chaos = sub.add_parser(
        "chaos",
        help="sweep a Byzantine liar fraction, defended vs undefended replay",
        parents=[_population_parent(48), _report_parent("CHAOS_report.json")],
    )
    chaos.add_argument(
        "--preset",
        choices=available_datasets(),
        default="ds2_like",
        help="dataset preset the ground-truth matrix is drawn from",
    )
    chaos.add_argument(
        "--duration",
        type=float,
        default=60.0,
        help="trace length in simulated seconds (default: 60)",
    )
    chaos.add_argument(
        "--rate",
        type=int,
        default=1,
        help="measurements per live node per second (default: 1)",
    )
    chaos.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="fraction of nodes that leave and rejoin mid-trace (default: 0)",
    )
    chaos.add_argument(
        "--liar-fractions",
        default="0.0,0.05,0.1,0.2",
        help="comma-separated Byzantine intensities to sweep",
    )
    chaos.add_argument(
        "--faults",
        default=None,
        help="extra fault template tokens held fixed across the sweep (no skew)",
    )
    chaos.add_argument(
        "--window",
        type=float,
        default=10.0,
        help="accuracy-scoring window width in seconds (default: 10)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="fire query load at a warm live service and write BENCH_serving.json "
        "(QPS + p50/p95/p99 per query family)",
        parents=[_report_parent("BENCH_serving.json")],
    )
    serve_bench.add_argument(
        "--sizes",
        default="96",
        help="comma-separated node counts to serve at (default: 96)",
    )
    serve_bench.add_argument(
        "--preset",
        choices=available_datasets(),
        default="ds2_like",
        help="dataset preset behind the warm trace's ground truth",
    )
    serve_bench.add_argument(
        "--scenario",
        default=None,
        help="library scenario shaping the ground truth (see 'scenarios')",
    )
    serve_bench.add_argument(
        "--warm-duration",
        type=float,
        default=30.0,
        help="simulated seconds of trace replayed before timing (default: 30)",
    )
    serve_bench.add_argument(
        "--churn",
        type=float,
        default=0.0,
        help="fraction of nodes that leave and rejoin during warm-up (default: 0)",
    )
    serve_bench.add_argument(
        "--families",
        nargs="+",
        default=None,
        help="query families to measure (default: closest distance tiv_alert "
        "meridian_closest)",
    )
    serve_bench.add_argument(
        "--batch", type=int, default=64, help="queries per batch (default: 64)"
    )
    serve_bench.add_argument(
        "--batches",
        type=int,
        default=8,
        help="timed batches per family and mode (default: 8)",
    )
    serve_bench.add_argument(
        "--warmup-batches",
        type=int,
        default=1,
        help="untimed warm-up batches (default: 1)",
    )
    serve_bench.add_argument(
        "--k", type=int, default=3, help="neighbours per closest query (default: 3)"
    )
    serve_bench.add_argument(
        "--seed", type=int, default=0, help="seed of the warm trace and query streams"
    )
    serve_bench.set_defaults(func=_cmd_serve_bench)

    report = sub.add_parser(
        "report",
        help="run experiments and render a Markdown results report",
        parents=[_population_parent(), _only_parent()],
    )
    report.add_argument("-o", "--output", default=None, help="write the report to a file")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
