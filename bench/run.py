"""The repository benchmark: one command, every metric, correctness checked.

Run from the root of a checkout::

    python3 bench/run.py                     # every workload, round-robin sets
    python3 bench/run.py --trace             # ... plus one traced run each
    python3 bench/run.py --workload stream-replay --seed 3 --seconds 20 --trace 0

With ``--workload`` it runs that one workload for ``--seconds`` and
prints, as the last stdout line, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``)
or its per-layer metrics (``--trace 1``).  The line before it is a JSON
detail record (machine, samples, checks).  Without ``--workload`` it runs
``--sets`` rounds, each running every workload once in a fresh process
(rep 1 of each workload, then rep 2, ...), so slow machine drift spreads
over all workloads; it prints median, quartiles and sample count per
metric and writes every run to ``--out`` for ``bench/compare.py``.

Exit status is 1 when any correctness check fails, and 2 when the
checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from compare import format_table, summarize
from workloads import ROOT, WORKLOADS, Run, run_workload

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

#: Children still running this long after the run started are killed, so a
#: run always ends inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_layers() -> dict:
    return json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))


def machine() -> dict:
    """Where the numbers came from."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=False).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor() or None,
            "python": platform.python_version(), **versions, "commit": commit}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec, layers = load_spec(), load_layers()
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    with Run(workdir, deadline=time.monotonic() + RUN_DEADLINE_S) as run:
        outcome = run_workload(name, run, seed=seed, seconds=seconds, trace=trace)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.layers if trace else outcome.metrics
    metrics, missing = {}, list(outcome.missing)
    for metric in wanted:
        metric_name = metric["name"]
        expected = not trace or name in layers[metric_name]["workloads"]
        if metric_name in measured:
            value = measured[metric_name]
        else:
            # A layer this workload never enters did no work in it.
            value = 0.0
            if expected:
                missing.append(metric_name)
        metrics[metric_name] = {"value": value, "unit": metric["unit"]}
    correct = all(outcome.checks.values()) and outcome.failed == 0 and not missing
    attempted = max(outcome.attempted, 1)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "checks": outcome.checks, "missing": sorted(set(missing)),
        "samples": outcome.samples, "speed_factors": run.factors, "probe_s": run.probe_s(),
    }
    if not trace:
        shutil.rmtree(workdir, ignore_errors=True)
    for check, passed in outcome.checks.items():
        if not passed:
            print(f"check failed: {name}: {check}", file=sys.stderr)
    for metric_name in sorted(set(missing)):
        print(f"missing: {name}: {metric_name} (declared but never measured)", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_sets(sets: int, seed: int, seconds: float, trace: bool, out: Path) -> int:
    """Round-robin: every workload once per set, each run in a fresh process."""
    plan = [(name, seed + index, False) for index in range(sets) for name in WORKLOADS]
    if trace:
        plan += [(name, seed, True) for name in WORKLOADS]
    runs, ok = [], True
    for name, run_seed, traced in plan:
        print(f"running {name} seed={run_seed} trace={int(traced)}", file=sys.stderr)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(run_seed),
             "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            ok = False
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["correct"]
        runs.append({"workload": name, "seed": run_seed, "trace": int(traced),
                     "result": result, "detail": detail})
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine(), "seconds": seconds, "runs": runs}, indent=1),
                   encoding="utf-8")
    print(format_table(summarize(runs), load_spec()))
    print(f"wrote {len(runs)} runs to {out}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: every workload, round-robin)")
    parser.add_argument("--seed", type=int, default=1, help="workload input seed (default: 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help=f"measuring time per run (default: {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="report per-layer metrics from a traced pass")
    parser.add_argument("--sets", type=int, default=3,
                        help="round-robin sets without --workload (default: 3)")
    parser.add_argument("--out", type=Path, default=OUT / "results.json",
                        help="where the sets' runs are written (default: .bench_out/results.json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_sets(args.sets, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
