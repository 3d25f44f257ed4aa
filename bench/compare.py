"""Compare two benchmark result sets (written by ``bench/run.py --out``).

Usage::

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py results/A/ results/B/   # every *.json in each

Runs on the two sides are paired by workload and seed.

For every (workload, metric) pair it prints both sides' median and
quartiles, the change of the median, and a verdict:

* **regressed** — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* **improved** — B is better in at least nine tenths of the runs paired
  by seed, and the medians differ by more than A's own quartile spread;
* **unresolved** — either side's quartile spread exceeds the bound (and
  not every B run beats every A run), so the runs cannot tell;
* **unchanged** — none of the above.

A count (unit ``count``) supports a claim only when it repeats exactly on
each side; otherwise it is unresolved.  Per-layer metrics have no bound:
they are only ever improved, regressed (by the pairing rule) or
``no claim``.  Per-layer metrics that read 0 on both sides (the workload
never enters that layer) are left out.

Measure A and B as interleaved pairs on one machine, never as two
back-to-back sets: drift between sets minutes apart can exceed the bounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(runs: list[dict]) -> dict:
    """``{(workload, metric): {"unit": u, "values": {seed: value}}}`` over all runs."""
    table: dict = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            row = table.setdefault((run["workload"], name), {"unit": metric["unit"], "values": {}})
            row["values"][run["seed"]] = metric["value"]
    return table


def quartiles(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile), as ``statistics.quantiles(n=4)``."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _better(x: float, y: float, better: str) -> bool:
    return x < y if better == "lower" else x > y


def verdict(a: dict, b: dict, *, better: str, bound: float | None, unit: str) -> str:
    """The verdict on B against A; ``a``/``b`` map seed -> value."""
    va, vb = list(a.values()), list(b.values())
    ma, qa1, qa3 = quartiles(va)
    mb, qb1, qb3 = quartiles(vb)
    if unit == "count":
        if len(set(va)) > 1 or len(set(vb)) > 1:
            return "unresolved"
        if ma == mb:
            return "unchanged"
        return "improved" if _better(mb, ma, better) else "regressed"
    every_b_better = all(_better(y, x, better) for x in va for y in vb)
    every_b_worse = all(_better(x, y, better) for x in va for y in vb)
    pairs = [(a[seed], b[seed]) for seed in a if seed in b]
    if pairs:
        wins = sum(_better(y, x, better) for x, y in pairs) / len(pairs)
        losses = sum(_better(x, y, better) for x, y in pairs) / len(pairs)
    else:
        wins, losses = float(every_b_better), float(every_b_worse)
    beyond_noise = abs(mb - ma) > qa3 - qa1
    if bound is None:
        if wins >= 0.9 and beyond_noise:
            return "improved"
        if losses >= 0.9 and beyond_noise:
            return "regressed"
        return "no claim"
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    if spread > bound:
        return "improved" if every_b_better else "unresolved"
    worse = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
    if worse > bound:
        return "regressed"
    if wins >= 0.9 and beyond_noise:
        return "improved"
    return "unchanged"


def _ordered(table: dict, spec: dict):
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    return sorted(table, key=lambda key: (key[0], order.index(key[1]) if key[1] in order else 1e9))


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def format_table(table: dict, spec: dict) -> str:
    """Markdown table of one result set: median, quartiles and sample count."""
    lines = ["| workload | metric | unit | median | q1 | q3 | n |", "|---|---|---|---|---|---|---|"]
    for workload, metric in _ordered(table, spec):
        row = table[(workload, metric)]
        values = list(row["values"].values())
        if not any(values):
            continue
        median, q1, q3 = quartiles(values)
        lines.append(f"| {workload} | {metric} | {row['unit']} | {_fmt(median)} | {_fmt(q1)} "
                     f"| {_fmt(q3)} | {len(values)} |")
    return "\n".join(lines)


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> list[dict]:
    a_table, b_table = summarize(a_runs), summarize(b_runs)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in _ordered(a_table, spec):
        if key not in b_table or key[1] not in specs:
            continue
        a, b = a_table[key]["values"], b_table[key]["values"]
        if not any(a.values()) and not any(b.values()):
            continue
        metric = specs[key[1]]
        qa, qb = quartiles(a.values()), quartiles(b.values())
        rows.append({
            "workload": key[0], "metric": key[1], "unit": metric["unit"], "a": qa, "b": qb,
            "delta": (qb[0] - qa[0]) / abs(qa[0]) if qa[0] else float("nan"),
            "verdict": verdict(a, b, better=metric["better"], bound=metric.get("bound"),
                               unit=metric["unit"]),
        })
    return rows


def format_comparison(rows: list[dict]) -> str:
    lines = [
        "| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | change | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"| {row['workload']} | {row['metric']} | {row['unit']} "
            f"| {_fmt(a[0])} [{_fmt(a[1])}, {_fmt(a[2])}] "
            f"| {_fmt(b[0])} [{_fmt(b[1])}, {_fmt(b[2])}] "
            f"| {row['delta']:+.1%} | {row['verdict']} |"
        )
    return "\n".join(lines)


def load_runs(path: Path) -> list[dict]:
    """The runs of one result file, or of every ``*.json`` result file in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [run for file in files for run in json.loads(file.read_text(encoding="utf-8"))["runs"]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.json|A_DIR B.json|B_DIR", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    a, b = (load_runs(Path(path)) for path in argv)
    print(format_comparison(compare(a, b, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
