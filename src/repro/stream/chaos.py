"""Chaos replay: measure the defense, don't assert it.

A chaos run sweeps a fault intensity (the Byzantine liar fraction, with
any other :class:`~repro.stream.faults.FaultSpec` knobs held fixed) and
replays each faulted trace twice — once through an undefended service and
once through the same service with the defense layer armed — against the
shared clean ground truth.  The report puts numbers on the claims the
robustness work makes:

* **degradation vs fault rate** — final median relative error of both
  services at every intensity, plus the ratio to the clean undefended
  baseline;
* **quarantine quality** — precision/recall of the ever-quarantined set
  against the injected liar set recorded in the trace meta.

``repro chaos`` prints the table; the golden chaos snapshot pins one
configuration so the defended-vs-undefended ordering and the ≤2× clean
degradation bound are regression-checked, not hoped for.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import StreamError
from repro.stream.faults import FaultSpec
from repro.stream.replay import replay_trace
from repro.stream.service import DefenseConfig, StreamServiceConfig
from repro.stream.synth import synthesize_trace

#: Schema tag of the chaos report payload.
CHAOS_REPORT_SCHEMA = "chaos-report/v1"


def _quarantine_quality(ever_quarantined: list, liars: list) -> tuple[float, float]:
    """Precision/recall of the quarantined set against the injected liars."""
    quarantined = set(ever_quarantined)
    truth = set(liars)
    hit = len(quarantined & truth)
    precision = hit / len(quarantined) if quarantined else float("nan")
    recall = hit / len(truth) if truth else float("nan")
    return precision, recall


def run_chaos(
    *,
    preset: str = "ds2_like",
    n_nodes: int = 48,
    seed: int = 0,
    duration: float = 60.0,
    rate: int = 1,
    churn: float = 0.0,
    liar_fractions=(0.0, 0.05, 0.1, 0.2),
    fault_template: FaultSpec | None = None,
    config: StreamServiceConfig | None = None,
    defense: DefenseConfig | None = None,
    window_seconds: float = 10.0,
    eval_edges: int = 512,
    rng: int = 0,
) -> dict:
    """Sweep the liar fraction, replaying defended vs undefended services.

    Parameters
    ----------
    liar_fractions:
        Byzantine intensities to sweep; include ``0.0`` to anchor the
        clean baseline (it is synthesised anyway if absent).
    fault_template:
        Base :class:`FaultSpec` supplying every non-liar knob (spikes,
        duplicates, flaps...).  Clock skew is rejected here: an
        *undefended* service cannot replay an out-of-order trace, and a
        chaos run must replay both sides of the comparison.
    config:
        The undefended service parameters; the defended service is the
        same config with ``defense`` attached.
    defense:
        Defense parameters (default :class:`DefenseConfig`).
    """
    template = fault_template if fault_template is not None else FaultSpec(seed=seed)
    if template.skew_fraction:
        raise StreamError(
            "chaos sweeps cannot inject clock skew: the undefended arm of "
            "the comparison cannot replay an out-of-order trace"
        )
    base = config if config is not None else StreamServiceConfig()
    base = replace(base, defense=None)
    defended_config = replace(
        base, defense=defense if defense is not None else DefenseConfig()
    )

    fractions = sorted({0.0} | {float(f) for f in liar_fractions})
    rows = []
    baseline = None
    for fraction in fractions:
        spec = replace(template, liar_fraction=fraction)
        trace = synthesize_trace(
            preset=preset,
            n_nodes=n_nodes,
            seed=seed,
            duration=duration,
            rate=rate,
            churn=churn,
            faults=None if spec.is_noop else spec,
        )
        liars = list(trace.meta.get("fault_liars", []))
        sides = {}
        ever_quarantined: list = []
        for name, service_config in (
            ("undefended", base),
            ("defended", defended_config),
        ):
            report = replay_trace(
                trace,
                config=service_config,
                window_seconds=window_seconds,
                eval_edges=eval_edges,
                rng=rng,
            )
            sides[name] = {
                "final_median_relative_error": report.totals[
                    "last_window_median_relative_error"
                ],
                "rejected_measurements": report.totals["rejected_measurements"],
                "quarantined_nodes": report.totals["quarantined_nodes"],
                "ever_quarantined_nodes": report.totals["ever_quarantined_nodes"],
            }
            if name == "defended":
                ever_quarantined = list(report.defense.get("ever_quarantined", []))
        if fraction == 0.0:
            baseline = sides["undefended"]["final_median_relative_error"]
        precision, recall = _quarantine_quality(ever_quarantined, liars)
        rows.append(
            {
                "liar_fraction": fraction,
                "injected_liars": len(liars),
                "undefended": sides["undefended"],
                "defended": sides["defended"],
                "quarantine_precision": precision,
                "quarantine_recall": recall,
            }
        )

    out = {
        "schema": CHAOS_REPORT_SCHEMA,
        "params": {
            "preset": preset,
            "n_nodes": int(n_nodes),
            "seed": int(seed),
            "duration": float(duration),
            "rate": int(rate),
            "churn": float(churn),
            "window_seconds": float(window_seconds),
            "eval_edges": int(eval_edges),
            "rng": int(rng),
            "fault_template": template.as_dict(),
        },
        "baseline_median_relative_error": baseline,
        "rows": rows,
    }
    for row in rows:
        for side in ("undefended", "defended"):
            error = row[side]["final_median_relative_error"]
            row[side]["degradation_vs_clean"] = (
                error / baseline if baseline else float("nan")
            )
    return out
