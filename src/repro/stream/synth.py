"""Scenario-backed trace synthesis.

A trace is fully determined by ``(preset, scenario, n_nodes, seed,
duration, rate, churn)``: the ground-truth matrix comes from the same
generator layer the batch harness uses
(:func:`repro.scenarios.generators.load_scenario_dataset`, so the
18-scenario library doubles as the trace corpus), and the event schedule
is drawn from a dedicated RNG stream derived from the seed — two calls
with the same tuple produce byte-identical traces, which the churn
determinism tests pin.

The measurement schedule mirrors the batch simulation's probe model: each
simulated second, every *active* node measures one uniformly random other
active node (``rate`` scales this).  Churn selects a deterministic subset
of nodes to leave mid-trace and rejoin after a downtime, so replays
exercise mid-trace joins and leaves, slot reuse, and re-localisation of
returning nodes.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.errors import StreamError
from repro.scenarios.spec import Scenario
from repro.stream.events import Event, MeasurementEvent, NodeJoin, NodeLeave, Trace


def _resolve_scenario(scenario) -> Scenario | None:
    if scenario is None or isinstance(scenario, Scenario):
        return scenario
    from repro.scenarios.library import get_scenario

    return get_scenario(str(scenario))


def _trace_rng(seed: int) -> np.random.Generator:
    """Event-schedule stream, independent of the matrix generation stream."""
    return np.random.default_rng([abs(int(seed)) & 0xFFFFFFFF, 0x57BEA])


def synthesize_trace(
    *,
    preset: str = "ds2_like",
    n_nodes: int = 64,
    seed: int = 0,
    scenario=None,
    duration: float = 60.0,
    rate: int = 1,
    churn: float = 0.0,
    faults=None,
) -> Trace:
    """Synthesise a measurement trace with optional mid-trace churn.

    Parameters
    ----------
    preset:
        Synthetic dataset preset supplying the ground-truth matrix.
    n_nodes:
        Node count of the ground truth.
    seed:
        Master seed: drives both the matrix generation and the event
        schedule (via independent streams).
    scenario:
        Optional library scenario (name or :class:`Scenario`) the ground
        truth is generated under.
    duration:
        Simulated seconds of measurement traffic.
    rate:
        Measurements each active node issues per simulated second.
    churn:
        Fraction of the population that leaves mid-trace and rejoins
        after a downtime (0 disables churn).  Leave times fall in the
        middle [20 %, 60 %] stretch of the trace; downtimes span 10–30 %
        of it, so every churned node is back (and re-localising) before
        the final windows.
    faults:
        Optional :class:`~repro.stream.faults.FaultSpec` applied to the
        clean trace before it is returned (CLI: ``make-trace --faults``).
        Injection is deterministic from the spec's own seed, so the
        faulted trace is still a pure function of its parameters.
    """
    if duration <= 0:
        raise StreamError("duration must be > 0")
    if rate < 1:
        raise StreamError("rate must be >= 1")
    if not 0 <= churn < 1:
        raise StreamError("churn must lie in [0, 1)")
    if n_nodes < 2:
        raise StreamError("n_nodes must be >= 2")

    resolved = _resolve_scenario(scenario)
    from repro.scenarios.generators import load_scenario_dataset

    matrix, _ = load_scenario_dataset(resolved, preset, int(n_nodes), int(seed))
    truth = matrix.to_array()
    n = truth.shape[0]
    rng = _trace_rng(seed)

    # Churn plan: node -> (t_leave, t_rejoin), drawn before the timeline
    # so the schedule is a pure function of the seed.
    churn_plan: dict[int, tuple[float, float]] = {}
    n_churned = int(round(churn * n))
    if n_churned:
        churned = rng.choice(n, size=n_churned, replace=False)
        t_leave = duration * rng.uniform(0.2, 0.6, size=n_churned)
        downtime = duration * rng.uniform(0.1, 0.3, size=n_churned)
        t_rejoin = np.minimum(t_leave + downtime, duration * 0.95)
        for node, leave_at, rejoin_at in zip(churned, t_leave, t_rejoin):
            churn_plan[int(node)] = (float(leave_at), float(rejoin_at))

    events: list[Event] = [NodeJoin(0.0, node) for node in range(n)]
    active = np.ones(n, dtype=bool)

    # Flatten the churn plan into a time-sorted schedule of (t, kind, node).
    churn_schedule = sorted(
        [(t_leave, "leave", node) for node, (t_leave, _) in churn_plan.items()]
        + [(t_rejoin, "join", node) for node, (_, t_rejoin) in churn_plan.items()]
    )
    churn_index = 0

    for second in range(int(np.ceil(duration))):
        # Churn events scheduled inside this second land at its start,
        # before the second's measurements (at +0.5), keeping the trace
        # time-ordered.
        while churn_index < len(churn_schedule) and churn_schedule[churn_index][0] < second + 1:
            _, kind, node = churn_schedule[churn_index]
            churn_index += 1
            if kind == "leave":
                events.append(NodeLeave(float(second), node))
                active[node] = False
            else:
                events.append(NodeJoin(float(second), node))
                active[node] = True

        live = np.flatnonzero(active)
        if live.size < 2:
            continue
        for _ in range(int(rate)):
            # One vectorised draw per round: every active node measures a
            # uniformly random *other* active node.
            picks = rng.integers(0, live.size - 1, size=live.size)
            picks += picks >= np.arange(live.size)
            targets = live[picks]
            # One gather and one mask keep the usable probes, in probe order.
            rtts = truth[live, targets]
            usable = np.isfinite(rtts) & (rtts > 0)
            events.extend(
                map(
                    MeasurementEvent,
                    repeat(float(second) + 0.5),
                    live[usable].tolist(),
                    targets[usable].tolist(),
                    rtts[usable].tolist(),
                )
            )

    meta = {
        "preset": preset,
        "scenario": resolved.name if resolved is not None else None,
        "n_nodes": int(n),
        "seed": int(seed),
        "duration": float(duration),
        "rate": int(rate),
        "churn": float(churn),
    }
    trace = Trace(events=tuple(events), ground_truth=truth, meta=meta)
    if faults is not None:
        from repro.stream.faults import apply_faults

        trace = apply_faults(trace, faults)
    return trace
