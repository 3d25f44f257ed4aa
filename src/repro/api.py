"""The unified public facade of the :mod:`repro` library.

Everything a library user needs, importable from one place::

    from repro import api

    matrix = api.load_matrix(preset="ds2_like", n_nodes=200, seed=0)
    severity = api.severity(matrix)
    vivaldi = api.build_embedding(matrix, system="vivaldi", seconds=100)
    result = api.run_experiment("fig19", n_nodes=120)
    service = api.open_stream(api.make_trace(n_nodes=64, duration=30.0))
    print(service.closest(0))

Each function is a thin, lazily importing wrapper over the subsystem that
owns the behaviour — the facade adds no logic of its own, so anything
expressible here is equally expressible against the underlying modules;
the facade just stops casual users from having to know which of the six
subpackages a name lives in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.coords.base import DelayPredictor
    from repro.delayspace.matrix import DelayMatrix
    from repro.experiments.result import ExperimentResult
    from repro.stream.events import Trace
    from repro.stream.replay import StreamReport
    from repro.stream.service import StreamCoordinateService
    from repro.tiv.severity import TIVSeverityResult

#: Coordinate systems :func:`build_embedding` can construct.
EMBEDDING_SYSTEMS = ("vivaldi", "ides", "lat")


def load_matrix(
    source: str | None = None,
    *,
    preset: str = "ds2_like",
    n_nodes: int | None = None,
    seed: int = 0,
    scenario=None,
) -> "DelayMatrix":
    """Load a delay matrix from a file or a synthetic preset.

    ``source`` (a ``.npz`` path) wins when given; otherwise the matrix is
    generated from ``preset`` at ``n_nodes`` under the optional library
    ``scenario`` (name or :class:`~repro.scenarios.spec.Scenario`).
    """
    if source is not None:
        from repro.delayspace.io import load_npz

        return load_npz(source)
    if scenario is not None:
        from repro.delayspace.datasets import get_preset
        from repro.scenarios.generators import load_scenario_dataset
        from repro.scenarios.library import get_scenario
        from repro.scenarios.spec import Scenario

        resolved = scenario if isinstance(scenario, Scenario) else get_scenario(str(scenario))
        count = n_nodes if n_nodes is not None else get_preset(preset).default_nodes
        matrix, _ = load_scenario_dataset(resolved, preset, int(count), seed)
        return matrix
    from repro.delayspace.datasets import load_dataset

    return load_dataset(preset, n_nodes=n_nodes, rng=seed)


def severity(matrix: "DelayMatrix", **kwargs) -> "TIVSeverityResult":
    """TIV severity of every edge of ``matrix`` (the paper's §3.1 metric)."""
    from repro.tiv.severity import compute_tiv_severity

    return compute_tiv_severity(matrix, **kwargs)


def build_embedding(
    matrix: "DelayMatrix",
    *,
    system: str = "vivaldi",
    seconds: int = 100,
    seed: int = 0,
    config=None,
) -> "DelayPredictor":
    """Fit one coordinate system to ``matrix`` and return its predictor.

    Parameters
    ----------
    system:
        ``"vivaldi"`` (the paper's main embedding), ``"ides"`` or
        ``"lat"`` (the §4.2 strawmen; LAT fits a Vivaldi embedding first
        and adjusts it).
    seconds:
        Simulated convergence seconds (Vivaldi-based systems only).
    seed:
        Seed of the fit's random stream.
    config:
        The fit's parameters, ``None`` for the defaults: a
        :class:`~repro.coords.vivaldi.VivaldiConfig` for ``"vivaldi"``, an
        :class:`~repro.coords.ides.IDESConfig` for ``"ides"``.  ``"lat"``
        takes none (``TypeError``).
    """
    if system == "vivaldi":
        from repro.coords.vivaldi import embed_vivaldi

        return embed_vivaldi(matrix, config=config, seconds=seconds, rng=seed)
    if system == "ides":
        from repro.coords.ides import fit_ides

        return fit_ides(matrix, config, rng=seed)
    if system == "lat":
        from repro.coords.lat import fit_lat
        from repro.coords.vivaldi import embed_vivaldi

        if config is not None:
            raise TypeError("build_embedding(system='lat') takes no config")
        base = embed_vivaldi(matrix, seconds=seconds, rng=seed + 1)
        return fit_lat(base, rng=seed)
    raise ConfigError(
        f"unknown embedding system {system!r}; expected one of "
        f"{', '.join(EMBEDDING_SYSTEMS)}"
    )


def run_experiment(experiment_id: str, *, n_nodes: int = 240, seed: int = 0,
                   scenario: str | None = None, config=None) -> "ExperimentResult":
    """Run one figure experiment (see ``repro experiments`` for the ids).

    Pass an :class:`~repro.experiments.config.ExperimentConfig` as
    ``config`` for full control; otherwise one is built from
    ``n_nodes``/``seed`` and the optional ``scenario`` is applied with its
    full semantics (size scaling included).
    """
    from repro.experiments.registry import run_experiment as run

    if config is None:
        from repro.experiments.config import ExperimentConfig

        config = ExperimentConfig(n_nodes=n_nodes, seed=seed)
    return run(experiment_id, config, scenario=scenario)


def make_trace(**kwargs) -> "Trace":
    """Synthesise a measurement trace; see
    :func:`repro.stream.synth.synthesize_trace` for the knobs."""
    from repro.stream.synth import synthesize_trace

    return synthesize_trace(**kwargs)


def open_stream(trace=None, *, config=None, rng=0) -> "StreamCoordinateService":
    """Open a streaming coordinate service, optionally primed from a trace.

    ``trace`` may be ``None`` (an empty service: feed it events yourself),
    a :class:`~repro.stream.events.Trace`, or a path to a saved trace
    file.  When a trace is given its events are replayed into the service,
    so the returned object is live state ready for ``closest``/
    ``distance``/``tiv_alert`` queries.
    """
    from repro.stream.events import Trace
    from repro.stream.service import StreamCoordinateService

    service = StreamCoordinateService(config, rng=rng)
    if trace is None:
        return service
    if not isinstance(trace, Trace):
        from repro.stream.events import load_trace

        trace = load_trace(trace)
    for event in trace.events:
        service.apply(event)
    return service


def replay(trace, **kwargs) -> "StreamReport":
    """Replay a trace (object or path) into a windowed accuracy report;
    see :func:`repro.stream.replay.replay_trace` for the knobs."""
    from repro.stream.events import Trace
    from repro.stream.replay import replay_trace

    if not isinstance(trace, Trace):
        from repro.stream.events import load_trace

        trace = load_trace(trace)
    return replay_trace(trace, **kwargs)


__all__ = [
    "EMBEDDING_SYSTEMS",
    "load_matrix",
    "severity",
    "build_embedding",
    "run_experiment",
    "make_trace",
    "open_stream",
    "replay",
]
