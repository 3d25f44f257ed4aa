"""The named benchmark kernels.

Each kernel is a :class:`KernelSpec`: a factory that, given a size and a
seed, prepares all inputs up front and returns a zero-argument callable
executing one unit of the hot path, plus the amount of work a call
represents so the harness can report throughput.  Setup cost (dataset
generation, system construction) deliberately stays outside the timed
region.

The registry is the single source of kernel names for the CLI, the bench
harness and the CI smoke job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ReproError


class BenchmarkError(ReproError):
    """Raised for invalid benchmark requests (unknown kernel, bad sizes)."""


#: A prepared kernel: call ``run()`` to execute one timed unit of work.
PreparedKernel = Callable[[], object]


@dataclass(frozen=True)
class KernelSpec:
    """One named benchmark kernel.

    Attributes
    ----------
    name:
        Registry name (what ``repro bench --kernels`` accepts).
    description:
        One-line description of the timed operation.
    units:
        What a throughput of 1.0 means (e.g. ``"probes/s"``).
    setup:
        ``setup(size, seed) -> (run, work_per_call)``: prepares inputs and
        returns the timed callable plus the work (in ``units`` numerators)
        one call performs.
    """

    name: str
    description: str
    units: str
    setup: Callable[[int, int], tuple[PreparedKernel, float]]


def _dataset(size: int, seed: int):
    from repro.delayspace.datasets import load_dataset

    return load_dataset("ds2_like", n_nodes=size, rng=seed)


def _setup_vivaldi_step(kernel: str):
    def setup(size: int, seed: int) -> tuple[PreparedKernel, float]:
        from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem

        system = VivaldiSystem(_dataset(size, seed), VivaldiConfig(), rng=seed + 1, kernel=kernel)
        # One call = one simulated second = `size` probes.  Successive calls
        # keep advancing the same simulation, which is exactly the work the
        # experiment harness pays per convergence second.
        return system.step, float(size)

    return setup


def _setup_ides_fit(kernel: str):
    def setup(size: int, seed: int) -> tuple[PreparedKernel, float]:
        from repro.coords.ides import IDESConfig, fit_ides

        matrix = _dataset(size, seed)
        # SVD factorisation: the landmark fit is a single shared solve, so
        # the timing isolates the host-projection stage the kernels differ
        # in (the NMF iterations would be identical cost on both sides).
        config = IDESConfig(method="svd")
        return (lambda: fit_ides(matrix, config, rng=seed + 1, kernel=kernel)), float(size)

    return setup


def _setup_lat_adjust(kernel: str):
    def setup(size: int, seed: int) -> tuple[PreparedKernel, float]:
        from repro.coords.lat import fit_lat
        from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem

        system = VivaldiSystem(_dataset(size, seed), VivaldiConfig(), rng=seed + 1)
        system.run(5)  # a lightly shaken embedding; convergence is irrelevant to timing
        return (lambda: fit_lat(system, rng=seed + 2, kernel=kernel)), float(size)

    return setup


def _setup_meridian_query(kernel: str):
    def setup(size: int, seed: int) -> tuple[PreparedKernel, float]:
        from repro.meridian.overlay import MeridianOverlay

        matrix = _dataset(size, seed)
        meridian_ids = list(range(0, size, 2))
        overlay = MeridianOverlay(matrix, meridian_ids, rng=seed + 1, kernel=kernel)
        targets = [node for node in range(size) if node % 2]

        def run() -> int:
            # Deterministic start nodes: successive timed calls must not
            # drain the overlay RNG differently per kernel.
            for target in targets:
                overlay.closest_neighbor_query(
                    target, start_node=meridian_ids[target % len(meridian_ids)]
                )
            return len(targets)

        return run, float(len(targets))

    return setup


def _setup_meridian_build(kernel: str):
    def setup(size: int, seed: int) -> tuple[PreparedKernel, float]:
        from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
        from repro.core.alert import TIVAlert
        from repro.core.tiv_aware_meridian import build_tiv_aware_overlay

        matrix = _dataset(size, seed)
        system = VivaldiSystem(matrix, VivaldiConfig(), rng=seed + 1)
        system.run(20)  # a partly converged embedding: the alert fires on some edges
        alert = TIVAlert(matrix, system)
        meridian_ids = list(range(0, size, 2))

        def run() -> int:
            # One call = one TIV-aware overlay build (the slowest variant:
            # every usable edge is checked for double placement), seeded
            # identically each time so both kernels build the same rings.
            build_tiv_aware_overlay(matrix, meridian_ids, alert, rng=seed + 1, kernel=kernel)
            return len(meridian_ids)

        return run, float(len(meridian_ids))

    return setup


def _setup_tiv_severity(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.tiv.severity import compute_tiv_severity

    matrix = _dataset(size, seed)
    return (lambda: compute_tiv_severity(matrix)), float(size) * size


def _setup_ring_misplacement(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.meridian.analysis import ring_misplacement_by_delay

    matrix = _dataset(size, seed)
    max_pairs = 40_000  # what the fig13 runner samples
    # One call = one beta's curve of the Fig. 13 analysis.
    return (
        lambda: ring_misplacement_by_delay(matrix, beta=0.5, max_pairs=max_pairs, rng=seed)
    ), float(min(size * (size - 1), max_pairs))


def _setup_violating_triangles(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.tiv.severity import compute_tiv_severity

    # What the fig02 runner calls: the fraction read off a severity result
    # it already holds, so the severity itself is not timed.
    severity = compute_tiv_severity(_dataset(size, seed))
    triples = size * (size - 1) * (size - 2) // 6
    return severity.violating_triangle_fraction, float(triples)


def _setup_shortest_paths(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.delayspace.shortest_path import shortest_path_matrix

    matrix = _dataset(size, seed)
    return (lambda: shortest_path_matrix(matrix)), float(size) * size


def _setup_artifact_graph_resolve(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.artifacts import resolve_plan
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.registry import list_experiments

    config = ExperimentConfig(n_nodes=size, seed=seed)
    wanted = list(list_experiments())
    # One call = resolving the full figure suite's artifact DAG (the fixed
    # per-run scheduling overhead of the engine); work = figures resolved.
    return (lambda: resolve_plan(config, wanted)), float(len(wanted))


def _setup_online_update(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.stream.service import StreamCoordinateService

    matrix = _dataset(size, seed)
    truth = matrix.to_array()
    service = StreamCoordinateService(rng=seed + 1)
    for node in range(size):
        service.join(node, 0.0)
    import numpy as np

    rng = np.random.default_rng(seed + 2)
    state = {"t": 0.0}

    def run() -> int:
        # One call = one simulated second of service ingestion: every
        # node observes one random peer (coordinate update + edge memory
        # + rolling severity), the per-event hot path of `repro stream`.
        state["t"] += 1.0
        t = state["t"]
        picks = rng.integers(0, size - 1, size=size)
        picks += picks >= np.arange(size)
        for src in range(size):
            rtt = truth[src, picks[src]]
            if rtt > 0:
                service.observe(src, int(picks[src]), float(rtt), t)
        return size

    return run, float(size)


def _warm_service(size: int, seed: int):
    """A streaming service with ``size`` joined nodes and a shaken embedding."""
    import numpy as np

    from repro.stream.service import StreamCoordinateService

    matrix = _dataset(size, seed)
    truth = matrix.to_array()
    service = StreamCoordinateService(rng=seed + 1)
    for node in range(size):
        service.join(node, 0.0)
    rng = np.random.default_rng(seed + 2)
    # A few simulated seconds of measurements: enough that every node has
    # moved off the origin and queries run against realistic coordinates.
    for t in range(1, 6):
        picks = rng.integers(0, size - 1, size=size)
        picks += picks >= np.arange(size)
        for src in range(size):
            rtt = truth[src, picks[src]]
            if rtt > 0:
                service.observe(src, int(picks[src]), float(rtt), float(t))
    return service


def _setup_stream_closest(kernel: str):
    def setup(size: int, seed: int) -> tuple[PreparedKernel, float]:
        service = _warm_service(size, seed)
        nodes = service.active_nodes()

        if kernel == "batched":

            def run() -> int:
                # One call = a closest-node query from every node, answered
                # by one whole-population einsum + one tie-aware top-k
                # selection — the serving hot path `repro serve-bench` stresses.
                service.closest_batch(nodes, k=3)
                return len(nodes)

        else:

            def run() -> int:
                for node in nodes:
                    service.closest(node, k=3)
                return len(nodes)

        return run, float(len(nodes))

    return setup


def _setup_scenario_generation(size: int, seed: int) -> tuple[PreparedKernel, float]:
    from repro.scenarios.generators import load_scenario_dataset
    from repro.scenarios.library import get_scenario

    scenario = get_scenario("heavy_tiv")
    return (
        lambda: load_scenario_dataset(scenario, "ds2_like", size, seed)
    ), float(size) * size


_KERNELS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec(
            "vivaldi_step_batched",
            "one simulated second of the batched (whole-array) Vivaldi kernel",
            "probes/s",
            _setup_vivaldi_step("batched"),
        ),
        KernelSpec(
            "vivaldi_step_reference",
            "one simulated second of the scalar reference Vivaldi kernel",
            "probes/s",
            _setup_vivaldi_step("reference"),
        ),
        KernelSpec(
            "ides_fit_batched",
            "full IDES fit with one-shot multi-RHS host projection",
            "hosts/s",
            _setup_ides_fit("batched"),
        ),
        KernelSpec(
            "ides_fit_reference",
            "full IDES fit with the per-host least-squares loop",
            "hosts/s",
            _setup_ides_fit("reference"),
        ),
        KernelSpec(
            "lat_adjust_batched",
            "LAT adjustment fit over padded whole-array sample gathers",
            "nodes/s",
            _setup_lat_adjust("batched"),
        ),
        KernelSpec(
            "lat_adjust_reference",
            "LAT adjustment fit with the per-node/per-sample double loop",
            "nodes/s",
            _setup_lat_adjust("reference"),
        ),
        KernelSpec(
            "meridian_query_batched",
            "closest-node queries reading eligible members from the ring store",
            "queries/s",
            _setup_meridian_query("batched"),
        ),
        KernelSpec(
            "meridian_query_reference",
            "closest-node queries with per-member probe loops",
            "queries/s",
            _setup_meridian_query("reference"),
        ),
        KernelSpec(
            "meridian_build_batched",
            "TIV-aware Meridian overlay build in one whole-array ring placement pass",
            "nodes/s",
            _setup_meridian_build("batched"),
        ),
        KernelSpec(
            "meridian_build_reference",
            "TIV-aware Meridian overlay build with per-member ring adds",
            "nodes/s",
            _setup_meridian_build("reference"),
        ),
        KernelSpec(
            "tiv_severity",
            "full-matrix TIV severity (O(N^3), vectorised per source row)",
            "edges/s",
            _setup_tiv_severity,
        ),
        KernelSpec(
            "ring_misplacement",
            "Fig. 13 ring-misplacement curve for one beta "
            "(chunked whole-row pair evaluation)",
            "pairs/s",
            _setup_ring_misplacement,
        ),
        KernelSpec(
            "violating_triangles",
            "fraction of violating triangles (derived from the severity "
            "counts: one measured-mask matrix product)",
            "triangles/s",
            _setup_violating_triangles,
        ),
        KernelSpec(
            "shortest_paths",
            "all-pairs shortest paths over the delay graph (numpy Floyd–Warshall)",
            "edges/s",
            _setup_shortest_paths,
        ),
        KernelSpec(
            "online_update",
            "one simulated second of streaming-service ingestion "
            "(per-observation Vivaldi + edge memory + rolling severity)",
            "updates/s",
            _setup_online_update,
        ),
        KernelSpec(
            "stream_closest_batched",
            "closest-node queries from every node over one whole-population "
            "einsum (the live-service batch query path)",
            "queries/s",
            _setup_stream_closest("batched"),
        ),
        KernelSpec(
            "stream_closest_reference",
            "closest-node queries answered one per-query dict scan + sort "
            "at a time (the scalar live-service path)",
            "queries/s",
            _setup_stream_closest("reference"),
        ),
        KernelSpec(
            "scenario_generation",
            "heavy_tiv scenario dataset generation (synthesis + perturbations)",
            "edges/s",
            _setup_scenario_generation,
        ),
        KernelSpec(
            "artifact_graph_resolve",
            "full-suite artifact-DAG resolution (requirements -> addressed plan)",
            "figures/s",
            _setup_artifact_graph_resolve,
        ),
    )
}


def available_kernels() -> tuple[str, ...]:
    """Names of all registered benchmark kernels."""
    return tuple(_KERNELS)


def kernel_families() -> dict[str, tuple[str, str]]:
    """Kernels that come as a fast/reference pair, keyed by family name.

    A family is the shared prefix of a ``<family>_batched`` /
    ``<family>_reference`` kernel pair (e.g. ``"ides_fit"``).  The bench
    report computes one speedup per family, and ``repro bench --kernels``
    accepts family names as shorthand for timing both variants.
    """
    families: dict[str, tuple[str, str]] = {}
    for name in _KERNELS:
        if name.endswith("_batched"):
            family = name[: -len("_batched")]
            reference = f"{family}_reference"
            if reference in _KERNELS:
                families[family] = (name, reference)
    return families


def resolve_kernel_names(tokens: Sequence[str]) -> tuple[str, ...]:
    """Expand CLI kernel tokens into registered kernel names (deduplicated).

    Each token may be a kernel name, a family name (expanding to its
    batched and reference variants) or a comma-separated list of either —
    so ``--kernels ides_fit,lat_adjust`` times all four variants.
    """
    families = kernel_families()
    names: list[str] = []
    for token in tokens:
        for part in str(token).split(","):
            part = part.strip()
            if not part:
                continue
            if part in families:
                names.extend(families[part])
            elif part in _KERNELS:
                names.append(part)
            else:
                raise BenchmarkError(
                    f"unknown benchmark kernel or family {part!r}; "
                    f"kernels: {', '.join(_KERNELS)}; "
                    f"families: {', '.join(sorted(families))}"
                )
    return tuple(dict.fromkeys(names))


def get_kernel(name: str) -> KernelSpec:
    """Look up one kernel by name."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown benchmark kernel {name!r}; available: {', '.join(_KERNELS)}"
        ) from None
