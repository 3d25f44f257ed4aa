"""The built-in scenario library and the small/full scenario matrices.

The ROADMAP north-star asks for "as many scenarios as you can imagine";
this module is where they are imagined.  Each entry is a declarative
:class:`~repro.scenarios.spec.Scenario`; the CLI exposes the collection via
``repro scenarios`` and ``repro run-scenarios --matrix small|full``.

The **small** matrix is the CI smoke surface: one scenario per dimension
(baseline, TIV extremes, access tail, noise/dropout, churn) kept cheap
enough to sweep the full figure suite twice (cold + warm) in a CI job.
The **full** matrix adds the topology families, asymmetry, the rescaling
sweep and the size sweep.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.scenarios.spec import Scenario

#: Scenarios shared by the small and full matrices.
_SMALL: tuple[Scenario, ...] = (
    Scenario(
        "baseline",
        description="Each preset exactly as run-all generates it (no-op scenario)",
    ),
    Scenario(
        "tiv_free",
        description=(
            "Routing-detour injection disabled; measurement jitter alone still "
            "violates ~4.5% of DS² triangles at 240 nodes"
        ),
        tiv_level="none",
    ),
    Scenario(
        "heavy_tiv",
        description="1.8x more inflated edges with a heavier detour tail",
        tiv_level="heavy",
    ),
    Scenario(
        "powerlaw_access",
        description="Heavy-tailed (Pareto) access delays instead of exponential",
        access_model="powerlaw",
    ),
    Scenario(
        "noisy_sparse",
        description="Extra 8% measurement jitter plus 5% missing edges",
        extra_jitter=0.08,
        dropout=0.05,
    ),
    Scenario(
        "churn_snapshot",
        description="Snapshot after 20% of the nodes churned away",
        churn=0.20,
    ),
)

#: Additional scenarios of the full matrix.
_FULL_EXTRA: tuple[Scenario, ...] = (
    Scenario(
        "light_tiv",
        description="Half the inflated-edge fraction with a milder detour tail",
        tiv_level="light",
    ),
    Scenario(
        "asymmetric",
        description="10% per-node directional bias averaged into the RTTs",
        asymmetry=0.10,
    ),
    Scenario(
        "two_continent",
        description="Two major continental clusters instead of three",
        topology="two_continent",
    ),
    Scenario(
        "five_cluster",
        description="Five smaller regional clusters",
        topology="five_cluster",
    ),
    Scenario(
        "ring_topology",
        description="Six clusters arranged on a ring (no dominant center)",
        topology="ring",
    ),
    Scenario(
        "flat_topology",
        description="No major clusters: every node scattered uniformly",
        topology="flat",
    ),
    Scenario(
        "rescale_half",
        description="Every delay halved (rescaling sweep, fast-network end)",
        rescale=0.5,
    ),
    Scenario(
        "rescale_double",
        description="Every delay doubled (rescaling sweep, slow-network end)",
        rescale=2.0,
    ),
    Scenario(
        "half_size",
        description="Baseline generation at half the configured node count",
        size_factor=0.5,
    ),
    Scenario(
        "double_size",
        description="Baseline generation at twice the configured node count",
        size_factor=2.0,
    ),
    Scenario(
        "heavy_tiv_sparse",
        description="Heavy TIV injection combined with 10% missing edges",
        tiv_level="heavy",
        dropout=0.10,
    ),
    Scenario(
        "churn_heavy",
        description="Snapshot after 40% churn with extra 5% jitter",
        churn=0.40,
        extra_jitter=0.05,
    ),
)

#: The named scenario matrices selectable via ``--matrix``.
SCENARIO_MATRICES: dict[str, tuple[Scenario, ...]] = {
    "small": _SMALL,
    "full": _SMALL + _FULL_EXTRA,
}

_BY_NAME: dict[str, Scenario] = {}
for _scenario in SCENARIO_MATRICES["full"]:
    if _scenario.name in _BY_NAME:
        raise ConfigError(f"duplicate scenario name {_scenario.name!r} in the library")
    _BY_NAME[_scenario.name] = _scenario


def available_matrices() -> tuple[str, ...]:
    """Names of the selectable scenario matrices."""
    return tuple(SCENARIO_MATRICES)


def scenario_matrix(name: str) -> tuple[Scenario, ...]:
    """The scenarios of the named matrix (``"small"`` or ``"full"``)."""
    try:
        return SCENARIO_MATRICES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario matrix {name!r}; available: {', '.join(SCENARIO_MATRICES)}"
        ) from None


def available_scenarios() -> tuple[str, ...]:
    """Names of every scenario in the library."""
    return tuple(_BY_NAME)


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(_BY_NAME)}"
        ) from None
