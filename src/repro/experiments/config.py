"""Shared configuration of the experiment runners.

The paper runs everything at 4000-node scale; the defaults here are scaled
down so the whole harness completes on a laptop in minutes while preserving
the qualitative shape of every result.  Pass a custom
:class:`ExperimentConfig` to any runner for larger (or paper-scale) runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the per-figure experiment runners.

    Attributes
    ----------
    dataset:
        Name of the synthetic dataset preset standing in for the paper's
        DS² matrix (most experiments use ``"ds2_like"``).
    n_nodes:
        Node count of the generated matrix (paper: 4000; default 240 keeps
        every figure under a few seconds).
    seed:
        Master seed; every stochastic stage derives its stream from it.
    vivaldi_seconds:
        Simulated seconds each Vivaldi embedding runs before being treated
        as converged (paper: 100 s).
    candidate_fraction:
        Fraction of nodes used as selection candidates in the
        coordinate-driven experiments (paper: 200 / 4000 = 5 %).
    selection_runs:
        Number of independent candidate/client splits pooled per experiment
        (paper: 5).
    meridian_fraction:
        Fraction of nodes acting as Meridian nodes in the "normal setting"
        experiments (paper: 2000 / 4000 = 50 %).
    meridian_small_count:
        Number of Meridian nodes in the small idealised setting
        (paper: 200); scaled with the node count when necessary.
    max_clients:
        Cap (>= 1) on clients evaluated per Meridian run (keeps scaled-down
        runs fast); ``None`` evaluates every client.
    memory_budget_mb:
        Memory budget (MiB) of the out-of-core artifact tier: it sizes the
        severity witness chunks and the shard plan of large artifacts (see
        :mod:`repro.budget` and :mod:`repro.artifacts.shards`).  ``None``
        (the default) uses :data:`repro.budget.DEFAULT_MEMORY_BUDGET_MB`.
        The budget itself never joins a cache address — only the shard
        count derived from it does, and only for matrices at or above the
        shard threshold — so harness-scale addresses are unaffected.
    scenario:
        Optional name of a library scenario (see
        :mod:`repro.scenarios.library`) every dataset load is generated
        under.  ``None`` (the default) is the plain, scenario-free harness;
        the name is resolved lazily by the experiment context so the
        configuration stays a plain value object.  Note this field covers
        the *generative* scenario dimensions only: the scenario's
        ``size_factor`` acts on ``n_nodes`` while a configuration is
        derived (``repro.scenarios.runner.scenario_config``, used by the
        matrix runner, the registry's ``scenario=`` shorthand and the CLI
        ``--scenario`` flags), so set this field directly only with an
        already-scaled node count.
    """

    dataset: str = "ds2_like"
    n_nodes: int = 240
    seed: int = 0
    vivaldi_seconds: int = 100
    candidate_fraction: float = 0.05
    selection_runs: int = 3
    meridian_fraction: float = 0.5
    meridian_small_count: int = 40
    max_clients: int | None = 150
    scenario: str | None = None
    memory_budget_mb: int | None = None

    def __post_init__(self) -> None:
        if self.memory_budget_mb is not None and self.memory_budget_mb < 64:
            raise ConfigError("memory_budget_mb must be >= 64 (MiB)")
        if self.n_nodes < 8:
            raise ConfigError("n_nodes must be >= 8")
        if not 0 < self.candidate_fraction < 1:
            raise ConfigError("candidate_fraction must lie in (0, 1)")
        if not 0 < self.meridian_fraction < 1:
            raise ConfigError("meridian_fraction must lie in (0, 1)")
        if self.selection_runs < 1:
            raise ConfigError("selection_runs must be >= 1")
        if self.vivaldi_seconds < 1:
            raise ConfigError("vivaldi_seconds must be >= 1")
        if self.meridian_small_count < 2:
            raise ConfigError("meridian_small_count must be >= 2")
        if self.max_clients is not None and self.max_clients < 1:
            raise ConfigError("max_clients must be >= 1 (or None for every client)")

    @property
    def n_candidates(self) -> int:
        """Number of selection candidates derived from ``candidate_fraction``."""
        return max(2, int(round(self.candidate_fraction * self.n_nodes)))

    @property
    def n_meridian(self) -> int:
        """Number of Meridian nodes in the normal setting."""
        return max(2, int(round(self.meridian_fraction * self.n_nodes)))

    @property
    def n_meridian_small(self) -> int:
        """Number of Meridian nodes in the small idealised setting."""
        return min(self.meridian_small_count, self.n_nodes - 2)


#: Configuration approximating the paper's full scale.  Running the whole
#: harness at this scale takes hours; it exists so the scaled-down defaults
#: are an explicit, documented choice rather than a hidden constant.
PAPER_SCALE = ExperimentConfig(
    n_nodes=4000,
    candidate_fraction=0.05,
    selection_runs=5,
    meridian_fraction=0.5,
    meridian_small_count=200,
    max_clients=None,
)
