"""Declarative scenario specifications.

A :class:`Scenario` names one point in the evaluation space the ROADMAP
asks the harness to cover: a topology family × TIV-injection level ×
size factor × a set of measurement perturbations.  Scenarios are *data*,
not code — every knob is a plain value, so a scenario can be fingerprinted
into the content-addressed artifact cache and serialised into run reports.

A scenario does not generate matrices itself; the generator layer in
:mod:`repro.scenarios.generators` interprets it against any dataset preset.
This keeps the scenario orthogonal to the figure runners: the same
``fig*`` experiment runs unchanged under any scenario because the scenario
only changes how the :class:`~repro.delayspace.matrix.DelayMatrix`
materialises.

Node-count invariant: scenario transforms never change the node count the
experiment configuration asked for (churn over-generates and then drops
down to the requested count), so every runner's client/Meridian sizing
stays valid.  The *size* dimension is instead expressed by
``size_factor``, which the scenario-matrix runner applies to
``ExperimentConfig.n_nodes`` before the experiments start.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.errors import ConfigError

#: Topology families a scenario can request.  ``"default"`` keeps each
#: preset's own cluster geometry; the named families replace it (see
#: :data:`repro.scenarios.generators.TOPOLOGIES`).
TOPOLOGY_FAMILIES = ("default", "two_continent", "five_cluster", "ring", "flat")

#: TIV-injection levels.  ``"baseline"`` keeps each preset's own injection
#: knobs; the other levels scale them (see
#: :data:`repro.scenarios.generators.TIV_LEVELS`).
TIV_LEVELS = ("none", "light", "baseline", "heavy")

#: Access-delay models: ``"default"`` keeps the preset's distribution,
#: ``"powerlaw"`` switches to the heavy-tailed Pareto access delays.
ACCESS_MODELS = ("default", "powerlaw")


@dataclass(frozen=True)
class Scenario:
    """One declarative evaluation scenario.

    Attributes
    ----------
    name:
        Scenario identifier (unique within a scenario matrix).
    description:
        One-line human-readable description.
    topology:
        Topology family; one of :data:`TOPOLOGY_FAMILIES`.
    tiv_level:
        TIV-injection level; one of :data:`TIV_LEVELS`.
    access_model:
        Access-delay model; one of :data:`ACCESS_MODELS`.
    size_factor:
        Multiplier applied to the configured node count by the scenario
        runner (the size dimension of the matrix).
    asymmetry:
        Scale of a per-*node* directional bias (an asymmetric access link
        slows one direction of every path through the node), averaged back
        into the symmetric RTT matrix.  Distinct from ``extra_jitter``:
        jitter is independent per edge, asymmetry is correlated across all
        edges of a node.
    extra_jitter:
        Additional symmetric multiplicative measurement noise applied on
        top of the preset's own jitter.
    dropout:
        Additional fraction of measured edges reported as missing.
    churn:
        Fraction of nodes that have churned away in this snapshot.  The
        generator over-provisions and removes the churned nodes so the
        surviving matrix still has the requested node count.
    rescale:
        Global multiplicative rescaling of every delay (the
        matrix-rescaling sweep dimension).
    """

    name: str
    description: str = ""
    topology: str = "default"
    tiv_level: str = "baseline"
    access_model: str = "default"
    size_factor: float = 1.0
    asymmetry: float = 0.0
    extra_jitter: float = 0.0
    dropout: float = 0.0
    churn: float = 0.0
    rescale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a scenario needs a non-empty name")
        if self.topology not in TOPOLOGY_FAMILIES:
            raise ConfigError(
                f"unknown topology family {self.topology!r}; "
                f"known: {', '.join(TOPOLOGY_FAMILIES)}"
            )
        if self.tiv_level not in TIV_LEVELS:
            raise ConfigError(
                f"unknown TIV level {self.tiv_level!r}; known: {', '.join(TIV_LEVELS)}"
            )
        if self.access_model not in ACCESS_MODELS:
            raise ConfigError(
                f"unknown access model {self.access_model!r}; "
                f"known: {', '.join(ACCESS_MODELS)}"
            )
        if self.size_factor <= 0:
            raise ConfigError("size_factor must be positive")
        if self.asymmetry < 0 or self.asymmetry >= 1:
            raise ConfigError("asymmetry must lie in [0, 1)")
        if self.extra_jitter < 0 or self.extra_jitter >= 1:
            raise ConfigError("extra_jitter must lie in [0, 1)")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must lie in [0, 1)")
        if not 0 <= self.churn < 0.9:
            raise ConfigError("churn must lie in [0, 0.9)")
        if self.rescale <= 0:
            raise ConfigError("rescale must be positive")

    #: Fields that change the generated matrices (everything except the
    #: identification fields and ``size_factor``, which acts on the node
    #: count before generation and is therefore already part of the cache
    #: address through ``n_nodes``).
    _CONTENT_FIELDS = (
        "topology",
        "tiv_level",
        "access_model",
        "asymmetry",
        "extra_jitter",
        "dropout",
        "churn",
        "rescale",
    )

    @property
    def is_noop(self) -> bool:
        """True when the scenario leaves every preset matrix untouched.

        A no-op scenario (the explicit "baseline" of a scenario matrix)
        shares cache entries — and therefore artefacts — with plain
        ``run-all`` runs of the same configuration.
        """
        defaults = {f.name: f.default for f in fields(self)}
        return all(
            getattr(self, name) == defaults[name] for name in self._CONTENT_FIELDS
        )

    def cache_params(self) -> dict[str, Any]:
        """The scenario knobs that address generated artefacts in the cache.

        Only non-default knobs are included, so adding a future dimension
        (with a no-op default) does not invalidate existing cache entries
        or golden snapshots.
        """
        defaults = {f.name: f.default for f in fields(self)}
        return {
            name: getattr(self, name)
            for name in self._CONTENT_FIELDS
            if getattr(self, name) != defaults[name]
        }

    def as_dict(self) -> dict[str, Any]:
        """Full serialisable view (used by reports and the CLI listing)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
