"""Structured result of an experiment runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one figure reproduction.

    Attributes
    ----------
    experiment_id:
        The figure identifier (``"fig02"``, ``"fig20"``, ...).
    title:
        Short human-readable description of what the figure shows.
    data:
        The regenerated series/statistics.  Keys are runner-specific but are
        documented in each runner's docstring.
    paper_expectation:
        One-line statement of the qualitative result the paper reports, so a
        reader can compare ``data`` against it directly.
    notes:
        Free-form notes (e.g. scaling caveats).
    """

    experiment_id: str
    title: str
    data: dict[str, Any] = field(repr=False)
    paper_expectation: str = ""
    notes: str = ""

    def summary(self) -> dict[str, Any]:
        """Compact dictionary view: the id, title, expectation and notes, without ``data``."""
        return {
            "experiment": self.experiment_id,
            "title": self.title,
            "paper_expectation": self.paper_expectation,
            "notes": self.notes,
        }
