"""Golden-figure regression harness.

Every case runs one figure experiment under one scenario at a fixed tiny
configuration, reduces the result to a compact numeric summary
(:func:`repro.scenarios.golden.summarize_result`) and compares it against
the committed snapshot in ``snapshots/``.  Any numeric drift beyond
tolerance — a changed mean, a resized distribution, a statistic that
appears or disappears — fails the test, turning the figure suite into a
regression surface for the whole pipeline (generators → severity →
embeddings → alerts).

Updating goldens after an *intended* change::

    python -m pytest tests/golden --update-goldens
    git diff tests/golden/snapshots   # review the numeric drift, commit it

Tolerances: the harness reruns the exact same seeded code, so drift only
comes from the numeric environment (numpy/BLAS versions).  Figures built
on closed-form statistics get the tight default; figures that consume a
Vivaldi embedding get a looser bound because the embedding's iterative
dynamics amplify last-ulp differences.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import run_experiment
from repro.scenarios.golden import (
    DEFAULT_RTOL,
    compare_summaries,
    golden_payload,
    read_golden,
    summarize_result,
    write_golden,
)

SNAPSHOT_DIR = Path(__file__).parent / "snapshots"

#: The configuration every golden case runs at.  Small enough that the
#: whole harness stays in CI-smoke territory, large enough that every
#: figure produces non-degenerate statistics.
GOLDEN_CONFIG = ExperimentConfig(
    n_nodes=48,
    vivaldi_seconds=8,
    selection_runs=1,
    max_clients=16,
    meridian_small_count=10,
)

#: Looser tolerance for figures whose payload flows through the Vivaldi
#: embedding (iterative dynamics amplify environment-level float noise).
VIVALDI_RTOL = 5e-3

#: The (figure, scenario, rtol) golden matrix.  Spread over scenarios so
#: the snapshots also pin the scenario generators themselves.
CASES = [
    ("fig02", "baseline", DEFAULT_RTOL),
    ("fig02", "heavy_tiv", DEFAULT_RTOL),
    ("fig03", "baseline", DEFAULT_RTOL),
    ("fig03", "tiv_free", DEFAULT_RTOL),
    ("fig04_07", "powerlaw_access", DEFAULT_RTOL),
    ("fig08", "churn_snapshot", DEFAULT_RTOL),
    ("fig09", "noisy_sparse", DEFAULT_RTOL),
    ("fig13", "heavy_tiv", DEFAULT_RTOL),
    ("fig15", "noisy_sparse", VIVALDI_RTOL),
    ("fig16", "baseline", VIVALDI_RTOL),
    ("fig17", "baseline", VIVALDI_RTOL),
    ("fig19", "heavy_tiv", VIVALDI_RTOL),
    ("fig22_23", "baseline", VIVALDI_RTOL),
    ("fig25", "two_continent", VIVALDI_RTOL),
]


def snapshot_path(experiment_id: str, scenario: str) -> Path:
    return SNAPSHOT_DIR / f"{experiment_id}__{scenario}.json"


def golden_config(scenario: str) -> dict:
    """The ``config`` block ``--update-goldens`` writes for ``scenario``."""
    return dataclasses.asdict(dataclasses.replace(GOLDEN_CONFIG, scenario=scenario))


@pytest.fixture(scope="module")
def scenario_contexts():
    """One shared context per scenario so figures reuse the artefacts."""
    contexts: dict[str, ExperimentContext] = {}

    def get(scenario: str) -> ExperimentContext:
        if scenario not in contexts:
            config = dataclasses.replace(GOLDEN_CONFIG, scenario=scenario)
            contexts[scenario] = ExperimentContext(config)
        return contexts[scenario]

    return get


@pytest.mark.parametrize(
    "experiment_id,scenario,rtol",
    CASES,
    ids=[f"{experiment_id}-{scenario}" for experiment_id, scenario, _ in CASES],
)
def test_golden_summary(experiment_id, scenario, rtol, scenario_contexts, update_goldens):
    result = run_experiment(experiment_id, context=scenario_contexts(scenario))
    summary = summarize_result(result)
    assert summary, f"{experiment_id} produced no numeric summary"
    path = snapshot_path(experiment_id, scenario)

    if update_goldens:
        write_golden(
            path,
            golden_payload(
                experiment_id,
                scenario,
                summary,
                config=golden_config(scenario),
            ),
        )
        return

    assert path.exists(), (
        f"missing golden snapshot {path.name}; generate it with "
        f"`python -m pytest tests/golden --update-goldens` and commit the file"
    )
    golden = read_golden(path)
    assert golden["experiment"] == experiment_id
    assert golden["scenario"] == scenario
    drifts = compare_summaries(golden["summary"], summary, rtol=rtol)
    assert not drifts, (
        f"{experiment_id} under scenario {scenario!r} drifted from its golden "
        f"snapshot ({len(drifts)} statistic(s)):\n"
        + "\n".join(f"  {drift.describe()}" for drift in drifts)
        + "\nIf the change is intended, rerun with --update-goldens and commit "
        "the snapshot diff."
    )


class TestHarnessDetectsDrift:
    """The harness itself must catch injected perturbations (ISSUE 2)."""

    def test_detects_injected_numeric_perturbation(self, scenario_contexts):
        # Perturb one statistic of a real figure summary by 1%: the
        # comparison against the committed snapshot must flag exactly the
        # perturbed path.
        experiment_id, scenario, rtol = CASES[2]  # fig03 / baseline
        golden = read_golden(snapshot_path(experiment_id, scenario))
        result = run_experiment(experiment_id, context=scenario_contexts(scenario))
        summary = summarize_result(result)
        target = next(
            path for path, value in sorted(summary.items()) if abs(value) > 1e-6
        )
        summary[target] *= 1.01
        drifts = compare_summaries(golden["summary"], summary, rtol=rtol)
        assert [drift.path for drift in drifts] == [target]

    def test_detects_disappearing_statistic(self):
        expected = {"a.mean": 1.0, "a.n": 3.0}
        drifts = compare_summaries(expected, {"a.mean": 1.0})
        assert [d.path for d in drifts] == ["a.n"]
        assert drifts[0].actual is None

    def test_detects_new_statistic(self):
        drifts = compare_summaries({"a.mean": 1.0}, {"a.mean": 1.0, "b": 2.0})
        assert [d.path for d in drifts] == ["b"]
        assert drifts[0].expected is None

    def test_tolerates_drift_within_rtol(self):
        expected = {"x": 100.0}
        assert not compare_summaries(expected, {"x": 100.0 * (1 + 1e-5)}, rtol=1e-4)
        assert compare_summaries(expected, {"x": 100.0 * (1 + 1e-3)}, rtol=1e-4)

    def test_nan_statistics_compare_equal(self):
        assert not compare_summaries({"x": float("nan")}, {"x": float("nan")})


class TestSnapshotHygiene:
    def test_no_orphan_snapshots(self):
        # Every committed snapshot must belong to a live case; otherwise a
        # renamed case would leave stale files that silently stop guarding.
        expected = {snapshot_path(e, s).name for e, s, _ in CASES}
        actual = {p.name for p in SNAPSHOT_DIR.glob("*.json")}
        assert actual == expected

    def test_snapshots_carry_the_golden_config(self):
        # The whole block, so a config field added or removed shows up
        # here and a later --update-goldens diff stays purely numeric.
        for experiment_id, scenario, _ in CASES:
            golden = read_golden(snapshot_path(experiment_id, scenario))
            expected = json.loads(json.dumps(golden_config(scenario)))
            assert golden["config"] == expected, (experiment_id, scenario)
