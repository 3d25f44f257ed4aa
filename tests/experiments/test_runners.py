"""Integration tests: every experiment runner produces a sane result.

These use a deliberately small configuration so the whole module runs in
well under a minute; ``tests/claims`` checks the paper's claims at 120 and
240 nodes.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import list_experiments, run_all_experiments, run_experiment
from repro.experiments.result import ExperimentResult

SMALL = ExperimentConfig(
    n_nodes=90,
    vivaldi_seconds=30,
    selection_runs=2,
    max_clients=40,
    meridian_small_count=25,
)


@pytest.fixture(scope="module")
def all_results():
    """Run every registered experiment once with the small configuration."""
    return run_all_experiments(SMALL)


class TestRegistry:
    def test_all_figures_registered(self):
        ids = list_experiments()
        for expected in (
            "fig02", "fig03", "fig04_07", "fig08", "fig09", "fig10", "fig11",
            "text_3_2_1", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            "fig19", "fig20", "fig21", "fig22_23", "fig24", "fig25",
        ):
            assert expected in ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_results_are_structured(self, all_results):
        assert set(all_results) == set(list_experiments())
        for experiment_id, result in all_results.items():
            assert isinstance(result, ExperimentResult)
            assert result.experiment_id in (experiment_id, experiment_id.replace("fig22_23", "fig22_23"))
            assert result.title
            assert result.paper_expectation
            assert isinstance(result.data, dict) and result.data
            assert isinstance(result.summary(), dict)


class TestSection2Results:
    def test_fig02_all_datasets_have_tivs(self, all_results):
        curves = all_results["fig02"].data["curves"]
        assert set(curves) == {"DS2", "Meridian", "p2psim", "PlanetLab"}
        for name, curve in curves.items():
            assert curve["max"] > 0, name
            assert 0 <= curve["fraction_zero"] <= 1

    def test_fig03_cross_cluster_worse(self, all_results):
        data = all_results["fig03"].data
        assert data["mean_cross_violations"] >= data["mean_within_violations"]
        n = SMALL.n_nodes
        assert data["reordered_severity"].shape == (n, n)

    def test_fig04_07_series_present(self, all_results):
        series = all_results["fig04_07"].data["series"]
        assert set(series) == {"DS2", "Meridian", "p2psim", "PlanetLab"}
        for curve in series.values():
            assert len(curve["median"]) == len(curve["bin_centers"])

    def test_fig08_fractions_bounded(self, all_results):
        data = all_results["fig08"].data
        fractions = [f for f in data["within_cluster_fraction"] if not np.isnan(f)]
        assert fractions
        assert all(0 <= f <= 1 for f in fractions)

    def test_fig09_proximity_gap_small(self, all_results):
        datasets = all_results["fig09"].data["datasets"]
        for name, stats in datasets.items():
            assert stats["median_nearest_difference"] >= 0
            assert stats["median_random_difference"] >= 0


class TestSection3Results:
    def test_fig10_oscillation_persists(self, all_results):
        data = all_results["fig10"].data
        assert max(data["residual_oscillation"].values()) > 1.0
        assert len(data["times"]) == len(next(iter(data["traces"].values())))

    def test_fig11_oscillation_positive(self, all_results):
        data = all_results["fig11"].data
        assert data["median_oscillation_ms"] > 0
        assert data["movement_speed"]["p90"] >= data["movement_speed"]["median"]

    def test_text_stats_in_plausible_range(self, all_results):
        data = all_results["text_3_2_1"].data
        assert 0.01 < data["violating_triangle_fraction"] < 0.6
        assert data["median_abs_error_ms"] > 0
        assert data["p90_abs_error_ms"] >= data["median_abs_error_ms"]

    def test_fig13_beta_tradeoff(self, all_results):
        series = all_results["fig13"].data["series"]
        assert series["beta=0.9"]["overall_mean"] <= series["beta=0.1"]["overall_mean"] + 1e-9

    def test_fig14_euclidean_beats_tiv_data(self, all_results):
        results = all_results["fig14"].data["results"]
        assert results["Euclidean"]["exact_fraction"] >= results["DS2"]["exact_fraction"]


class TestSection4Results:
    def test_fig15_reports_both_mechanisms(self, all_results):
        """Structural check only: the paper-direction claim (IDES no better
        than Vivaldi for neighbour selection) is checked at 120 and 240 nodes
        by tests/claims — at this test's tiny scale the landmark budget
        covers a large share of the matrix and the comparison flips.
        """
        data = all_results["fig15"].data
        for key in ("vivaldi", "ides"):
            assert data[key]["tests"] > 0
            assert data[key]["mean_penalty"] >= 0

    def test_fig16_lat_marginal(self, all_results):
        data = all_results["fig16"].data
        assert abs(
            data["vivaldi_lat"]["exact_fraction"] - data["vivaldi"]["exact_fraction"]
        ) < 0.3

    def test_fig17_filter_marginal_for_vivaldi(self, all_results):
        data = all_results["fig17"].data
        assert "vivaldi_severity_filter" in data

    def test_fig18_filter_hurts_meridian(self, all_results):
        data = all_results["fig18"].data
        assert (
            data["meridian_severity_filter"]["mean_penalty"]
            >= data["meridian_original"]["mean_penalty"] - 5.0
        )


class TestSection5Results:
    def test_fig19_trend(self, all_results):
        data = all_results["fig19"].data
        assert data["median_severity_shrunk"] >= data["median_severity_stretched"]

    def test_fig20_21_tradeoff(self, all_results):
        accuracy_curves = all_results["fig20"].data["curves"]
        recall_curves = all_results["fig21"].data["curves"]
        assert set(accuracy_curves) == set(recall_curves)
        for curve in recall_curves.values():
            recalls = curve["recall"]
            assert recalls[-1] >= recalls[0]

    def test_fig22_23_severity_decreases(self, all_results):
        severity = all_results["fig22_23"].data["neighbor_edge_severity"]
        assert severity[max(severity)]["mean"] <= severity[0]["mean"]

    def test_fig22_23_penalty_improves(self, all_results):
        penalties = all_results["fig22_23"].data["selection_penalty"]
        last = max(penalties)
        assert penalties[last]["exact_fraction"] >= penalties[0]["exact_fraction"] - 0.05

    def test_fig24_25_report_overhead(self, all_results):
        for fid in ("fig24", "fig25"):
            results = all_results[fid].data["results"]
            assert "meridian_original" in results
            assert "meridian_tiv_alert" in results
            assert results["meridian_tiv_alert"]["probes"] > 0
        assert "meridian_no_termination" in all_results["fig25"].data["results"]
