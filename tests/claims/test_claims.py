"""The paper's qualitative claims, checked over seeds at two sizes.

Every registered figure runner, and each setting of four ablation sweeps,
carries a claim: the shape the paper reports (who wins, which way a trend
runs).  A claim is a set of named margins.  A margin is one inequality
moved to one side, so ``ides >= 0.9 * vivaldi`` becomes
``ides - 0.9 * vivaldi``, which must be ``>= 0``; a strict inequality stays
strict (``> 0``).  A claim holds at a size when the median of every margin
over :data:`SEEDS` has the required sign.

All figure results come from one :func:`~repro.experiments.engine.run_plans`
call over the six (size, seed) configurations, into a session cache.  The
ablations build their systems from an :class:`ExperimentContext` over that
cache, so the matrix, severities and alert are restored, not recomputed.

DESIGN.md ("Paper claims") lists every (claim, size, seed) whose margin
has the wrong sign.  A (claim, size) whose median fails is marked
``xfail(strict=True)`` in :data:`FAILING` and cites its row there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.core.alert import TIVAlert, severity_vs_prediction_ratio
from repro.core.dynamic_vivaldi import DynamicNeighborVivaldi, DynamicVivaldiConfig
from repro.core.tiv_aware_meridian import (
    TIVAwareMeridianConfig,
    tiv_aware_membership_adjuster,
    tiv_aware_restart_policy,
)
from repro.delayspace.synthetic import SyntheticSpaceConfig, clustered_delay_space
from repro.experiments.cache import ArtifactCache
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.engine import run_plans
from repro.experiments.registry import list_experiments
from repro.meridian.rings import MeridianConfig
from repro.neighbor.selection import MeridianSelectionExperiment
from repro.tiv.severity import compute_tiv_severity

SIZES = (120, 240)
SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Margin:
    """One inequality as ``lhs - rhs``: it holds when positive, or non-negative if not strict."""

    value: float
    strict: bool

    def holds(self) -> bool:
        return self.value > 0 if self.strict else self.value >= 0


def gt(lhs, rhs) -> Margin:
    """``lhs > rhs``."""
    return Margin(float(lhs) - float(rhs), strict=True)


def ge(lhs, rhs) -> Margin:
    """``lhs >= rhs``."""
    return Margin(float(lhs) - float(rhs), strict=False)


def lt(lhs, rhs) -> Margin:
    """``lhs < rhs``."""
    return gt(rhs, lhs)


def le(lhs, rhs) -> Margin:
    """``lhs <= rhs``."""
    return ge(rhs, lhs)


def condition(value) -> Margin:
    """A condition without a magnitude: +1 when it holds, -1 when it does not."""
    return Margin(1.0 if value else -1.0, strict=True)


# -- figure claims: (result data, node count) -> margins ----------------------


def fig02(data, n_nodes):
    """Every data set has TIVs, most edges are mild, and the severity tail is long."""
    margins = {}
    for name, curve in data["curves"].items():
        margins[f"{name} max severity > 0"] = gt(curve["max"], 0)
        margins[f"{name} max severity > 2 x p90"] = gt(curve["max"], 2 * curve["quantiles"][0.9])
        margins[f"{name} violating triangles > 0.01"] = gt(
            data["violating_triangle_fraction"][name], 0.01
        )
    return margins


def fig03(data, n_nodes):
    """Cross-cluster edges cause more violations than within-cluster edges."""
    return {
        "cross violations > within violations": gt(
            data["mean_cross_violations"], data["mean_within_violations"]
        ),
        "cross severity >= 0": ge(data["mean_cross_severity"], 0),
        "reordered severity is n x n": condition(
            data["reordered_severity"].shape == (n_nodes, n_nodes)
        ),
    }


def fig04_07(data, n_nodes):
    """Longer edges cause more severe violations, but not bin over bin."""
    margins = {}
    for name, curve in data["series"].items():
        centers = np.asarray(curve["bin_centers"])
        medians = np.asarray(curve["median"])
        counts = np.asarray(curve["counts"])
        split = np.median(centers)
        short = medians[(centers <= split) & (counts > 0)]
        long = medians[(centers > split) & (counts > 0)]
        if short.size and long.size:
            margins[f"{name} long-half severity >= short-half"] = ge(
                np.nanmean(long), np.nanmean(short)
            )
        diffs = np.diff(medians[counts > 0])
        margins[f"{name} median severity not monotone"] = condition(
            np.any(diffs < 0) or diffs.size < 3
        )
    return margins


def fig08(data, n_nodes):
    """Short edges are mostly within-cluster; the shortest detour grows but stays below."""
    fraction = np.asarray(data["within_cluster_fraction"])
    valid = np.flatnonzero(np.asarray(data["edge_counts"]) > 0)
    centers = np.asarray(data["shortest_path"]["bin_centers"])
    median = np.asarray(data["shortest_path"]["median"])
    bound = centers + 0.5 * (centers[1] - centers[0]) + 1e-9
    return {
        "within-cluster fraction, first bin > last": gt(fraction[valid[0]], fraction[valid[-1]]),
        "shortest path <= direct delay + half a bin": ge(np.min(bound - median), 0),
        "shortest path, last bin > first": gt(median[-1], median[0]),
    }


def fig09(data, n_nodes):
    """Nearest pairs are at most slightly more alike in severity than random pairs."""
    margins = {}
    for name, stats in data["datasets"].items():
        random = stats["median_random_difference"]
        gap = random - stats["median_nearest_difference"]
        margins[f"{name} random - nearest <= max(random, 0.02)"] = le(
            gap, max(random, 0.02) + 1e-9
        )
    return margins


def fig10(data, n_nodes):
    """The 3-node TIV triangle cannot be embedded: its errors keep oscillating."""
    traces = np.array(list(data["traces"].values()))
    return {
        "summed steady-state error > 10 ms": gt(sum(data["steady_state_abs_error"].values()), 10.0),
        "max residual oscillation > 1 ms": gt(max(data["residual_oscillation"].values()), 1.0),
        "trace has 100 steps": condition(len(data["times"]) == 100),
        "summed |error| > 5 ms at every step": gt(np.abs(traces).sum(axis=0).min(), 5.0),
    }


def fig11(data, n_nodes):
    """Predictions oscillate at steady state, for short edges too, and nodes keep moving."""
    stats = data["oscillation_vs_delay"]
    medians = np.asarray(stats["median"])
    centers = np.asarray(stats["bin_centers"])
    return {
        "median oscillation > 1 ms": gt(data["median_oscillation_ms"], 1.0),
        "short-edge oscillation > 1 ms": gt(np.nanmax(medians[centers <= np.median(centers)]), 1.0),
        "median movement > 0": gt(data["movement_speed"]["median"], 0.0),
    }


def text_3_2_1(data, n_nodes):
    """About 12% of triangles violate; Vivaldi's median error is ~20 ms, with a long tail."""
    violating = data["violating_triangle_fraction"]
    median = data["median_abs_error_ms"]
    return {
        "violating triangles > 0.03": gt(violating, 0.03),
        "violating triangles < 0.45": lt(violating, 0.45),
        "median |error| > 5 ms": gt(median, 5.0),
        "median |error| < 80 ms": lt(median, 80.0),
        "p90 |error| > 2 x median": gt(data["p90_abs_error_ms"], 2 * median),
    }


def fig13(data, n_nodes):
    """TIVs misplace ring members; a larger beta misplaces fewer, longer edges more."""
    series = data["series"]
    mean = {beta: series[f"beta={beta}"]["overall_mean"] for beta in ("0.1", "0.5", "0.9")}
    fraction = np.asarray(series["beta=0.5"]["misplaced_fraction"], dtype=float)
    valid = np.flatnonzero(np.asarray(series["beta=0.5"]["pair_counts"]) > 0)
    third = max(1, valid.size // 3)
    return {
        "beta=0.5 misplaced > 0": gt(mean["0.5"], 0.0),
        "beta=0.9 <= beta=0.5": le(mean["0.9"], mean["0.5"] + 1e-9),
        "beta=0.5 <= beta=0.1": le(mean["0.5"], mean["0.1"] + 1e-9),
        "beta=0.5, last third of delays >= first third": ge(
            np.nanmean(fraction[valid[-third:]]), np.nanmean(fraction[valid[:third]])
        ),
    }


def fig14(data, n_nodes):
    """Meridian nearly always finds the closest node without TIVs, and fails more with them."""
    euclidean, ds2 = data["results"]["Euclidean"], data["results"]["DS2"]
    return {
        "Euclidean exact fraction > 0.9": gt(euclidean["exact_fraction"], 0.9),
        "DS2 exact fraction <= Euclidean": le(ds2["exact_fraction"], euclidean["exact_fraction"]),
        "DS2 mean penalty >= Euclidean": ge(ds2["mean_penalty"], euclidean["mean_penalty"]),
    }


def fig15(data, n_nodes):
    """IDES can represent TIVs, yet selects neighbours no better than Vivaldi."""
    ides, vivaldi = data["ides"], data["vivaldi"]
    return {
        "IDES mean penalty >= 0.9 x Vivaldi": ge(
            ides["mean_penalty"], 0.9 * vivaldi["mean_penalty"]
        ),
        "IDES exact fraction <= Vivaldi + 0.05": le(
            ides["exact_fraction"], vivaldi["exact_fraction"] + 0.05
        ),
    }


def fig16(data, n_nodes):
    """LAT changes neighbour selection only marginally."""
    vivaldi, lat = data["vivaldi"], data["vivaldi_lat"]
    return {
        "|LAT - Vivaldi| exact fraction < 0.2": lt(
            abs(lat["exact_fraction"] - vivaldi["exact_fraction"]), 0.2
        ),
        "LAT median penalty <= 3 x Vivaldi + 10": le(
            lat["median_penalty"], 3 * vivaldi["median_penalty"] + 10
        ),
    }


def fig17(data, n_nodes):
    """Keeping the globally worst edges out of Vivaldi's probes does not fix selection."""
    original, filtered = data["vivaldi_original"], data["vivaldi_severity_filter"]
    return {
        "filtered exact fraction < original + 0.15": lt(
            filtered["exact_fraction"], original["exact_fraction"] + 0.15
        ),
        "filtered median penalty > 0.3 x original": gt(
            filtered["median_penalty"], 0.3 * original["median_penalty"]
        ),
    }


def fig18(data, n_nodes):
    """Keeping the worst edges out of Meridian's rings does not help, and tends to hurt."""
    original, filtered = data["meridian_original"], data["meridian_severity_filter"]
    return {
        "filtered exact fraction <= original + 0.02": le(
            filtered["exact_fraction"], original["exact_fraction"] + 0.02
        ),
        "filtered mean penalty >= 0.8 x original": ge(
            filtered["mean_penalty"], 0.8 * original["mean_penalty"]
        ),
    }


def fig19(data, n_nodes):
    """Edges the embedding shrank carry high severity; stretched edges carry almost none."""
    neutral = data["median_severity_neutral"]
    return {
        "shrunk severity > neutral": gt(data["median_severity_shrunk"], neutral),
        "stretched severity <= neutral + 0.05": le(
            data["median_severity_stretched"], neutral + 0.05
        ),
    }


def fig20(data, n_nodes):
    """Tight alert thresholds are accurate; relaxing them trades accuracy away."""
    curves = data["curves"]
    margins = {}
    for name, curve in curves.items():
        thresholds = np.asarray(curve["thresholds"])
        accuracy = np.asarray(curve["accuracy"], dtype=float)
        tight = accuracy[(thresholds <= 0.3) & ~np.isnan(accuracy)]
        loose = accuracy[(thresholds >= 0.9) & ~np.isnan(accuracy)]
        if tight.size and loose.size:
            margins[f"{name} best tight accuracy >= worst loose"] = ge(
                tight.max(), loose.min() - 1e-9
            )
    loosest = {name: np.asarray(curves[name]["accuracy"], dtype=float)[-1] for name in curves}
    margins["loosest accuracy, worst 20% >= worst 1%"] = ge(
        loosest["worst_20pct"], loosest["worst_1pct"]
    )
    return margins


def fig21(data, n_nodes):
    """Recall rises as the threshold relaxes; a generous one recalls most of the worst 1%."""
    margins = {}
    for name, curve in data["curves"].items():
        recall = np.asarray(curve["recall"])
        margins[f"{name} recall never falls"] = ge(np.diff(recall).min(), -1e-12)
        margins[f"{name} recall, first <= last"] = le(recall[0], recall[-1])
    margins["worst 1% recall at the loosest threshold > 0.4"] = gt(
        np.asarray(data["curves"]["worst_1pct"]["recall"])[-1], 0.4
    )
    return margins


def fig22_23(data, n_nodes):
    """Dynamic neighbours shrink neighbour-edge severity and improve selection."""
    severity, penalty = data["neighbor_edge_severity"], data["selection_penalty"]
    first, last = min(severity), max(severity)
    return {
        "mean neighbour severity, last < first": lt(
            severity[last]["mean"], severity[first]["mean"]
        ),
        "p90 neighbour severity, last <= first": le(
            severity[last]["p90"], severity[first]["p90"] + 1e-9
        ),
        "median penalty, last <= first": le(
            penalty[last]["median_penalty"], penalty[first]["median_penalty"]
        ),
        "exact fraction, last >= first - 0.02": ge(
            penalty[last]["exact_fraction"], penalty[first]["exact_fraction"] - 0.02
        ),
    }


def _probe_overhead(results) -> float:
    return results.get("probe_overhead_fraction", {}).get("tiv_alert_vs_original", 0.0)


def fig24(data, n_nodes):
    """The TIV alert does not degrade Meridian and costs a few percent extra probes."""
    results = data["results"]
    original, aware = results["meridian_original"], results["meridian_tiv_alert"]
    overhead = _probe_overhead(results)
    return {
        "alert mean penalty <= 1.25 x original + 1": le(
            aware["mean_penalty"], original["mean_penalty"] * 1.25 + 1.0
        ),
        "alert exact fraction >= original - 0.05": ge(
            aware["exact_fraction"], original["exact_fraction"] - 0.05
        ),
        "probe overhead >= -0.05": ge(overhead, -0.05),
        "probe overhead < 0.30": lt(overhead, 0.30),
    }


def fig25(data, n_nodes):
    """The TIV alert improves Meridian and can match the no-termination ideal."""
    results = data["results"]
    original, aware = results["meridian_original"], results["meridian_tiv_alert"]
    ideal = results["meridian_no_termination"]
    overhead = _probe_overhead(results)
    return {
        "alert mean penalty <= original": le(aware["mean_penalty"], original["mean_penalty"]),
        "alert exact fraction >= original - 0.01": ge(
            aware["exact_fraction"], original["exact_fraction"] - 0.01
        ),
        "alert mean penalty <= 1.1 x no-termination + 0.5": le(
            aware["mean_penalty"], ideal["mean_penalty"] * 1.1 + 0.5
        ),
        "probe overhead >= -0.05": ge(overhead, -0.05),
        "probe overhead < 0.30": lt(overhead, 0.30),
    }


FIGURE_CLAIMS = {
    "fig02": fig02,
    "fig03": fig03,
    "fig04_07": fig04_07,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "text_3_2_1": text_3_2_1,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fig20": fig20,
    "fig21": fig21,
    "fig22_23": fig22_23,
    "fig24": fig24,
    "fig25": fig25,
}


# -- ablation claims: (context, swept value) -> margins -----------------------


def vivaldi_dimension(ctx, dimension):
    """The alert signal (shrunk edges carry more severity) is not an artefact of 5-D."""
    system = VivaldiSystem(ctx.matrix, VivaldiConfig(dimension=dimension), rng=ctx.config.seed + 1)
    system.run(ctx.config.vivaldi_seconds)
    stats = severity_vs_prediction_ratio(
        ctx.matrix, ctx.severity, TIVAlert(ctx.matrix, system)
    ).nonempty()
    shrunk = stats.median[stats.bin_centers <= 0.5]
    stretched = stats.median[stats.bin_centers >= 2.0]
    if not (shrunk.size and stretched.size):
        return {}
    return {"shrunk severity >= stretched": ge(np.nanmedian(shrunk), np.nanmedian(stretched))}


def alert_threshold(ctx, ts):
    """TIV-aware Meridian is not knife-edge sensitive to the lower alert threshold."""
    tiv_config = TIVAwareMeridianConfig(ts=ts, tl=2.0)
    summary = MeridianSelectionExperiment(
        ctx.matrix,
        n_meridian=ctx.config.n_meridian_small,
        config=MeridianConfig(),
        n_runs=ctx.config.selection_runs,
        max_clients=ctx.config.max_clients,
        rng=ctx.config.seed + 9,
        overlay_kwargs={
            "full_membership": True,
            "membership_adjuster": tiv_aware_membership_adjuster(ctx.alert, tiv_config),
        },
        restart_policy=tiv_aware_restart_policy(ctx.alert, tiv_config),
    ).run().summary()
    return {
        "exact fraction > 0.5": gt(summary["exact_fraction"], 0.5),
        "probes > 0": gt(summary["probes"], 0),
    }


def candidate_pool(ctx, multiplier):
    """Dynamic-neighbour refinement lowers neighbour-edge severity at any pool width."""
    config = DynamicVivaldiConfig(
        vivaldi=VivaldiConfig(),
        period=ctx.config.vivaldi_seconds,
        candidate_multiplier=multiplier,
    )
    snapshots = DynamicNeighborVivaldi(ctx.matrix, config, rng=ctx.config.seed + 8).run(3)
    first, last = (
        snapshot.neighbor_edge_severities(ctx.severity).mean()
        for snapshot in (snapshots[0], snapshots[-1])
    )
    return {"mean neighbour severity, last < first": lt(last, first)}


def tiv_edge_fraction(ctx, fraction):
    """At any injected TIV rate there are violations, and the alert beats guessing."""
    config = SyntheticSpaceConfig(
        n_nodes=min(ctx.config.n_nodes, 200), tiv_edge_fraction=fraction
    )
    matrix = clustered_delay_space(config, rng=ctx.config.seed)
    system = VivaldiSystem(matrix, VivaldiConfig(), rng=ctx.config.seed + 1)
    system.run(60)
    severity = compute_tiv_severity(matrix)
    evaluation = TIVAlert(matrix, system).evaluate(severity, target_fraction=0.1)
    return {
        "violating triangles > 0": gt(severity.violating_triangle_fraction(), 0),
        "best alert accuracy > 0.1": gt(np.nanmax(evaluation.accuracy), 0.1),
    }


ABLATIONS = {
    **{f"dimension={d}": (vivaldi_dimension, d) for d in (2, 5, 8)},
    **{f"ts={ts}": (alert_threshold, ts) for ts in (0.4, 0.6, 0.8)},
    **{f"candidate_multiplier={m}": (candidate_pool, m) for m in (2, 3)},
    **{f"tiv_edge_fraction={f}": (tiv_edge_fraction, f) for f in (0.05, 0.15, 0.30)},
}

#: (claim, size) pairs whose median fails, each citing its DESIGN.md row.
FAILING = {
    ("fig17", 120): (
        "DESIGN.md, Paper claims, rows fig17 n=120: the original and filtered median "
        "penalties are both 0.0 on every seed, so filtered > 0.3 x original cannot hold"
    ),
}


def assert_median_holds(per_seed) -> None:
    """Assert that the median over seeds of every margin has its required sign.

    ``per_seed`` maps each seed to the claim's margins on it.  A margin a
    seed leaves out (its guard found nothing to compare) is taken over the
    seeds that have it.
    """
    names = list(dict.fromkeys(name for margins in per_seed.values() for name in margins))
    assert names, "the claim produced no margin on any seed"
    failures = []
    for name in names:
        values = {seed: margins[name] for seed, margins in per_seed.items() if name in margins}
        strict = next(iter(values.values())).strict
        median = Margin(float(np.median([m.value for m in values.values()])), strict)
        if not median.holds():
            spread = ", ".join(f"seed {seed}: {m.value:.4g}" for seed, m in values.items())
            failures.append(f"{name}: median margin {median.value:.4g} ({spread})")
    assert not failures, "; ".join(failures)


def _params(claims):
    return [
        pytest.param(
            name,
            n_nodes,
            id=f"{name}-n{n_nodes}",
            marks=(
                [pytest.mark.xfail(strict=True, reason=FAILING[name, n_nodes])]
                if (name, n_nodes) in FAILING
                else []
            ),
        )
        for name in claims
        for n_nodes in SIZES
    ]


@pytest.fixture(scope="session")
def claim_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("claim-cache")


@pytest.fixture(scope="session")
def figure_results(claim_cache):
    """Every figure at every (size, seed): one engine run into the claim cache."""
    tags = {(n, seed): f"n={n} seed={seed}" for n in SIZES for seed in SEEDS}
    outcomes = run_plans(
        {tag: ExperimentConfig(n_nodes=n, seed=seed) for (n, seed), tag in tags.items()},
        list(list_experiments()),
        jobs=1,
        cache_dir=claim_cache,
    )
    failures = {tag: outcomes[tag].failures for tag in tags.values() if outcomes[tag].failures}
    assert not failures, failures
    return {key: outcomes[tag].results for key, tag in tags.items()}


@pytest.fixture(scope="session")
def contexts(figure_results, claim_cache):
    """One context per (size, seed), restoring its artifacts from the warm claim cache."""
    cache = ArtifactCache(claim_cache)
    return {
        (n, seed): ExperimentContext(ExperimentConfig(n_nodes=n, seed=seed), cache=cache)
        for n, seed in figure_results
    }


def test_claims_cover_exactly_the_registry():
    assert set(FIGURE_CLAIMS) == set(list_experiments())
    known = {(name, n) for name in (*FIGURE_CLAIMS, *ABLATIONS) for n in SIZES}
    assert set(FAILING) <= known


@pytest.mark.parametrize(("experiment_id", "n_nodes"), _params(FIGURE_CLAIMS))
def test_figure_claim(figure_results, experiment_id, n_nodes):
    claim = FIGURE_CLAIMS[experiment_id]
    assert_median_holds(
        {seed: claim(figure_results[n_nodes, seed][experiment_id].data, n_nodes) for seed in SEEDS}
    )


@pytest.mark.parametrize(("setting", "n_nodes"), _params(ABLATIONS))
def test_ablation_claim(contexts, setting, n_nodes):
    claim, value = ABLATIONS[setting]
    assert_median_holds({seed: claim(contexts[n_nodes, seed], value) for seed in SEEDS})
