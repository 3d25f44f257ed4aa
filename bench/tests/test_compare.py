"""compare.py verdicts on synthetic result sets."""

import json

from compare import compare, format_comparison, quartiles, verdict

BASE = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def seeds(values):
    return dict(enumerate(values))


def judge(a, b, *, better="lower", bound=0.1, unit="s"):
    return verdict(seeds(a), seeds(b), better=better, bound=bound, unit=unit)


def test_quartiles_match_statistics_quantiles():
    median, q1, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8])
    assert (q1, median, q3) == (2.25, 4.5, 6.75)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_same_distribution_is_unchanged():
    assert judge(BASE, BASE) == "unchanged"


def test_worse_by_more_than_the_bound_regresses():
    assert judge(BASE, [v * 1.2 for v in BASE]) == "regressed"
    assert judge(BASE, [v * 0.8 for v in BASE], better="higher") == "regressed"


def test_worse_within_the_bound_is_unchanged():
    assert judge(BASE, [v * 1.05 for v in BASE]) == "unchanged"


def test_consistent_gain_beyond_noise_improves():
    assert judge(BASE, [v * 0.9 for v in BASE]) == "improved"
    assert judge(BASE, [v * 1.1 for v in BASE], better="higher") == "improved"


def test_gain_that_loses_too_many_pairs_is_not_claimed():
    mixed = [v * (0.9 if i < 8 else 1.05) for i, v in enumerate(BASE)]
    assert judge(BASE, mixed) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert judge(BASE, noisy) == "unresolved"
    assert judge(noisy, BASE) == "unresolved"


def test_wide_spread_still_improves_when_every_run_is_better():
    noisy = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert judge(noisy, [1.0, 1.5, 2.0, 1.2, 1.1, 1.3, 1.4, 1.6, 1.7, 1.8]) == "improved"


def test_counts_must_repeat_exactly():
    assert judge([15] * 5, [15] * 5, unit="count") == "unchanged"
    assert judge([15] * 5, [12] * 5, unit="count") == "improved"
    assert judge([15] * 5, [16] * 5, unit="count") == "regressed"
    assert judge([15] * 5, [12, 12, 13, 12, 12], unit="count") == "unresolved"


def test_per_layer_metrics_without_a_bound_claim_only_by_pairing():
    assert judge(BASE, [v * 0.7 for v in BASE], bound=None) == "improved"
    assert judge(BASE, [v * 1.3 for v in BASE], bound=None) == "regressed"
    assert judge(BASE, BASE, bound=None) == "no claim"


def _runs(workload, metric, unit, values, trace=0):
    return [
        {"workload": workload, "seed": seed, "trace": trace,
         "result": {"metrics": {metric: {"value": value, "unit": unit}}}}
        for seed, value in enumerate(values)
    ]


def test_compare_covers_every_pair_and_skips_unexercised_layers():
    spec = {
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "figure.fig02_s", "unit": "s", "better": "lower"}],
    }
    a = _runs("w1", "wall_s", "s", BASE) + _runs("w2", "figure.fig02_s", "s", [0.0] * 3, trace=1)
    b = _runs("w1", "wall_s", "s", [v * 1.5 for v in BASE]) + _runs(
        "w2", "figure.fig02_s", "s", [0.0] * 3, trace=1)
    rows = compare(a, b, spec)
    verdicts = [(r["workload"], r["metric"], r["verdict"]) for r in rows]
    assert verdicts == [("w1", "wall_s", "regressed")]
    assert "+50.0%" in format_comparison(rows)


def test_cli_prints_a_table(tmp_path, capsys):
    from compare import main

    for name, values in (("a", BASE), ("b", BASE)):
        runs = _runs("figures-240", "wall_s", "s", values)
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": runs}))
    assert main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    assert "| figures-240 | wall_s | s |" in capsys.readouterr().out
