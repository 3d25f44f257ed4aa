"""BENCHMARK.json and bench/layers.json agree with each other and with the runner."""

import json
import re

import pytest

from workloads import ARTIFACT_NODES, FAMILIES, FIGURE_IDS, ROOT, TIME_SUFFIXES, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def layers():
    return json.loads((ROOT / "bench" / "layers.json").read_text())


def test_top_level_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_counts(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")


def test_time_units_match_the_name_suffix_that_scales_them(spec):
    # Times are scaled to reference seconds by name suffix (workloads.TIME_SUFFIXES).
    units = {"_s": "s", "_ms": "ms", "_us": "us"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        suffix = next((s for s in TIME_SUFFIXES if metric["name"].endswith(s)), None)
        if suffix is None:
            assert metric["unit"] not in units.values(), metric["name"]
        else:
            assert metric["unit"] == units[suffix], metric["name"]


def test_names_are_unique(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_setup_metric_has_the_largest_bound(spec):
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_per_layer_metric_names_its_workloads_and_end_to_end_metrics(spec, layers):
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, entry in layers.items():
        assert entry["layer"], name
        assert entry["workloads"] and set(entry["workloads"]) <= workloads, name
        assert set(entry["moves"]) <= end_to_end, name


def test_declared_spans_cover_the_per_layer_names(layers):
    for node in ARTIFACT_NODES:
        assert f"artifact.{node}.compute_s" in layers
        assert f"artifact.{node}.restore_s" in layers
    for experiment_id in FIGURE_IDS:
        assert f"figure.{experiment_id}_s" in layers
    for family in FAMILIES:
        assert f"query.{family}.p50_ms" in layers and f"query.{family}.p99_ms" in layers
