"""Tests for the unified repro.api facade."""

import numpy as np
import pytest

from repro import api
from repro.errors import ConfigError


class TestFacadeSurface:
    def test_importable_from_the_package_root(self):
        import repro

        assert repro.api is api
        for name in api.__all__:
            assert hasattr(api, name)

    def test_embedding_systems_constant(self):
        assert api.EMBEDDING_SYSTEMS == ("vivaldi", "ides", "lat")


class TestLoadMatrix:
    def test_from_preset(self):
        matrix = api.load_matrix(preset="ds2_like", n_nodes=24, seed=0)
        assert matrix.n_nodes == 24

    def test_from_file(self, tmp_path):
        from repro.delayspace.io import save_npz

        original = api.load_matrix(n_nodes=20, seed=1)
        path = tmp_path / "matrix.npz"
        save_npz(original, path)
        loaded = api.load_matrix(str(path))
        assert np.array_equal(loaded.values, original.values, equal_nan=True)

    def test_scenario_shapes_the_matrix(self):
        plain = api.load_matrix(n_nodes=24, seed=0)
        heavy = api.load_matrix(n_nodes=24, seed=0, scenario="heavy_tiv")
        assert not np.array_equal(plain.values, heavy.values, equal_nan=True)


class TestBuildEmbedding:
    @pytest.fixture(scope="class")
    def matrix(self):
        return api.load_matrix(n_nodes=24, seed=0)

    @pytest.mark.parametrize("system", api.EMBEDDING_SYSTEMS)
    def test_each_system_predicts_delays(self, matrix, system):
        predictor = api.build_embedding(matrix, system=system, seconds=3, seed=0)
        predicted = predictor.predicted_matrix()
        assert predicted.shape == (24, 24)
        assert np.isfinite(predicted[np.triu_indices(24, k=1)]).any()

    @pytest.mark.parametrize("system", api.EMBEDDING_SYSTEMS)
    def test_config_is_the_only_extra_keyword(self, matrix, system):
        # No keyword reaches the underlying fit unnamed: the retired
        # kernel= switch and any misspelling fail alike for every system.
        for keyword in ({"kernel": "reference"}, {"configs": None}):
            with pytest.raises(TypeError):
                api.build_embedding(matrix, system=system, seconds=3, **keyword)

    @pytest.mark.parametrize("system", ["vivaldi", "ides"])
    def test_config_reaches_the_fit(self, matrix, system):
        from repro.coords.ides import IDESConfig
        from repro.coords.vivaldi import VivaldiConfig

        if system == "ides":
            predictor = api.build_embedding(matrix, system=system, config=IDESConfig(dimension=3))
            assert predictor.dimension == 3
        else:
            predictor = api.build_embedding(
                matrix, system=system, seconds=3, config=VivaldiConfig(dimension=3)
            )
            assert predictor.coordinates.shape == (24, 3)

    def test_lat_takes_no_config(self, matrix):
        from repro.coords.vivaldi import VivaldiConfig

        with pytest.raises(TypeError, match="takes no config"):
            api.build_embedding(matrix, system="lat", seconds=3, config=VivaldiConfig())

    def test_unknown_system_rejected(self, matrix):
        for system in ("warp_drive", "gnp"):
            with pytest.raises(ConfigError, match="unknown embedding system"):
                api.build_embedding(matrix, system=system)


class TestSeverityAndExperiments:
    def test_severity_matches_the_underlying_module(self):
        from repro.tiv.severity import compute_tiv_severity

        matrix = api.load_matrix(n_nodes=20, seed=2)
        via_api = api.severity(matrix)
        direct = compute_tiv_severity(matrix)
        assert np.array_equal(via_api.severity, direct.severity, equal_nan=True)

    def test_run_experiment(self):
        result = api.run_experiment("fig03", n_nodes=48, seed=0)
        assert result.experiment_id == "fig03"
        assert result.data


class TestStreaming:
    def test_open_stream_primed_from_a_trace(self):
        trace = api.make_trace(n_nodes=16, seed=4, duration=10.0)
        service = api.open_stream(trace)
        assert service.n_active == 16
        assert service.n_events == trace.n_events
        node, predicted = service.closest(0)[0]
        assert node != 0 and predicted > 0

    def test_open_stream_from_a_path(self, tmp_path):
        from repro.stream import save_trace

        trace = api.make_trace(n_nodes=12, seed=1, duration=6.0)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        service = api.open_stream(str(path))
        assert service.n_active == 12

    def test_open_stream_empty(self):
        service = api.open_stream()
        assert service.n_active == 0
        service.join(1, t=0.0)
        assert service.n_active == 1

    def test_replay_accepts_object_and_path(self, tmp_path):
        import json

        from repro.stream import save_trace

        trace = api.make_trace(n_nodes=16, seed=6, duration=12.0)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        from_object = api.replay(trace, window_seconds=6.0)
        from_path = api.replay(str(path), window_seconds=6.0)
        assert json.dumps(from_object.as_dict()) == json.dumps(from_path.as_dict())
