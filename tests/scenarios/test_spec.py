"""Tests for the declarative scenario specification."""

import pytest

from repro.errors import ConfigError
from repro.scenarios.library import scenario_matrix
from repro.scenarios.spec import Scenario


class TestValidation:
    def test_defaults_are_valid_and_noop(self):
        scenario = Scenario("anything")
        assert scenario.is_noop
        assert scenario.cache_params() == {}

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            Scenario("")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topology": "hexagonal"},
            {"tiv_level": "extreme"},
            {"access_model": "uniform"},
            {"size_factor": 0.0},
            {"size_factor": -1.0},
            {"asymmetry": -0.1},
            {"asymmetry": 1.0},
            {"extra_jitter": 1.0},
            {"dropout": 1.0},
            {"dropout": -0.5},
            {"churn": 0.95},
            {"rescale": 0.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Scenario("bad", **kwargs)


class TestCacheParams:
    def test_only_non_default_knobs_enter_the_address(self):
        scenario = Scenario("s", tiv_level="heavy", dropout=0.05)
        assert scenario.cache_params() == {"tiv_level": "heavy", "dropout": 0.05}
        assert not scenario.is_noop

    def test_name_and_description_never_enter_the_address(self):
        a = Scenario("a", description="one", churn=0.2)
        b = Scenario("b", description="two", churn=0.2)
        assert a.cache_params() == b.cache_params()

    def test_size_factor_is_not_a_content_knob(self):
        # The size dimension acts through n_nodes (already part of every
        # artefact address); duplicating it here would split the cache.
        scenario = Scenario("s", size_factor=2.0)
        assert scenario.cache_params() == {}
        assert scenario.is_noop

    def test_every_content_knob_is_set_by_a_library_scenario(self):
        # A knob no scenario of the full matrix sets selects a path no
        # workload takes.
        used = set().union(*(s.cache_params() for s in scenario_matrix("full")))
        assert used == set(Scenario._CONTENT_FIELDS)


class TestSerialisation:
    def test_as_dict_round_trips(self):
        scenario = Scenario("s", description="d", tiv_level="light", rescale=0.5)
        rebuilt = Scenario(**scenario.as_dict())
        assert rebuilt == scenario
