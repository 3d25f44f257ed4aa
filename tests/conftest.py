"""Shared fixtures for the test suite.

Fixtures are intentionally small (tens of nodes) so the full suite runs in
seconds; ``tests/claims`` checks the paper's claims at 120 and 240 nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.delayspace.datasets import load_dataset
from repro.delayspace.matrix import DelayMatrix
from repro.delayspace.synthetic import euclidean_delay_space
from repro.tiv.severity import compute_tiv_severity


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden snapshots under tests/golden/snapshots "
        "instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """True when the run should rewrite golden snapshots instead of asserting."""
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture(scope="session")
def tiny_tiv_matrix() -> DelayMatrix:
    """A 4-node matrix with one blatant TIV (edge 0-2 is inflated)."""
    delays = np.array(
        [
            [0.0, 5.0, 100.0, 40.0],
            [5.0, 0.0, 5.0, 38.0],
            [100.0, 5.0, 0.0, 36.0],
            [40.0, 38.0, 36.0, 0.0],
        ]
    )
    return DelayMatrix(delays, symmetrize=False)


@pytest.fixture(scope="session")
def euclidean_matrix() -> DelayMatrix:
    """A 40-node TIV-free matrix (pure Euclidean distances)."""
    return euclidean_delay_space(40, rng=7)


@pytest.fixture(scope="session")
def small_internet_matrix() -> DelayMatrix:
    """An 80-node DS²-like synthetic matrix with injected TIVs."""
    return load_dataset("ds2_like", n_nodes=80, rng=11)


@pytest.fixture(scope="session")
def small_internet_severity(small_internet_matrix):
    """TIV severities of the 80-node matrix."""
    return compute_tiv_severity(small_internet_matrix)


@pytest.fixture(scope="session")
def converged_vivaldi(small_internet_matrix) -> VivaldiSystem:
    """A Vivaldi embedding of the 80-node matrix, run for 60 seconds."""
    system = VivaldiSystem(
        small_internet_matrix, VivaldiConfig(n_neighbors=16), rng=3
    )
    system.run(60)
    return system
