"""Tests for repro.coords.vivaldi."""

import numpy as np
import pytest

from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem, embed_vivaldi
from repro.core.alert import prediction_ratios
from repro.errors import EmbeddingError
from repro.stats.summary import median_absolute_error, relative_errors
from tests.coords.oracles import GaussSeidelVivaldi, oracle_norm

#: The library embedding and the Gauss-Seidel oracle, by the names the
#: tests carry.
EMBEDDINGS = {"batched": VivaldiSystem, "reference": GaussSeidelVivaldi}


class TestVivaldiConfig:
    def test_defaults_match_paper(self):
        config = VivaldiConfig()
        assert config.dimension == 5
        assert config.n_neighbors == 32

    def test_invalid_dimension(self):
        with pytest.raises(EmbeddingError):
            VivaldiConfig(dimension=0)

    def test_invalid_constants(self):
        with pytest.raises(EmbeddingError):
            VivaldiConfig(cc=0.0)
        with pytest.raises(EmbeddingError):
            VivaldiConfig(ce=1.5)

    def test_invalid_probe_rate(self):
        with pytest.raises(EmbeddingError):
            VivaldiConfig(probes_per_node_per_second=0)


class TestVivaldiSystem:
    def test_initial_state(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=8), rng=0)
        assert system.n_nodes == euclidean_matrix.n_nodes
        assert system.coordinates.shape == (40, 5)
        assert system.simulation_time == 0.0
        assert all(len(nbrs) == 8 for nbrs in system.neighbors)

    def test_neighbors_exclude_self(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=8), rng=0)
        for i, nbrs in enumerate(system.neighbors):
            assert i not in nbrs

    def test_step_advances_time_and_returns_movement(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=8), rng=0)
        movement = system.step()
        assert system.simulation_time == 1.0
        assert movement.shape == (40,)
        assert np.all(movement >= 0)

    def test_run_reduces_error_on_euclidean_data(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=16), rng=1)
        initial = median_absolute_error(euclidean_matrix.values, system.predicted_matrix())
        system.run(80)
        final = median_absolute_error(euclidean_matrix.values, system.predicted_matrix())
        assert final < initial
        rel = relative_errors(euclidean_matrix.values, system.predicted_matrix())
        assert np.median(rel) < 0.25  # embeddable data should embed well

    def test_error_estimates_shrink(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=16), rng=2)
        system.run(60)
        assert np.median(system.errors) < 1.0

    def test_predicted_matrix_symmetric_and_zero_diagonal(self, euclidean_matrix):
        system = embed_vivaldi(euclidean_matrix, seconds=10, rng=3)
        matrix = system.predicted_matrix()
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_predicted_matrix_matches_oracle_norm(self, euclidean_matrix):
        system = embed_vivaldi(euclidean_matrix, seconds=10, rng=3)
        coords = system.coordinates.tolist()
        assert system.predicted_matrix()[4, 7] == oracle_norm(coords[4], coords[7])

    def test_prediction_ratio_matrix(self, small_internet_matrix):
        system = embed_vivaldi(small_internet_matrix, seconds=20, rng=4)
        ratios = prediction_ratios(system.predicted_matrix(), small_internet_matrix.values)
        assert np.all(np.isnan(np.diag(ratios)))
        finite = ratios[np.isfinite(ratios)]
        assert np.all(finite >= 0)

    def test_reproducible_with_seed(self, euclidean_matrix):
        a = embed_vivaldi(euclidean_matrix, seconds=15, rng=9).coordinates
        b = embed_vivaldi(euclidean_matrix, seconds=15, rng=9).coordinates
        assert np.array_equal(a, b)

    def test_negative_run_raises(self, euclidean_matrix):
        with pytest.raises(EmbeddingError):
            embed_vivaldi(euclidean_matrix, seconds=-1)


class TestKernels:
    """The embedding against the Gauss-Seidel oracle: equivalence, determinism, edge cases."""

    def test_unknown_kernel_raises(self, euclidean_matrix):
        # The kernel switch is gone: every kernel keyword is unknown.
        with pytest.raises(TypeError):
            VivaldiSystem(euclidean_matrix, rng=0, kernel="turbo")

    def test_kernel_property(self):
        # One kernel; its name stays in the embedding's cache address, so
        # entries of the retired scalar loop never read as hits.
        from repro.artifacts import ArtifactKey
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.context import ExperimentContext

        context = ExperimentContext(ExperimentConfig(n_nodes=40))
        assert context.artifact_params(ArtifactKey("vivaldi"))["kernel"] == "batched"

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_per_seed_determinism(self, euclidean_matrix, kernel):
        runs = [EMBEDDINGS[kernel](euclidean_matrix, rng=11) for _ in range(2)]
        for system in runs:
            system.run(12)
        assert np.array_equal(runs[0].coordinates, runs[1].coordinates)
        assert np.array_equal(runs[0].errors, runs[1].errors)

    def test_kernels_converge_equivalently(self, small_internet_matrix):
        """The embedding and the oracle reach statistically indistinguishable embeddings.

        The embedding applies each probe round as a Jacobi sweep, the
        oracle as a Gauss-Seidel sweep, so trajectories differ — but the
        converged median relative error must agree within a few percent
        (absolute, on data with residual error ~0.15-0.2).
        """
        medians = {}
        for kernel in ("batched", "reference"):
            errors = []
            for seed in range(3):
                system = EMBEDDINGS[kernel](small_internet_matrix, rng=seed)
                system.run(100)
                rel = relative_errors(
                    small_internet_matrix.values, system.predicted_matrix()
                )
                errors.append(np.median(rel))
            medians[kernel] = float(np.mean(errors))
        assert medians["batched"] < 0.45
        assert medians["reference"] < 0.45
        assert abs(medians["batched"] - medians["reference"]) < 0.05

    def test_batched_reduces_error_on_euclidean_data(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=16), rng=1)
        initial = median_absolute_error(
            euclidean_matrix.values, system.predicted_matrix()
        )
        system.run(80)
        final = median_absolute_error(euclidean_matrix.values, system.predicted_matrix())
        assert final < initial
        rel = relative_errors(euclidean_matrix.values, system.predicted_matrix())
        assert np.median(rel) < 0.25

    def test_batched_handles_ragged_neighbor_lists(self, euclidean_matrix):
        ragged = [
            [(i + 1) % 40] if i % 2 else [(i + 1) % 40, (i + 2) % 40, (i + 5) % 40]
            for i in range(40)
        ]
        system = VivaldiSystem(euclidean_matrix, rng=0, neighbors=ragged)
        system.run(5)
        assert np.all(np.isfinite(system.coordinates))
        # Probe targets can only come from each node's own list: nodes with
        # a single neighbour must never have moved toward anyone else, which
        # the padded-array gather guarantees by construction (picks are
        # drawn below each row's true length).
        assert system.neighbors == ragged

    def test_batched_handles_coincident_coordinates(self, euclidean_matrix):
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=4), rng=0)
        # Force every node onto the same point: all pairwise distances are
        # zero, so the probe round must take the random-push branch.
        system.restore_state(
            np.zeros_like(system.coordinates), system.errors, simulation_time=0.0
        )
        movement = system.step()
        assert np.all(np.isfinite(system.coordinates))
        assert np.any(movement > 0)

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_missing_delays_are_skipped(self, kernel):
        from repro.delayspace.matrix import DelayMatrix

        delays = np.array(
            [
                [0.0, 10.0, np.nan],
                [10.0, 0.0, 12.0],
                [np.nan, 12.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        system = EMBEDDINGS[kernel](matrix, VivaldiConfig(n_neighbors=2, dimension=2), rng=0)
        system.run(20)
        assert np.all(np.isfinite(system.coordinates))
        assert np.all(np.isfinite(system.errors))

    def test_multiple_probes_per_second(self, euclidean_matrix):
        config = VivaldiConfig(n_neighbors=8, probes_per_node_per_second=3)
        system = VivaldiSystem(euclidean_matrix, config, rng=5)
        movement = system.step()
        assert system.simulation_time == 1.0
        assert np.any(movement > 0)

    def test_predict_edges_matches_predicted_matrix(self, euclidean_matrix):
        system = embed_vivaldi(euclidean_matrix, seconds=10, rng=3)
        rows = np.array([0, 3, 7, 5])
        cols = np.array([1, 2, 7, 30])
        batch = system.predict_edges(rows, cols)
        assert np.array_equal(batch, system.predicted_matrix()[rows, cols])


class TestSetNeighbors:
    def test_explicit_neighbors_used(self, euclidean_matrix):
        explicit = [[(i + 1) % 40, (i + 2) % 40] for i in range(40)]
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=2), rng=0, neighbors=explicit)
        assert system.neighbors == explicit

    def test_wrong_length_raises(self, euclidean_matrix):
        with pytest.raises(EmbeddingError):
            VivaldiSystem(euclidean_matrix, neighbors=[[1]])

    def test_self_neighbor_raises(self, euclidean_matrix):
        bad = [[i] for i in range(40)]
        with pytest.raises(EmbeddingError):
            VivaldiSystem(euclidean_matrix, neighbors=bad)

    def test_empty_list_raises(self, euclidean_matrix):
        bad = [[] for _ in range(40)]
        with pytest.raises(EmbeddingError):
            VivaldiSystem(euclidean_matrix, neighbors=bad)

    def test_out_of_range_raises(self, euclidean_matrix):
        bad = [[99] for _ in range(40)]
        with pytest.raises(EmbeddingError):
            VivaldiSystem(euclidean_matrix, neighbors=bad)

    @pytest.mark.parametrize("bad_id", [1.7, True, 1.0])
    def test_non_integer_neighbor_raises(self, euclidean_matrix, bad_id):
        # Node 0 lists a float or a bool, which int() would turn into node 1.
        lists = [[(i + 1) % 40] for i in range(40)]
        lists[0] = [bad_id]
        with pytest.raises(EmbeddingError, match="not another node"):
            VivaldiSystem(euclidean_matrix, neighbors=lists)
        system = VivaldiSystem(euclidean_matrix, VivaldiConfig(n_neighbors=2), rng=0)
        before = system.neighbors
        with pytest.raises(EmbeddingError, match="not another node"):
            system.set_neighbors(lists)
        assert system.neighbors == before

    def test_numpy_integer_neighbors_are_python_ints(self, euclidean_matrix):
        lists = [[np.int64((i + 1) % 40)] for i in range(40)]
        system = VivaldiSystem(euclidean_matrix, neighbors=lists)
        assert system.neighbors == [[(i + 1) % 40] for i in range(40)]
        assert all(type(j) is int for nbrs in system.neighbors for j in nbrs)

    def test_missing_delays_are_skipped(self):
        import numpy as np
        from repro.delayspace.matrix import DelayMatrix

        delays = np.array(
            [
                [0.0, 10.0, np.nan],
                [10.0, 0.0, 12.0],
                [np.nan, 12.0, 0.0],
            ]
        )
        matrix = DelayMatrix(delays, symmetrize=False)
        system = VivaldiSystem(matrix, VivaldiConfig(n_neighbors=2, dimension=2), rng=0)
        system.run(20)  # must not raise despite the missing edge
        assert np.all(np.isfinite(system.coordinates))
